"""Reporter and translator state machines for loss recovery and rate metering.

Reporters stamp every essential report with a cumulative counter, encode it
straight from its body, and keep a bounded ring of the octets of the latest
essential reports, resent as they were first sent.  The ring holds consecutive
sequences ending at the current count, so the oldest one it holds is derived
from its length and never stored.  The translator compares
incoming counters against the last applied one per reporter: a gap produces a
NACK carrying the expected sequence, and the reporter goes back and resends
everything from there.  Retransmission duplicates are suppressed by sequence
number, giving exactly-once application of essential reports whenever the
backlog still holds the NACKed entry; if it does not, the loss is counted as
unrecoverable and a sequence reset tells the translator to stop asking.

The translator also meters its verb generation with a token bucket.  When
the bucket runs dry, essential reports are diverted to a deferred queue
(re-injected once the rate drops), non-essential reports are discarded, and
a congestion signal asks the reporter to slow down; reporters respond by
halving their offered rate and recovering additively.

``ReporterState.emit`` is a reporter's one per-step path: it recovers the
rate, reads the controls the translator sent back, and sends go-back-N
resends and then new reports within the step's rate.

``TranslatorFlowState.receive`` answers whether a report is applied now, and
queues each NACK and congestion signal it makes on ``controls``, in order, for
the caller to send and clear.  One damper, re-armed by ``begin_step``, allows
one NACK per (reporter, gap) and one congestion signal per reporter per step.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional, Union

from .wire import (
    FLAG_ESSENTIAL,
    AppendBody,
    Body,
    CongestionSignal,
    DtaPacket,
    NackPacket,
    SeqResetPacket,
    encode,
    encode_report,
)

DEFAULT_BACKLOG_CAPACITY = 256
_SEQ_MASK = 0xFFFFFFFF  # essential sequences are 32-bit and wrap
_SEQ_HALF = 1 << 31

# Rate response to congestion signals: halve, then recover additively.
AIMD_INCREASE_PER_STEP = 1.0
AIMD_DECREASE_FACTOR = 0.5
AIMD_MIN_RATE = 1.0

# Reserved list id of a liveness probe: it carries the essential count but writes nothing.
KEEPALIVE_LIST_ID = 0xFFFFFFFF


def is_keepalive(body: Body) -> bool:
    return type(body) is AppendBody and body.list_id == KEEPALIVE_LIST_ID and body.entry == b""


@dataclass
class TokenBucket:
    """Step-clocked token bucket; tokens are verbs the translator may emit."""

    rate: float
    burst: float
    tokens: float = field(default=-1.0)

    def __post_init__(self):
        if not (self.rate >= 0 and self.burst > 0):  # written so NaN fails too
            raise ValueError(f"need rate >= 0 and burst > 0, got {self.rate}/{self.burst}")
        if self.tokens < 0:
            self.tokens = self.burst

    def step(self) -> None:
        self.tokens = min(self.burst, self.tokens + self.rate)

    def try_consume(self, n: float) -> bool:
        # a full bucket also admits a report that costs more than the burst;
        # the debt it leaves is repaid by later steps, so the rate still holds
        if n <= self.tokens or self.tokens >= self.burst:
            self.tokens -= n
            return True
        return False


class ReporterState:
    """One reporter: sequence stamping, backlog, offered rate and its per-step send path."""

    def __init__(self, reporter_id: int, backlog_capacity: int = DEFAULT_BACKLOG_CAPACITY,
                 initial_rate: float = float("inf")):
        if backlog_capacity < 1:
            raise ValueError(f"backlog_capacity must be >= 1, got {backlog_capacity}")
        self.reporter_id = reporter_id
        self.essential_seq = 0
        # the octets as sent of the latest essential sequences, consecutive and
        # oldest first: the newest is essential_seq, the oldest derived from the length
        self.backlog: deque[bytes] = deque(maxlen=backlog_capacity)
        self.max_rate = initial_rate
        self.rate = initial_rate
        self.evicted_unprotected = 0
        self.retransmissions = 0
        self.pending: deque[Body] = deque()  # not yet stamped or sent
        self.outbox: deque[bytes] = deque()  # go-back-N resends, ready for the link
        self.inbox: list[Union[NackPacket, CongestionSignal]] = []  # from the translator

    def send(self, body: Body, flags: int) -> bytes:
        """Stamp and encode one report, keeping an essential one's octets in the backlog.

        A body that does not encode raises before the sequence advances, so the
        backlog still ends at ``essential_seq``.
        """
        if not flags & FLAG_ESSENTIAL:
            return encode_report(body, self.reporter_id, self.essential_seq, flags)
        seq = (self.essential_seq + 1) & _SEQ_MASK
        octets = encode_report(body, self.reporter_id, seq, flags)
        self.essential_seq = seq
        backlog = self.backlog
        if len(backlog) == backlog.maxlen:  # the append pushes out the oldest
            self.evicted_unprotected += 1
        backlog.append(octets)
        return octets

    def heartbeat(self) -> bytes:
        """Non-essential keepalive carrying the current count, for gap detection."""
        return self.send(AppendBody(KEEPALIVE_LIST_ID, b""), 0)

    def handle_nack(self, nack: NackPacket) -> list[bytes]:
        """Go-back-N: resend every backlog entry from the NACKed sequence on.

        The backlog holds consecutive sequences, oldest first, so the NACKed
        entry sits at its serial distance from the oldest, also across the
        wrap past 2**32 - 1.  If it was evicted (it precedes the oldest
        survivor, in serial-number order), the gap up to that survivor is
        unrecoverable; a sequence reset precedes the survivors so the
        translator stops waiting for the lost reports.
        """
        backlog, out = self.backlog, []
        oldest = (self.essential_seq + 1 - len(backlog)) & _SEQ_MASK
        at = (nack.expected_essential_seq - oldest) & _SEQ_MASK
        if at >= len(backlog):
            if at <= _SEQ_HALF:  # at or ahead of the next sequence: nothing to resend
                return out
            out.append(encode(SeqResetPacket(self.reporter_id, oldest)))
            at = 0
        out += islice(backlog, at, None)
        self.retransmissions += len(backlog) - at
        return out

    def handle_congestion(self, signal: CongestionSignal) -> None:
        """Multiplicative decrease; the translator signals once per step at most."""
        if self.rate != float("inf"):
            self.rate = max(AIMD_MIN_RATE, self.rate * AIMD_DECREASE_FACTOR)

    def emit(self, flags: int) -> list[bytes]:
        """One step's datagrams: resends first, then new reports, within the step's rate.

        The rate recovers before the inbox is read, so a signal read now halves the recovered rate.
        """
        if self.rate != float("inf"):
            self.rate = min(self.max_rate, self.rate + AIMD_INCREASE_PER_STEP)
        for control in self.inbox:
            if isinstance(control, NackPacket):
                self.outbox.extend(self.handle_nack(control))
            else:
                self.handle_congestion(control)
        self.inbox.clear()
        budget, outbox, pending = self.rate, self.outbox, self.pending
        out = [outbox.popleft() for _ in range(int(min(len(outbox), budget)))]
        send, take = self.send, pending.popleft
        out += [send(take(), flags) for _ in range(int(min(len(pending), budget - len(out))))]
        return out


class TranslatorFlowState:
    """Per-translator loss detection, metering, and deferral state."""

    def __init__(self, meter: Optional[TokenBucket] = None):
        self.meter = meter or TokenBucket(rate=float("inf"), burst=float("inf"))
        self.last_applied: dict[int, int] = {}
        self.deferred: deque = deque()  # (packet, verb_cost) awaiting meter headroom
        # NACKs and congestion signals for the reporters, in the order they arose
        self.controls: list[Union[NackPacket, CongestionSignal]] = []
        self.nacks_sent = 0
        self.congestion_signals = 0
        self.duplicates_suppressed = 0
        self.dropped_low_priority = 0
        self.diverted = 0
        self.skipped_unrecoverable = 0
        self._nacked: set[tuple[int, int]] = set()  # (reporter, expected seq) this step
        self._signalled: set[int] = set()  # reporters signalled this step

    def begin_step(self) -> None:
        """Re-arm the damper: one NACK per (reporter, gap), one signal per reporter."""
        self._nacked.clear()
        self._signalled.clear()

    def _nack(self, reporter_id: int, expected: int) -> bool:
        """Queue a NACK for the reporter's gap at ``expected`` unless one went this step;
        never apply."""
        key = (reporter_id, expected)
        if key not in self._nacked:
            self._nacked.add(key)
            self.nacks_sent += 1
            self.controls.append(NackPacket(reporter_id, expected))
        return False

    def handle_seq_reset(self, reset: SeqResetPacket) -> None:
        """Skip ahead to ``new_expected``, counting the skipped reports as lost.

        Sequences compare in serial-number order, so a reset across the wrap
        still moves forward; one that would move back is ignored.
        """
        last = self.last_applied.get(reset.reporter_id, 0)
        skipped = (reset.new_expected - 1 - last) & _SEQ_MASK
        if 0 < skipped < _SEQ_HALF:
            self.skipped_unrecoverable += skipped
            self.last_applied[reset.reporter_id] = (reset.new_expected - 1) & _SEQ_MASK

    def receive(self, packet: DtaPacket, verb_cost: Optional[int]) -> bool:
        """Whether to apply one report now; applied and diverted ones advance the sequence.

        Diverted reports sit in translator memory and are applied later in
        order, so accepting them into the deferred queue is as good as
        applying them for loss-detection purposes.
        """
        essential = packet.flags & FLAG_ESSENTIAL
        reporter_id = packet.reporter_id
        last = self.last_applied.get(reporter_id, 0)
        expected = (last + 1) & _SEQ_MASK
        if essential:
            seq = packet.essential_seq
            if seq != expected:
                # serial distance from the expected sequence: the upper half
                # of the 32-bit space is behind it, the lower half ahead
                if (seq - expected) & _SEQ_MASK >= _SEQ_HALF:
                    self.duplicates_suppressed += 1
                    return False
                return self._nack(reporter_id, expected)
        elif 0 < ((packet.essential_seq - last) & _SEQ_MASK) < _SEQ_HALF:
            # non-essential report reveals a gap in the essential substream
            return self._nack(reporter_id, expected)
        if verb_cost is None:  # a keepalive: a probe for gaps, never metered or applied
            return False

        # while anything is deferred, later reports must queue behind it so
        # essential application order is preserved
        if self.deferred or not self.meter.try_consume(verb_cost):
            if reporter_id not in self._signalled:
                self._signalled.add(reporter_id)
                self.congestion_signals += 1
                self.controls.append(CongestionSignal(reporter_id))
            if essential:
                self.last_applied[reporter_id] = packet.essential_seq
                self.deferred.append((packet, verb_cost))
                self.diverted += 1
            else:
                self.dropped_low_priority += 1
            return False

        if essential:
            self.last_applied[reporter_id] = packet.essential_seq
        return True

    def drain_deferred(self) -> list[DtaPacket]:
        """Re-inject deferred reports that now fit under the meter, in order."""
        out = []
        while self.deferred and self.meter.try_consume(self.deferred[0][1]):
            out.append(self.deferred.popleft()[0])
        return out
