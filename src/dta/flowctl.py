"""Reporter and translator state machines for loss recovery and rate metering.

Reporters stamp every essential report with a cumulative counter and keep a
bounded backlog of the octets of unacknowledged essential reports, resent as
they were first sent.  The translator compares
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
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import dropwhile
from typing import Optional, Union

from .wire import (
    AppendBody,
    CongestionSignal,
    DtaPacket,
    NackPacket,
    SeqResetPacket,
    encode,
    make_flags,
)

DEFAULT_BACKLOG_CAPACITY = 256
_SEQ_MASK = 0xFFFFFFFF  # essential sequences are 32-bit and wrap
_SEQ_HALF = 1 << 31

# Rate response to congestion signals: halve, then recover additively.
AIMD_INCREASE_PER_STEP = 1.0
AIMD_DECREASE_FACTOR = 0.5
AIMD_MIN_RATE = 1.0

# Reserved list id marking a report as a liveness probe: it carries the
# reporter's current essential count for gap detection but writes nothing.
KEEPALIVE_BODY = AppendBody(list_id=0xFFFFFFFF, entry=b"")


@dataclass
class TokenBucket:
    """Step-clocked token bucket; tokens are verbs the translator may emit."""

    rate: float
    burst: float
    tokens: float = field(default=-1.0)

    def __post_init__(self):
        if self.rate < 0 or self.burst <= 0:
            raise ValueError(f"need rate >= 0 and burst > 0, got {self.rate}/{self.burst}")
        if self.tokens < 0:
            self.tokens = self.burst

    def step(self) -> None:
        self.tokens = min(self.burst, self.tokens + self.rate)

    def try_consume(self, n: float) -> bool:
        if n <= self.tokens:
            self.tokens -= n
            return True
        return False


class ReporterState:
    """Per-reporter sending state: sequence stamping, backlog, offered rate."""

    def __init__(self, reporter_id: int, backlog_capacity: int = DEFAULT_BACKLOG_CAPACITY,
                 initial_rate: float = float("inf")):
        if backlog_capacity < 1:
            raise ValueError(f"backlog_capacity must be >= 1, got {backlog_capacity}")
        self.reporter_id = reporter_id
        self.essential_seq = 0
        self.backlog: OrderedDict[int, bytes] = OrderedDict()  # seq -> octets as sent
        self.backlog_capacity = backlog_capacity
        self.max_rate = initial_rate
        self.rate = initial_rate
        self.evicted_unprotected = 0
        self.retransmissions = 0
        self._signalled_this_step = False

    def send(self, packet: DtaPacket) -> bytes:
        """Stamp and encode one report, keeping an essential one's octets in the backlog."""
        essential = packet.essential
        if essential:
            self.essential_seq = (self.essential_seq + 1) & _SEQ_MASK
        octets = encode(DtaPacket(packet.body, self.reporter_id, self.essential_seq,
                                  packet.flags, packet.version, packet.src_port, packet.dst_port))
        if essential:
            if len(self.backlog) >= self.backlog_capacity:
                self.backlog.popitem(last=False)
                self.evicted_unprotected += 1
            self.backlog[self.essential_seq] = octets
        return octets

    def heartbeat(self) -> bytes:
        """Non-essential keepalive carrying the current count, for gap detection."""
        return self.send(DtaPacket(KEEPALIVE_BODY, self.reporter_id, 0, make_flags()))

    def handle_nack(self, nack: NackPacket) -> list[bytes]:
        """Go-back-N: resend every backlog entry from the NACKed sequence on.

        The backlog is walked in the order its entries were sent, which stays
        right when the sequence wraps past 2**32 - 1.  If the NACKed entry was
        evicted (it precedes the oldest survivor, in serial-number order), the
        gap up to that survivor is unrecoverable; a sequence reset precedes
        the survivors so the translator stops waiting for the lost reports.
        """
        expected = nack.expected_essential_seq
        out = []
        if expected not in self.backlog:
            oldest = next(iter(self.backlog), (self.essential_seq + 1) & _SEQ_MASK)
            if not 0 < (oldest - expected) & _SEQ_MASK < _SEQ_HALF:
                return out
            out.append(encode(SeqResetPacket(self.reporter_id, oldest)))
            expected = oldest
        for _, octets in dropwhile(lambda entry: entry[0] != expected, self.backlog.items()):
            out.append(octets)
            self.retransmissions += 1
        return out

    def handle_congestion(self, signal: CongestionSignal) -> None:
        """Multiplicative decrease, at most once per step."""
        if self._signalled_this_step or self.rate == float("inf"):
            return
        self.rate = max(AIMD_MIN_RATE, self.rate * AIMD_DECREASE_FACTOR)
        self._signalled_this_step = True

    def step(self) -> None:
        """Advance one step: additive rate recovery."""
        self._signalled_this_step = False
        if self.rate != float("inf"):
            self.rate = min(self.max_rate, self.rate + AIMD_INCREASE_PER_STEP)


class Decision(Enum):
    PROCESS = "process"
    NACK = "nack"
    DUPLICATE = "duplicate"
    DIVERT = "divert"
    DROP_LOW_PRIORITY = "drop-low-priority"


@dataclass(frozen=True, slots=True)
class ReceiveVerdict:
    decision: Decision
    nack: Optional[NackPacket] = None
    congestion: Optional[CongestionSignal] = None


# the verdicts that carry no packet are shared, not built per report
_PROCESS = ReceiveVerdict(Decision.PROCESS)
_DUPLICATE = ReceiveVerdict(Decision.DUPLICATE)


class TranslatorFlowState:
    """Per-translator loss detection, metering, and deferral state."""

    def __init__(self, meter: Optional[TokenBucket] = None):
        self.meter = meter or TokenBucket(rate=float("inf"), burst=float("inf"))
        self.last_applied: dict[int, int] = {}
        self.deferred: deque = deque()  # (packet, verb_cost) awaiting meter headroom
        self.nacks_sent = 0
        self.duplicates_suppressed = 0
        self.dropped_low_priority = 0
        self.diverted = 0
        self.skipped_unrecoverable = 0
        self._nacked_this_step: set[tuple[int, int]] = set()

    def begin_step(self) -> None:
        """Re-arm NACK generation; one NACK per (reporter, gap) per step."""
        self._nacked_this_step.clear()

    def expected_seq(self, reporter_id: int) -> int:
        return (self.last_applied.get(reporter_id, 0) + 1) & _SEQ_MASK

    def _nack(self, reporter_id: int) -> ReceiveVerdict:
        """NACK verdict, dampened so one gap NACKs at most once per step.

        A suppressed repeat still aborts the packet's processing; ``nack`` is
        None then and nothing goes on the wire.
        """
        expected = self.expected_seq(reporter_id)
        key = (reporter_id, expected)
        if key in self._nacked_this_step:
            return ReceiveVerdict(Decision.NACK)
        self._nacked_this_step.add(key)
        self.nacks_sent += 1
        return ReceiveVerdict(Decision.NACK, nack=NackPacket(reporter_id, expected))

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

    def receive(self, packet: DtaPacket, verb_cost: int) -> ReceiveVerdict:
        """Decide one report's fate; PROCESS and DIVERT advance the sequence.

        Diverted reports sit in translator memory and are applied later in
        order, so accepting them into the deferred queue is as good as
        applying them for loss-detection purposes.
        """
        if packet.essential:
            seq = packet.essential_seq
            last = self.last_applied.get(packet.reporter_id, 0)
            if seq != (last + 1) & _SEQ_MASK:
                # serial distance from the expected sequence: the upper half
                # of the 32-bit space is behind it, the lower half ahead
                if (seq - last - 1) & _SEQ_MASK >= _SEQ_HALF:
                    self.duplicates_suppressed += 1
                    return _DUPLICATE
                return self._nack(packet.reporter_id)
        elif 0 < ((packet.essential_seq - self.last_applied.get(packet.reporter_id, 0))
                  & _SEQ_MASK) < _SEQ_HALF:
            # non-essential report reveals a gap in the essential substream
            return self._nack(packet.reporter_id)

        # while anything is deferred, later reports must queue behind it so
        # essential application order is preserved
        if self.deferred or not self.meter.try_consume(verb_cost):
            signal = CongestionSignal(packet.reporter_id)
            if packet.essential:
                self.last_applied[packet.reporter_id] = packet.essential_seq
                self.deferred.append((packet, verb_cost))
                self.diverted += 1
                return ReceiveVerdict(Decision.DIVERT, congestion=signal)
            self.dropped_low_priority += 1
            return ReceiveVerdict(Decision.DROP_LOW_PRIORITY, congestion=signal)

        if packet.essential:
            self.last_applied[packet.reporter_id] = packet.essential_seq
        return _PROCESS

    def drain_deferred(self) -> list[DtaPacket]:
        """Re-inject deferred reports that now fit under the meter, in order."""
        out = []
        while self.deferred and self.meter.try_consume(self.deferred[0][1]):
            out.append(self.deferred.popleft()[0])
        return out
