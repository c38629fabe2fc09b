from collections import OrderedDict
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dta.flowctl import (
    DEFAULT_BACKLOG_CAPACITY,
    KEEPALIVE_LIST_ID,
    ReporterState,
    TokenBucket,
    TranslatorFlowState,
    is_keepalive,
)
from dta.wire import (
    FLAG_ESSENTIAL,
    AppendBody,
    CongestionSignal,
    DtaPacket,
    KeyWriteBody,
    NackPacket,
    SeqResetPacket,
    decode,
    encode,
    make_flags,
)

ESSENTIAL = make_flags(essential=True)
REPORT = AppendBody(0, b"\x01\x02\x03\x04")


def backlog_seqs(rep):
    """The sequences the backlog's octets carry, in the backlog's order."""
    return [decode(o).essential_seq for o in rep.backlog]


def test_default_backlog_matches_reference_deployment():
    assert DEFAULT_BACKLOG_CAPACITY == 256


def test_essential_sends_stamp_sequentially_and_backlog_grows():
    rep = ReporterState(0)
    for _ in range(3):
        rep.send(REPORT, ESSENTIAL)
    assert rep.essential_seq == 3
    assert backlog_seqs(rep) == [1, 2, 3]


def test_non_essential_carries_count_without_increment():
    rep = ReporterState(0)
    rep.send(REPORT, ESSENTIAL)
    octets = rep.send(AppendBody(0, b"\x00" * 4), make_flags())
    packet = decode(octets)
    assert not packet.flags & FLAG_ESSENTIAL
    assert packet.essential_seq == 1
    assert rep.essential_seq == 1
    assert len(rep.backlog) == 1


def test_backlog_overflow_evicts_oldest():
    rep = ReporterState(0, backlog_capacity=4)
    for _ in range(6):
        rep.send(REPORT, ESSENTIAL)
    assert backlog_seqs(rep) == [3, 4, 5, 6]
    assert rep.evicted_unprotected == 2


def test_a_body_that_does_not_encode_takes_no_sequence():
    rep = ReporterState(0, backlog_capacity=2)
    rep.send(REPORT, ESSENTIAL)
    with pytest.raises(ValueError, match="list_id"):
        rep.send(AppendBody(1 << 32, b""), ESSENTIAL)
    assert rep.essential_seq == 1 and backlog_seqs(rep) == [1]
    rep.send(REPORT, ESSENTIAL)
    assert backlog_seqs(rep) == [1, 2] and rep.evicted_unprotected == 0


def test_in_order_sequence_processes():
    flow = TranslatorFlowState()
    rep = ReporterState(0)
    for _ in range(3):
        packet = decode(rep.send(REPORT, ESSENTIAL))
        assert flow.receive(packet, 1) is True
    assert flow.last_applied[0] == 3
    assert flow.nacks_sent == 0 and flow.controls == []


def test_gap_triggers_nack_and_aborts_processing():
    flow = TranslatorFlowState()
    rep = ReporterState(0)
    first = decode(rep.send(REPORT, ESSENTIAL))
    third_octets = [rep.send(REPORT, ESSENTIAL) for _ in range(2)][1]
    assert flow.receive(first, 1) is True
    assert flow.receive(decode(third_octets), 1) is False
    assert flow.controls == [NackPacket(0, 2)]
    assert flow.last_applied[0] == 1  # seq 3 was not applied


def test_nack_dampened_within_a_step():
    flow = TranslatorFlowState()
    rep = ReporterState(0)
    rep.send(REPORT, ESSENTIAL)  # seq 1 lost
    later = [decode(rep.send(REPORT, ESSENTIAL)) for _ in range(5)]
    assert flow.receive(decode(rep.send(REPORT, ESSENTIAL)), 1) is False  # seq 7: NACK 1
    assert [flow.receive(p, 1) for p in later] == [False] * 5
    assert flow.controls == [NackPacket(0, 1)]  # the gap was already NACKed this step
    assert flow.nacks_sent == 1
    flow.begin_step()
    assert flow.receive(later[0], 1) is False
    assert flow.controls == [NackPacket(0, 1)] * 2  # re-armed next step
    assert flow.nacks_sent == 2


def test_duplicate_retransmissions_suppressed():
    flow = TranslatorFlowState()
    rep = ReporterState(0)
    packet = decode(rep.send(REPORT, ESSENTIAL))
    assert flow.receive(packet, 1) is True
    assert flow.receive(packet, 1) is False
    assert flow.duplicates_suppressed == 1 and flow.controls == []


def test_non_essential_report_reveals_gap():
    flow = TranslatorFlowState()
    rep = ReporterState(0)
    rep.send(REPORT, ESSENTIAL)  # lost
    heartbeat = decode(rep.heartbeat())
    assert is_keepalive(heartbeat.body)
    assert flow.receive(heartbeat, None) is False
    assert flow.controls == [NackPacket(0, 1)]


def test_a_keepalive_behind_a_deferred_report_is_never_metered():
    """A keepalive costs no verbs: it is neither dropped nor a cause for a congestion signal."""
    flow = TranslatorFlowState(TokenBucket(rate=0, burst=1))
    rep = ReporterState(0)
    assert flow.receive(decode(rep.send(REPORT, ESSENTIAL)), 1) is True
    assert flow.receive(decode(rep.send(REPORT, ESSENTIAL)), 1) is False  # diverted
    flow.begin_step()
    flow.controls.clear()
    assert flow.receive(decode(rep.heartbeat()), None) is False
    assert flow.dropped_low_priority == 0 and flow.controls == []
    assert flow.diverted == flow.congestion_signals == 1 and len(flow.deferred) == 1


def test_keepalive_is_exactly_the_reserved_empty_append():
    assert is_keepalive(decode(ReporterState(0).heartbeat()).body)
    assert not is_keepalive(AppendBody(KEEPALIVE_LIST_ID, b"x"))
    assert not is_keepalive(AppendBody(0, b""))
    assert not is_keepalive(KeyWriteBody(2, b"key0", b""))


def test_go_back_n_resends_from_expected():
    rep = ReporterState(0)
    for _ in range(3):
        rep.send(REPORT, ESSENTIAL)
    resends = [decode(o) for o in rep.handle_nack(NackPacket(0, 2))]
    assert [p.essential_seq for p in resends] == [2, 3]
    assert rep.retransmissions == 2


def test_nack_for_evicted_seq_resets_to_oldest_survivor():
    rep = ReporterState(0, backlog_capacity=2)
    for _ in range(5):
        rep.send(REPORT, ESSENTIAL)  # backlog holds 4, 5
    out = [decode(o) for o in rep.handle_nack(NackPacket(0, 2))]
    assert isinstance(out[0], SeqResetPacket)
    assert out[0].new_expected == 4
    assert [p.essential_seq for p in out[1:]] == [4, 5]


def test_translator_skips_after_seq_reset():
    flow = TranslatorFlowState()
    flow.handle_seq_reset(SeqResetPacket(0, 4))
    assert flow.last_applied[0] == 3
    assert flow.skipped_unrecoverable == 3
    rep = ReporterState(0)
    rep.essential_seq = 3
    packet = decode(rep.send(REPORT, ESSENTIAL))  # seq 4
    assert flow.receive(packet, 1) is True


def test_meter_processes_and_diverts_per_budget():
    """Rate 10 verbs/step with cost-2 reports: 5 processed, rest deferred."""
    flow = TranslatorFlowState(TokenBucket(rate=10, burst=10, tokens=10))
    rep = ReporterState(0)
    body = KeyWriteBody(2, b"key0", b"val0")
    applied = [flow.receive(decode(rep.send(body, ESSENTIAL)), 2) for _ in range(25)]
    assert applied == [True] * 5 + [False] * 20
    assert flow.diverted == 20
    assert flow.last_applied[0] == 25  # diverted reports are sequenced
    assert flow.controls == [CongestionSignal(0)]  # one per reporter per step

    drained = 0
    for _ in range(10):  # offered load stops; the queue drains 5 per step
        flow.meter.step()
        batch = flow.drain_deferred()
        assert len(batch) <= 5
        drained += len(batch)
    assert drained == 20
    assert not flow.deferred


def test_full_bucket_admits_a_report_above_its_burst_and_repays_the_debt():
    bucket = TokenBucket(rate=1, burst=2)
    assert bucket.try_consume(5)  # full, so admitted: 3 verbs in debt
    assert bucket.tokens == -3
    admitted = []
    for _ in range(6):
        bucket.step()
        admitted.append(bucket.try_consume(1))
    assert admitted == [False, False, False, True, True, True]
    assert not TokenBucket(rate=1, burst=2, tokens=1).try_consume(5)  # not full


def test_non_essential_dropped_when_saturated():
    flow = TranslatorFlowState(TokenBucket(rate=1, burst=1, tokens=0))
    packet = DtaPacket(AppendBody(0, b"\x00" * 4), 0, 0, make_flags())
    assert flow.receive(packet, 1) is False
    assert flow.dropped_low_priority == 1
    assert flow.controls == [CongestionSignal(0)] and flow.congestion_signals == 1


def test_ordering_preserved_behind_deferred_queue():
    flow = TranslatorFlowState(TokenBucket(rate=2, burst=2, tokens=0))
    rep = ReporterState(0)
    first = decode(rep.send(REPORT, ESSENTIAL))
    second = decode(rep.send(REPORT, ESSENTIAL))
    assert flow.receive(first, 2) is False
    flow.meter.step()  # room for one report now
    # second must still queue behind first, not jump ahead
    assert flow.receive(second, 2) is False
    assert flow.diverted == 2
    assert [p.essential_seq for p, _ in flow.deferred] == [1, 2]


def test_aimd_halves_once_per_step_and_recovers():
    """Two over-budget reports in one step queue one signal; the reporter halves once."""
    flow = TranslatorFlowState(TokenBucket(rate=1, burst=1, tokens=0))
    rep = ReporterState(0, initial_rate=64)
    over_budget = [DtaPacket(REPORT, reporter, 0, make_flags()) for reporter in (0, 0, 1)]
    assert [flow.receive(p, 1) for p in over_budget] == [False] * 3
    assert flow.controls == [CongestionSignal(0), CongestionSignal(1)]
    rep.handle_congestion(flow.controls[0])
    assert rep.rate == 32
    assert rep.emit(0) == []
    assert rep.rate == 33
    flow.controls.clear()
    flow.begin_step()  # re-armed: the same two reports queue another signal
    assert [flow.receive(p, 1) for p in over_budget[:2]] == [False] * 2
    assert flow.controls == [CongestionSignal(0)]
    assert flow.congestion_signals == 3 and flow.dropped_low_priority == 5
    rep.handle_congestion(flow.controls[0])
    assert rep.rate == 16.5


def test_emit_sends_resends_before_new_reports_within_one_budget():
    rep = ReporterState(0, initial_rate=3)
    sent = [rep.send(REPORT, ESSENTIAL) for _ in range(3)]
    rep.pending.extend([REPORT] * 4)
    rep.inbox.append(NackPacket(0, 2))
    out = rep.emit(ESSENTIAL)
    assert out[:2] == sent[1:]  # go-back-N from sequence 2, resends first
    assert [decode(o).essential_seq for o in out] == [2, 3, 4]  # then one new report
    assert len(rep.pending) == 3 and not rep.outbox
    assert rep.retransmissions == 2


def test_emit_carries_unsent_resends_to_the_next_step():
    rep = ReporterState(0, initial_rate=1)
    sent = [rep.send(REPORT, ESSENTIAL) for _ in range(3)]
    rep.pending.append(REPORT)
    rep.inbox.append(NackPacket(0, 1))
    assert rep.emit(ESSENTIAL) == sent[:1]
    assert list(rep.outbox) == sent[1:] and len(rep.pending) == 1


def test_emit_recovers_the_rate_before_a_congestion_signal_halves_it():
    rep = ReporterState(0, initial_rate=8)
    rep.rate = 4
    rep.pending.extend([REPORT] * 10)
    rep.inbox.append(CongestionSignal(0))
    assert len(rep.emit(ESSENTIAL)) == 2  # (4 + 1) / 2 = 2.5 reports
    assert rep.rate == 2.5


def test_emit_reads_the_inbox_once():
    rep = ReporterState(0, initial_rate=8)
    rep.send(REPORT, ESSENTIAL)
    rep.inbox += [NackPacket(0, 1), CongestionSignal(0)]
    assert len(rep.emit(ESSENTIAL)) == 1
    assert rep.inbox == [] and rep.rate == 4
    assert rep.emit(ESSENTIAL) == []  # the NACK is not answered twice
    assert rep.retransmissions == 1 and rep.rate == 5


def test_emit_below_one_report_per_step_sends_nothing():
    rep = ReporterState(0, initial_rate=0.5)
    rep.pending.append(REPORT)
    assert rep.emit(ESSENTIAL) == []
    assert rep.essential_seq == 0 and len(rep.pending) == 1


def test_meter_conservation():
    """Consumed verbs per window never exceed rate*window + burst."""
    bucket = TokenBucket(rate=3, burst=9)
    consumed = 0
    for _ in range(50):
        bucket.step()
        while bucket.try_consume(2):
            consumed += 2
    assert consumed <= 3 * 50 + 9


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate=-1, burst=1)
    with pytest.raises(ValueError):
        TokenBucket(rate=1, burst=0)


def reporter_with_backlog(seqs, capacity=DEFAULT_BACKLOG_CAPACITY):
    """A reporter whose backlog holds essential reports stamped ``seqs``, in that order."""
    rep = ReporterState(0, backlog_capacity=capacity)
    rep.essential_seq = (seqs[0] - 1) & 0xFFFFFFFF
    for _ in seqs:
        rep.send(REPORT, ESSENTIAL)
    assert backlog_seqs(rep) == seqs[-capacity:]
    return rep


def test_go_back_n_across_the_sequence_wrap():
    rep = reporter_with_backlog([2**32 - 1, 0, 1, 2])
    resends = [decode(o) for o in rep.handle_nack(NackPacket(0, 0))]
    assert [p.essential_seq for p in resends] == [0, 1, 2]


@pytest.mark.parametrize("seqs, nacked", [
    ([5, 6, 7, 8], 5),  # the oldest entry: all of it again
    ([5, 6, 7, 8], 8),  # the newest: itself only
    ([2**32 - 2, 2**32 - 1, 0, 1], 2**32 - 1),  # from before the wrap, across it
    ([2**32 - 2, 2**32 - 1, 0, 1], 1),  # the newest, past the wrap
])
def test_nack_resends_from_the_nacked_entry_on(seqs, nacked):
    rep = reporter_with_backlog(seqs)
    resends = [decode(o) for o in rep.handle_nack(NackPacket(0, nacked))]
    assert [p.essential_seq for p in resends] == seqs[seqs.index(nacked):]
    assert rep.retransmissions == len(resends)


@pytest.mark.parametrize("nacked", [9, 10, 2**31 + 5])  # next, ahead, half the space ahead
def test_nack_ahead_of_the_backlog_resends_nothing(nacked):
    rep = reporter_with_backlog([5, 6, 7, 8])
    assert rep.handle_nack(NackPacket(0, nacked)) == []
    assert rep.retransmissions == 0


def test_nack_for_evicted_seq_before_the_wrap_resets_to_oldest_survivor():
    rep = reporter_with_backlog([2**32 - 3, 2**32 - 2, 2**32 - 1, 0, 1], capacity=2)
    out = [decode(o) for o in rep.handle_nack(NackPacket(0, 2**32 - 2))]
    assert out[0] == SeqResetPacket(0, 0)
    assert [p.essential_seq for p in out[1:]] == [0, 1]


def test_translator_follows_the_sequence_across_the_wrap():
    flow = TranslatorFlowState()
    flow.last_applied[0] = 2**32 - 3
    early = ReporterState(0)
    early.essential_seq = 2**32 - 2
    assert flow.receive(decode(early.send(REPORT, ESSENTIAL)), 1) is False  # seq 2**32 - 1
    assert flow.controls == [NackPacket(0, 2**32 - 2)]  # the expected sequence
    flow.controls.clear()
    flow.handle_seq_reset(SeqResetPacket(0, 0))  # skips 2**32 - 2 and 2**32 - 1
    assert flow.skipped_unrecoverable == 2
    assert flow.last_applied[0] == 2**32 - 1
    rep = ReporterState(0)
    rep.essential_seq = 2**32 - 1
    first = decode(rep.send(REPORT, ESSENTIAL))  # seq 0
    assert flow.receive(first, 1) is True
    assert flow.receive(first, 1) is False
    assert flow.duplicates_suppressed == 1
    flow.handle_seq_reset(SeqResetPacket(0, 2**32 - 5))  # behind: ignored
    assert flow.last_applied[0] == 0 and flow.skipped_unrecoverable == 2
    rep.send(REPORT, ESSENTIAL)  # seq 1, lost
    ahead = decode(rep.send(REPORT, ESSENTIAL))  # seq 2
    assert flow.receive(ahead, 1) is False
    assert flow.controls == [NackPacket(0, 1)]


class OrderedDictBacklog:
    """Reference model: the backlog as an OrderedDict keyed by sequence, evicted by popitem."""

    def __init__(self, capacity, essential_seq):
        self.capacity = capacity
        self.essential_seq = essential_seq
        self.backlog = OrderedDict()  # seq -> octets as sent
        self.evicted_unprotected = 0
        self.retransmissions = 0

    def send(self, body, flags):
        essential = flags & FLAG_ESSENTIAL
        if essential:
            self.essential_seq = (self.essential_seq + 1) & 0xFFFFFFFF
        octets = encode(DtaPacket(body, 0, self.essential_seq, flags))
        if essential:
            if len(self.backlog) >= self.capacity:
                self.backlog.popitem(last=False)
                self.evicted_unprotected += 1
            self.backlog[self.essential_seq] = octets
        return octets

    def handle_nack(self, nack):
        backlog, out = self.backlog, []
        oldest = next(iter(backlog), (self.essential_seq + 1) & 0xFFFFFFFF)
        at = (nack.expected_essential_seq - oldest) & 0xFFFFFFFF
        if at >= len(backlog):
            if at <= 1 << 31:
                return out
            out.append(encode(SeqResetPacket(0, oldest)))
            at = 0
        out += islice(backlog.values(), at, None)
        self.retransmissions += len(backlog) - at
        return out


# a send (essential or not) or a NACK at an offset from the current count:
# behind, inside and ahead of a backlog of up to 8, or anywhere in the space
STEPS = st.lists(st.one_of(
    st.tuples(st.just("send"), st.booleans()),
    st.tuples(st.just("nack"), st.integers(-12, 3) | st.integers(0, 2**32 - 1)),
), max_size=40)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 8), st.just(0) | st.integers(2**32 - 12, 2**32 - 1)
       | st.integers(0, 2**32 - 1), STEPS)
def test_ring_backlog_matches_the_ordered_dict_model(capacity, start, steps):
    rep = ReporterState(0, backlog_capacity=capacity)
    rep.essential_seq = start
    model = OrderedDictBacklog(capacity, start)
    for i, (op, arg) in enumerate(steps):
        if op == "send":
            body, flags = AppendBody(i, b"x"), make_flags(essential=arg)
            assert rep.send(body, flags) == model.send(body, flags)
        else:
            nack = NackPacket(0, (rep.essential_seq + arg) & 0xFFFFFFFF)
            # the same octets: the same sequence reset, if any, then the same resends
            assert rep.handle_nack(nack) == model.handle_nack(nack)
        assert rep.essential_seq == model.essential_seq
        assert list(rep.backlog) == list(model.backlog.values())
        assert rep.retransmissions == model.retransmissions
        assert rep.evicted_unprotected == model.evicted_unprotected
