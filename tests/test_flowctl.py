import pytest

from dta.flowctl import (
    DEFAULT_BACKLOG_CAPACITY,
    KEEPALIVE_BODY,
    Decision,
    ReporterState,
    TokenBucket,
    TranslatorFlowState,
)
from dta.wire import (
    AppendBody,
    CongestionSignal,
    DtaPacket,
    KeyWriteBody,
    NackPacket,
    SeqResetPacket,
    decode,
    make_flags,
)

ESSENTIAL = make_flags(essential=True)


def essential_packet(body=None, reporter=0):
    return DtaPacket(body or AppendBody(0, b"\x01\x02\x03\x04"), reporter, 0, ESSENTIAL)


def test_default_backlog_matches_reference_deployment():
    assert DEFAULT_BACKLOG_CAPACITY == 256


def test_essential_sends_stamp_sequentially_and_backlog_grows():
    rep = ReporterState(0)
    for _ in range(3):
        rep.send(essential_packet())
    assert rep.essential_seq == 3
    assert sorted(rep.backlog) == [1, 2, 3]


def test_non_essential_carries_count_without_increment():
    rep = ReporterState(0)
    rep.send(essential_packet())
    octets = rep.send(DtaPacket(AppendBody(0, b"\x00" * 4), 0, 0, make_flags()))
    packet = decode(octets)
    assert not packet.essential
    assert packet.essential_seq == 1
    assert rep.essential_seq == 1
    assert len(rep.backlog) == 1


def test_backlog_overflow_evicts_oldest():
    rep = ReporterState(0, backlog_capacity=4)
    for _ in range(6):
        rep.send(essential_packet())
    assert sorted(rep.backlog) == [3, 4, 5, 6]
    assert rep.evicted_unprotected == 2


def test_in_order_sequence_processes():
    flow = TranslatorFlowState()
    rep = ReporterState(0)
    for _ in range(3):
        packet = decode(rep.send(essential_packet()))
        assert flow.receive(packet, 1).decision is Decision.PROCESS
    assert flow.last_applied[0] == 3
    assert flow.nacks_sent == 0


def test_gap_triggers_nack_and_aborts_processing():
    flow = TranslatorFlowState()
    rep = ReporterState(0)
    first = decode(rep.send(essential_packet()))
    third_octets = [rep.send(essential_packet()) for _ in range(2)][1]
    assert flow.receive(first, 1).decision is Decision.PROCESS
    verdict = flow.receive(decode(third_octets), 1)
    assert verdict.decision is Decision.NACK
    assert verdict.nack == NackPacket(0, 2)
    assert flow.last_applied[0] == 1  # seq 3 was not applied


def test_nack_dampened_within_a_step():
    flow = TranslatorFlowState()
    rep = ReporterState(0)
    rep.send(essential_packet())  # seq 1 lost
    later = [decode(rep.send(essential_packet())) for _ in range(5)]
    flow.receive(decode(rep.send(essential_packet())), 1)  # establish gap? no: seq 7 > 1
    nacks = [flow.receive(p, 1) for p in later]
    with_wire = [v for v in nacks if v.nack is not None]
    assert all(v.decision is Decision.NACK for v in nacks)
    assert len(with_wire) == 0  # first arrival already nacked this step
    flow.begin_step()
    verdict = flow.receive(later[0], 1)
    assert verdict.nack is not None  # re-armed next step


def test_duplicate_retransmissions_suppressed():
    flow = TranslatorFlowState()
    rep = ReporterState(0)
    packet = decode(rep.send(essential_packet()))
    assert flow.receive(packet, 1).decision is Decision.PROCESS
    assert flow.receive(packet, 1).decision is Decision.DUPLICATE
    assert flow.duplicates_suppressed == 1


def test_non_essential_report_reveals_gap():
    flow = TranslatorFlowState()
    rep = ReporterState(0)
    rep.send(essential_packet())  # lost
    heartbeat = decode(rep.heartbeat())
    assert heartbeat.body == KEEPALIVE_BODY
    verdict = flow.receive(heartbeat, 0)
    assert verdict.decision is Decision.NACK
    assert verdict.nack == NackPacket(0, 1)


def test_go_back_n_resends_from_expected():
    rep = ReporterState(0)
    for _ in range(3):
        rep.send(essential_packet())
    resends = [decode(o) for o in rep.handle_nack(NackPacket(0, 2))]
    assert [p.essential_seq for p in resends] == [2, 3]
    assert rep.retransmissions == 2


def test_nack_for_evicted_seq_resets_to_oldest_survivor():
    rep = ReporterState(0, backlog_capacity=2)
    for _ in range(5):
        rep.send(essential_packet())  # backlog holds 4, 5
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
    packet = decode(rep.send(essential_packet()))  # seq 4
    assert flow.receive(packet, 1).decision is Decision.PROCESS


def test_meter_processes_and_diverts_per_budget():
    """Rate 10 verbs/step with cost-2 reports: 5 processed, rest deferred."""
    flow = TranslatorFlowState(TokenBucket(rate=10, burst=10, tokens=10))
    rep = ReporterState(0)
    body = KeyWriteBody(2, b"key0", b"val0")
    decisions = []
    for _ in range(25):
        packet = decode(rep.send(DtaPacket(body, 0, 0, ESSENTIAL)))
        decisions.append(flow.receive(packet, 2).decision)
    assert decisions.count(Decision.PROCESS) == 5
    assert decisions.count(Decision.DIVERT) == 20
    assert flow.last_applied[0] == 25  # diverted reports are sequenced

    drained = 0
    for _ in range(10):  # offered load stops; the queue drains 5 per step
        flow.meter.step()
        batch = flow.drain_deferred()
        assert len(batch) <= 5
        drained += len(batch)
    assert drained == 20
    assert not flow.deferred


def test_non_essential_dropped_when_saturated():
    flow = TranslatorFlowState(TokenBucket(rate=1, burst=1, tokens=0))
    packet = DtaPacket(AppendBody(0, b"\x00" * 4), 0, 0, make_flags())
    verdict = flow.receive(packet, 1)
    assert verdict.decision is Decision.DROP_LOW_PRIORITY
    assert verdict.congestion == CongestionSignal(0)


def test_ordering_preserved_behind_deferred_queue():
    flow = TranslatorFlowState(TokenBucket(rate=2, burst=2, tokens=0))
    rep = ReporterState(0)
    first = decode(rep.send(essential_packet()))
    second = decode(rep.send(essential_packet()))
    assert flow.receive(first, 2).decision is Decision.DIVERT
    flow.meter.step()  # room for one report now
    # second must still queue behind first, not jump ahead
    assert flow.receive(second, 2).decision is Decision.DIVERT
    assert [p.essential_seq for p, _ in flow.deferred] == [1, 2]


def test_aimd_halves_once_per_step_and_recovers():
    rep = ReporterState(0, initial_rate=64)
    rep.handle_congestion(CongestionSignal(0))
    rep.handle_congestion(CongestionSignal(0))
    assert rep.rate == 32
    rep.step()
    assert rep.rate == 33
    rep.handle_congestion(CongestionSignal(0))
    assert rep.rate == 16.5


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
        rep.send(essential_packet())
    assert list(rep.backlog) == seqs[-capacity:]
    return rep


def test_go_back_n_across_the_sequence_wrap():
    rep = reporter_with_backlog([2**32 - 1, 0, 1, 2])
    resends = [decode(o) for o in rep.handle_nack(NackPacket(0, 0))]
    assert [p.essential_seq for p in resends] == [0, 1, 2]


def test_nack_for_evicted_seq_before_the_wrap_resets_to_oldest_survivor():
    rep = reporter_with_backlog([2**32 - 3, 2**32 - 2, 2**32 - 1, 0, 1], capacity=2)
    out = [decode(o) for o in rep.handle_nack(NackPacket(0, 2**32 - 2))]
    assert out[0] == SeqResetPacket(0, 0)
    assert [p.essential_seq for p in out[1:]] == [0, 1]


def test_translator_follows_the_sequence_across_the_wrap():
    flow = TranslatorFlowState()
    flow.last_applied[0] = 2**32 - 3
    assert flow.expected_seq(0) == 2**32 - 2
    flow.handle_seq_reset(SeqResetPacket(0, 0))  # skips 2**32 - 2 and 2**32 - 1
    assert flow.skipped_unrecoverable == 2
    assert flow.last_applied[0] == 2**32 - 1
    assert flow.expected_seq(0) == 0
    rep = ReporterState(0)
    rep.essential_seq = 2**32 - 1
    first = decode(rep.send(essential_packet()))  # seq 0
    assert flow.receive(first, 1).decision is Decision.PROCESS
    assert flow.receive(first, 1).decision is Decision.DUPLICATE
    flow.handle_seq_reset(SeqResetPacket(0, 2**32 - 5))  # behind: ignored
    assert flow.last_applied[0] == 0 and flow.skipped_unrecoverable == 2
    rep.send(essential_packet())  # seq 1, lost
    ahead = decode(rep.send(essential_packet()))  # seq 2
    verdict = flow.receive(ahead, 1)
    assert verdict.decision is Decision.NACK
    assert verdict.nack == NackPacket(0, 1)
