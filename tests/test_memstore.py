from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dta import memstore
from dta.memstore import (
    PSN_MOD,
    FetchAdd,
    MemoryRegion,
    OutOfBoundsError,
    QpState,
    QueuePair,
    VerbResult,
    Write,
    apply_verb,
    reset_qp,
)

_U64_MOD = 1 << 64


def reference_apply_verb(region, qp, psn, verb):
    """apply_verb as written before its checks were inlined: validate, then sequence, then apply."""
    reference_validate(region, verb)
    if qp.state is QpState.DESYNCED:
        return VerbResult(accepted=False)
    if psn % PSN_MOD != qp.expected_psn:
        qp.state = QpState.DESYNCED
        return VerbResult(accepted=False)
    qp.expected_psn = (qp.expected_psn + 1) % PSN_MOD

    buf = region._buf
    if isinstance(verb, Write):
        buf[verb.address:verb.address + len(verb.payload)] = verb.payload
        return VerbResult(accepted=True)
    old = int.from_bytes(buf[verb.address:verb.address + 8], "little")
    new = (old + verb.addend) % _U64_MOD
    buf[verb.address:verb.address + 8] = new.to_bytes(8, "little")
    return VerbResult(accepted=True, old_value=old)


def reference_validate(region, verb):
    if isinstance(verb, Write):
        if len(verb.payload) < 1:
            raise ValueError("Write payload must be at least one octet")
        region._check_span(verb.address, len(verb.payload))
    elif isinstance(verb, FetchAdd):
        if verb.address % 8 != 0:
            raise OutOfBoundsError(f"FetchAdd address {verb.address} is not 8-octet aligned")
        if not 0 <= verb.addend < _U64_MOD:
            raise ValueError(f"FetchAdd addend must be unsigned 64-bit, got {verb.addend}")
        region._check_span(verb.address, 8)
    else:
        raise TypeError(f"unknown verb {verb!r}")


def fresh(size=64):
    return MemoryRegion(size), QueuePair()


def test_first_write_ack():
    region, qp = fresh()
    res = apply_verb(region, qp, 0, Write(0, b"\xab"))
    assert res.accepted
    assert region.read(0, 1) == b"\xab"
    assert qp.expected_psn == 1


def test_fetch_add_returns_old_value():
    region, qp = fresh()
    assert apply_verb(region, qp, 0, FetchAdd(8, 5)).old_value == 0
    assert apply_verb(region, qp, 1, FetchAdd(8, 5)).old_value == 5
    assert int.from_bytes(region.read(8, 8), "little") == 10


def test_psn_gap_desyncs_and_rejects_until_reset():
    region, qp = fresh()
    apply_verb(region, qp, 0, Write(0, b"\x01"))
    res = apply_verb(region, qp, 2, Write(1, b"\x02"))
    assert not res.accepted
    assert qp.state is QpState.DESYNCED
    # same verb again: still rejected while desynced
    assert not apply_verb(region, qp, 2, Write(1, b"\x02")).accepted
    assert region.read(1, 1) == b"\x00"
    reset_qp(qp, 2)
    assert apply_verb(region, qp, 2, Write(1, b"\x02")).accepted
    assert region.read(1, 1) == b"\x02"


def test_reset_on_open_qp_moves_expected():
    _, qp = fresh()
    reset_qp(qp, 7)
    assert qp.state is QpState.OPEN
    assert qp.expected_psn == 7


def test_reset_after_accepted_writes_accepts_new_sequence():
    region, qp = fresh()
    for psn in range(3):
        assert apply_verb(region, qp, psn, Write(psn, b"\x11")).accepted
    reset_qp(qp, 100)
    assert apply_verb(region, qp, 100, Write(3, b"\x22")).accepted


def test_psn_wraps_mod_2_24():
    region, qp = fresh()
    reset_qp(qp, (1 << 24) - 1)
    assert apply_verb(region, qp, (1 << 24) - 1, Write(0, b"\x01")).accepted
    assert qp.expected_psn == 0
    assert apply_verb(region, qp, 0, Write(0, b"\x02")).accepted


@given(st.lists(st.binary(min_size=1, max_size=4), min_size=1, max_size=20),
       st.data())
def test_gap_applies_prefix_only(payloads, data):
    """Sequential PSNs apply everything; a gap applies a strict prefix."""
    region = MemoryRegion(len(payloads) * 4)
    qp = QueuePair()
    gap_at = data.draw(st.integers(0, len(payloads) - 1))
    applied = 0
    for i, payload in enumerate(payloads):
        psn = i if i < gap_at else i + 1  # skip one psn from gap_at on
        res = apply_verb(region, qp, psn, Write(i * 4, payload))
        applied += res.accepted
    assert applied == gap_at


@given(st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=30))
def test_fetch_add_linearizable(addends):
    region = MemoryRegion(8)
    qp = QueuePair()
    for i, addend in enumerate(addends):
        apply_verb(region, qp, i, FetchAdd(0, addend))
    total = int.from_bytes(region.read(0, 8), "little")
    assert total == sum(addends) % (1 << 64)


@given(st.dictionaries(st.integers(0, 31), st.integers(0, 255), min_size=1))
def test_read_returns_last_write_per_offset(writes):
    region = MemoryRegion(32)
    qp = QueuePair()
    psn = 0
    for offset, byte in writes.items():
        apply_verb(region, qp, psn, Write(offset, bytes([byte])))
        psn += 1
    for offset, byte in writes.items():
        assert region.read(offset, 1) == bytes([byte])


def test_out_of_bounds_write_raises():
    region, qp = fresh(16)
    with pytest.raises(OutOfBoundsError):
        apply_verb(region, qp, 0, Write(15, b"\x00\x01"))
    # bounds bugs surface even on a desynced qp
    qp.state = QpState.DESYNCED
    with pytest.raises(OutOfBoundsError):
        apply_verb(region, qp, 0, Write(20, b"\x00"))


def test_misaligned_fetch_add_raises():
    region, qp = fresh(16)
    with pytest.raises(OutOfBoundsError):
        apply_verb(region, qp, 0, FetchAdd(4, 1))


def test_empty_write_payload_rejected():
    region, qp = fresh(16)
    with pytest.raises(ValueError):
        apply_verb(region, qp, 0, Write(0, b""))


def test_snapshot_dump_roundtrip(tmp_path):
    region, qp = fresh(16)
    apply_verb(region, qp, 0, Write(3, b"\xde\xad"))
    path = tmp_path / "region.bin"
    region.dump(path)
    assert path.read_bytes() == region.snapshot()


REGION = 40  # not a multiple of 8, so FetchAdd can fall off the end while aligned
_verbs = st.one_of(
    st.builds(Write, st.integers(-3, REGION + 2), st.binary(max_size=6)),
    st.builds(FetchAdd, st.sampled_from([-8, -3, 0, 4, 8, 24, 32, 40]),
              st.one_of(st.integers(0, 300), st.sampled_from([-1, _U64_MOD - 1, _U64_MOD]))),
    st.sampled_from([None, (0, b"\x01")]),  # not a verb
)
# a verb with the PSN offset from the one expected (a gap or a repeat unless 0 or 2**24),
# or a reset to a PSN
_steps = st.lists(st.one_of(
    st.tuples(st.just("verb"), st.sampled_from([0, 0, 0, 1, -1, PSN_MOD]), _verbs),
    st.tuples(st.just("reset"), st.integers(0, PSN_MOD + 3)),
), max_size=30)


def _outcome(apply, region, qp, psn, verb):
    try:
        result = apply(region, qp, psn, verb)
    except Exception as exc:  # the exception is part of the outcome compared
        return type(exc), str(exc)
    return result.accepted, result.old_value


@given(_steps)
def test_apply_verb_matches_the_reference(steps):
    """Inline checks give the reference's exceptions, results, memory and queue-pair state."""
    sides = [(apply_verb, MemoryRegion(REGION), QueuePair()),
             (reference_apply_verb, MemoryRegion(REGION), QueuePair())]
    for op, arg, *verb in steps:
        outcomes = []
        for apply, region, qp in sides:
            if op == "reset":
                reset_qp(qp, arg)
            else:
                outcomes.append(_outcome(apply, region, qp, qp.expected_psn + arg, verb[0]))
        assert outcomes[:1] == outcomes[1:]
        (_, region, qp), (_, ref_region, ref_qp) = sides
        assert region.snapshot() == ref_region.snapshot()
        assert (qp.state, qp.expected_psn) == (ref_qp.state, ref_qp.expected_psn)


def test_shared_results_are_frozen():
    for shared in (memstore._ACCEPTED, memstore._REJECTED):
        with pytest.raises(FrozenInstanceError):
            shared.accepted = not shared.accepted
