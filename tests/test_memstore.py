import pytest
from hypothesis import given
from hypothesis import strategies as st

from dta.memstore import (
    FetchAdd,
    MemoryRegion,
    OutOfBoundsError,
    QpState,
    QueuePair,
    Write,
    apply_verb,
    reset_qp,
)


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
