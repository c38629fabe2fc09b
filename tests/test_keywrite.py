import pytest

from dta.experiments import kw_measure_ages, kw_write_stream, stream_key, stream_value
from dta.hashing import HashFamily
from dta.keywrite import (
    BadValueLength,
    KwStore,
    QueryOutcome,
    QueryPolicy,
    kw_query,
    kw_write,
)
from dta.memstore import MemoryRegion, QueuePair, Write, apply_verb


def make_store(buflen=64, bits=32, value_len=4, seed=1):
    region = MemoryRegion(buflen * ((bits + 7) // 8 + value_len))
    return KwStore(region, buflen, bits, value_len, family=HashFamily(seed))


def run_writes(store, verbs, qp=None, psn=0):
    qp = qp or QueuePair()
    for verb in verbs:
        apply_verb(store.region, qp, psn, verb)
        psn += 1
    return psn


def test_buflen_one_collapses_to_slot_zero():
    store = make_store(buflen=1)
    verbs = kw_write(store, b"key", b"\x01\x02\x03\x04", 2)
    assert len(verbs) == 2
    assert all(v.address == store.slot_address(0) for v in verbs)
    run_writes(store, verbs)
    csum, value = store.read_slot(0)
    assert csum == store.family.key_checksum(b"key", 32)
    assert value == b"\x01\x02\x03\x04"


def test_redundant_copies_are_identical():
    store = make_store(buflen=512)
    verbs = kw_write(store, b"key", b"dat1", 2)
    run_writes(store, verbs)
    slots = {v.address for v in verbs}
    assert len(slots) == 2  # distinct at this size for this key/seed
    payloads = {store.region.read(a, store.slot_len) for a in slots}
    assert len(payloads) == 1


def test_write_log_replay_oracle():
    """Region must equal a from-scratch recomputation of every slot."""
    store = make_store(buflen=4, value_len=4)
    log = [(b"alpha", b"AAAA"), (b"beta", b"BBBB"), (b"gamma", b"CCCC")]
    for key, data in log:
        run_writes(store, kw_write(store, key, data, 1))

    expected = bytearray(store.region.size)
    for key, data in log:  # last write to each slot wins
        slot = store.family.slot_hash(0, key, store.buflen)
        csum = store.family.key_checksum(key, store.checksum_bits)
        start = slot * store.slot_len
        expected[start:start + store.slot_len] = csum.to_bytes(4, "little") + data
    assert store.region.snapshot() == bytes(expected)


def test_identical_log_gives_identical_region():
    snaps = []
    for _ in range(2):
        store = make_store(buflen=128)
        for i in range(50):
            run_writes(store, kw_write(store, stream_key(9, i), i.to_bytes(4, "big"), 2))
        snaps.append(store.region.snapshot())
    assert snaps[0] == snaps[1]


def test_query_right_after_write():
    store = make_store()
    run_writes(store, kw_write(store, b"key", b"data", 2))
    res = kw_query(store, b"key", 2)
    assert res.outcome is QueryOutcome.VALUE
    assert res.value == b"data"


def test_query_survives_one_overwrite():
    store = make_store(buflen=256)
    run_writes(store, kw_write(store, b"key", b"data", 2))
    # clobber exactly one of the two slots with a non-colliding checksum
    slot = store.family.slot_hash(0, b"key", store.buflen)
    bad_csum = store.family.key_checksum(b"key", 32) ^ 1
    clobber = bad_csum.to_bytes(4, "little") + b"junk"
    qp = QueuePair()
    apply_verb(store.region, qp, 0, Write(store.slot_address(slot), clobber))
    res = kw_query(store, b"key", 2)
    assert res.outcome is QueryOutcome.VALUE
    assert res.value == b"data"


def test_query_empty_on_fresh_store_unless_zero_checksum():
    store = make_store()
    keys = [stream_key(3, i) for i in range(50)]
    outcomes = {kw_query(store, k, 2).outcome for k in keys}
    assert outcomes == {QueryOutcome.EMPTY}


def test_plurality_tie_is_ambiguous():
    store = make_store(buflen=4096, seed=5)
    # craft two slots for the same key holding the right checksum but
    # different values: write key, then overwrite slot 1 in place
    run_writes(store, kw_write(store, b"key", b"aaaa", 2))
    slot1 = store.family.slot_hash(1, b"key", store.buflen)
    csum = store.family.key_checksum(b"key", 32)
    qp = QueuePair()
    apply_verb(store.region, qp, 0,
               Write(store.slot_address(slot1), csum.to_bytes(4, "little") + b"bbbb"))
    res = kw_query(store, b"key", 2)
    assert res.outcome is QueryOutcome.AMBIGUOUS
    assert dict(res.candidates) == {b"aaaa": 1, b"bbbb": 1}
    # the single-value policy also refuses: two distinct matching values
    res = kw_query(store, b"key", 2, policy=QueryPolicy.SINGLE_VALUE)
    assert res.outcome is QueryOutcome.AMBIGUOUS


def test_consensus_threshold():
    store = make_store()
    run_writes(store, kw_write(store, b"key", b"data", 2))
    assert kw_query(store, b"key", 2, threshold=2).outcome is QueryOutcome.VALUE
    run_writes(store, kw_write(store, b"solo", b"data", 1))
    # only one copy exists; demanding two matches makes it ambiguous
    res = kw_query(store, b"solo", 1, threshold=2)
    assert res.outcome is QueryOutcome.AMBIGUOUS


def test_query_with_assumed_maximum_redundancy():
    store = make_store(buflen=1024)
    run_writes(store, kw_write(store, b"key", b"data", 1))
    res = kw_query(store, b"key", 4)  # reader assumes the maximum
    assert res.outcome is QueryOutcome.VALUE
    assert res.value == b"data"


def test_value_length_enforced():
    store = make_store(value_len=4)
    with pytest.raises(BadValueLength):
        kw_write(store, b"key", b"longer than four", 1)


def test_redundancy_range_enforced():
    store = make_store()
    with pytest.raises(ValueError):
        kw_write(store, b"key", b"data", 0)
    with pytest.raises(ValueError):
        kw_write(store, b"key", b"data", 5)


def test_geometry_must_fit_region():
    region = MemoryRegion(64)
    with pytest.raises(ValueError):
        KwStore(region, buflen=16, checksum_bits=32, value_len=4)


def test_age_sweep_fresh_keys_always_hit():
    store = make_store(buflen=4096)
    kw_write_stream(store, 2, n_keys=300, seed=3)
    buckets = kw_measure_ages(store, 2, n_keys=300, ages=[0], window=10, seed=3)
    assert buckets[0].success_rate == 1.0


def test_age_sweep_success_non_increasing():
    store = make_store(buflen=2048)
    n_keys = 6144  # alpha up to 3 across the age range
    kw_write_stream(store, 2, n_keys, seed=11)
    buckets = kw_measure_ages(store, 2, n_keys, ages=[0, 2048, 4096], window=2048, seed=11)
    rates = [b.success_rate for b in buckets]
    assert rates[0] > rates[1] > rates[2]


def test_age_sweep_validates_inputs():
    store = make_store()
    with pytest.raises(ValueError):
        kw_measure_ages(store, 2, n_keys=10, ages=[10])
    with pytest.raises(ValueError):
        kw_measure_ages(store, 2, n_keys=10, ages=[0], window=0)


def test_stream_helpers_deterministic():
    assert stream_key(1, 2) == stream_key(1, 2)
    assert stream_value(b"k", 8) == stream_value(b"k", 8)
    assert stream_key(1, 2) != stream_key(1, 3)
