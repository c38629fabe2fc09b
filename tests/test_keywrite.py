import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dta.counters import COUNTER_LEN, KiStore, ki_increment, ki_query
from dta.experiments import kw_measure_ages, kw_write_stream, stream_key, stream_value
from dta.hashing import Domain, HashFamily
from dta.keywrite import (
    MAX_REDUNDANCY,
    KwStore,
    QueryPolicy,
    kw_query,
    kw_write,
)
from dta.memstore import (
    FetchAdd,
    MemoryRegion,
    Outcome,
    QueryResult,
    QueuePair,
    Write,
    apply_verb,
)
from test_hashing import key_checksum


def make_store(buflen=64, bits=32, value_len=4, seed=1):
    region = MemoryRegion(buflen * ((bits + 7) // 8 + value_len))
    return KwStore(region, buflen, bits, value_len, family=HashFamily(seed))


def run_writes(store, verbs, qp=None, psn=0):
    qp = qp or QueuePair()
    for verb in verbs:
        apply_verb(store.region, qp, psn, verb)
        psn += 1
    return psn


# ---------------------------------------------------------------------------
# Reference: Key-Write and Key-Increment as first written, one helper call per
# slot, with the geometry worked out from the store's fields on every call.


def ref_slot(family, n, key, buflen):
    """Slot of redundancy copy ``n`` of ``key``: family member (KW_SLOT, n) mod buflen."""
    if buflen < 1:
        raise ValueError(f"buflen must be >= 1, got {buflen}")
    if n < 0:
        raise ValueError(f"redundancy index must be >= 0, got {n}")
    return family.raw64(Domain.KW_SLOT, n, key) % buflen


def ref_csum_len(store):
    return (store.checksum_bits + 7) // 8


def ref_slot_address(store, slot):
    return store.base + slot * (ref_csum_len(store) + store.value_len)


def ref_read_slot(store, slot):
    """(checksum, value) of a Key-Write slot, read through the region's bounds check."""
    raw = store.region.read(ref_slot_address(store, slot), ref_csum_len(store) + store.value_len)
    return int.from_bytes(raw[:ref_csum_len(store)], "little"), raw[ref_csum_len(store):]


def ref_kw_write(store, key, data, n_redundancy):
    if not 1 <= n_redundancy <= MAX_REDUNDANCY:
        raise ValueError(f"redundancy must be in [1, {MAX_REDUNDANCY}], got {n_redundancy}")
    if len(data) != store.value_len:
        raise ValueError(f"expected {store.value_len}B value, got {len(data)}B")
    csum = key_checksum(store.family, key, store.checksum_bits)
    payload = csum.to_bytes(ref_csum_len(store), "little") + data
    return [Write(ref_slot_address(store, ref_slot(store.family, n, key, store.buflen)), payload)
            for n in range(n_redundancy)]


def ref_kw_query(store, key, n_redundancy, threshold=1, policy=QueryPolicy.PLURALITY):
    if not 1 <= n_redundancy <= MAX_REDUNDANCY:
        raise ValueError(f"redundancy must be in [1, {MAX_REDUNDANCY}], got {n_redundancy}")
    want = key_checksum(store.family, key, store.checksum_bits)
    counts = {}
    for n in range(n_redundancy):
        csum, value = ref_read_slot(store, ref_slot(store.family, n, key, store.buflen))
        if csum == want:
            counts[value] = counts.get(value, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if not ranked:
        return QueryResult(Outcome.EMPTY)
    if policy is QueryPolicy.SINGLE_VALUE:
        if len(ranked) == 1:
            return QueryResult(Outcome.VALUE, ranked[0][0])
        return QueryResult(Outcome.AMBIGUOUS)
    top_value, top_count = ranked[0]
    tied = len(ranked) > 1 and ranked[1][1] == top_count
    if tied or top_count < threshold:
        return QueryResult(Outcome.AMBIGUOUS)
    return QueryResult(Outcome.VALUE, top_value)


def ref_ki_increment(store, key, delta, n_redundancy):
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if not 1 <= n_redundancy <= 4:
        raise ValueError(f"redundancy must be in [1, 4], got {n_redundancy}")
    return [FetchAdd(store.base + ref_slot(store.family, n, key, store.buflen) * COUNTER_LEN,
                     delta)
            for n in range(n_redundancy)]


def ref_ki_query(store, key, n_redundancy):
    if not 1 <= n_redundancy <= 4:
        raise ValueError(f"redundancy must be in [1, 4], got {n_redundancy}")
    return min(
        int.from_bytes(store.region.read(
            store.base + ref_slot(store.family, n, key, store.buflen) * COUNTER_LEN,
            COUNTER_LEN), "little")
        for n in range(n_redundancy))


# ---------------------------------------------------------------------------
# Differential: the store's Key-Write and Key-Increment against the reference


def kw_against_reference(rng, checksum_bits, value_len, buflen, base, seed, ops=60):
    """Random writes, clobbers and queries on one store; asserts every answer.

    Keys come from a small pool so that keys repeat, share slots and (at few
    checksum bits) share checksums.  A clobber writes one slot with the
    checksum of a pooled key and a value of its own, so that two matching
    copies can disagree.  Returns ``(policy, outcome, plurality outcome at
    threshold 1)`` for every query.
    """
    csum_len = (checksum_bits + 7) // 8
    slot_len = csum_len + value_len
    region = MemoryRegion(base + buflen * slot_len + rng.randrange(3))
    store = KwStore(region, buflen, checksum_bits, value_len, family=HashFamily(seed), base=base)
    keys = [rng.randbytes(rng.randrange(1, 9)) for _ in range(8)]
    values = [rng.randbytes(value_len) for _ in range(3)]
    qp, psn, results = QueuePair(), 0, []
    for _ in range(ops):
        op, key = rng.random(), rng.choice(keys)
        if op < 0.4:
            n, data = rng.randint(1, MAX_REDUNDANCY), rng.choice(values)
            verbs = kw_write(store, key, data, n)
            assert verbs == ref_kw_write(store, key, data, n)
        elif op < 0.55:
            csum = key_checksum(store.family, key, checksum_bits)
            payload = csum.to_bytes(csum_len, "little") + rng.choice(values)
            verbs = [Write(base + rng.randrange(buflen) * slot_len, payload)]
        else:
            n, threshold = rng.randint(1, MAX_REDUNDANCY), rng.randint(1, 3)
            policy = rng.choice(list(QueryPolicy))
            got = kw_query(store, key, n, threshold, policy)
            assert got == ref_kw_query(store, key, n, threshold, policy)
            assert got.value is None or type(got.value) is bytes
            results.append((policy, got.outcome, ref_kw_query(store, key, n).outcome))
            continue
        for verb in verbs:
            assert apply_verb(region, qp, psn, verb)
            psn += 1
    return results


@settings(max_examples=120, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([1, 12, 32, 33, 64]),
       st.integers(1, 5), st.integers(1, 24), st.integers(0, 40), st.integers(0, (1 << 64) - 1))
def test_kw_matches_reference(rng, checksum_bits, value_len, buflen, base, seed):
    kw_against_reference(rng, checksum_bits, value_len, buflen, base, seed)


def test_kw_reference_run_meets_every_outcome():
    """The differential run reaches empty, single, tied and below-threshold answers."""
    rng = random.Random(13)
    results = []
    for bits in (1, 12, 32, 33, 64):
        for _ in range(6):
            results += kw_against_reference(rng, bits, 2, 6, 5, rng.getrandbits(64), ops=200)
    plurality, single = QueryPolicy.PLURALITY, QueryPolicy.SINGLE_VALUE
    value, empty, ambiguous = Outcome.VALUE, Outcome.EMPTY, Outcome.AMBIGUOUS
    cases = {
        "empty": [r for r in results if r[1] is empty],
        "value": [r for r in results if r[1] is value],
        "tie": [r for r in results if r[0] is plurality and r[2] is ambiguous],
        "below threshold": [r for r in results
                            if r[0] is plurality and r[1] is ambiguous and r[2] is value],
        "several values": [r for r in results if r[0] is single and r[1] is ambiguous],
    }
    assert {name: len(found) >= 10 for name, found in cases.items()} == dict.fromkeys(cases, True)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 24), st.integers(0, 5),
       st.integers(0, (1 << 64) - 1))
def test_ki_matches_reference(rng, buflen, base_words, seed):
    base = base_words * COUNTER_LEN
    region = MemoryRegion(base + buflen * COUNTER_LEN + rng.randrange(3) * COUNTER_LEN)
    store = KiStore(region, buflen, family=HashFamily(seed), base=base)
    keys = [rng.randbytes(rng.randrange(1, 9)) for _ in range(8)]
    qp, psn = QueuePair(), 0
    for _ in range(60):
        key, n = rng.choice(keys), rng.randint(1, 4)
        if rng.random() < 0.5:
            delta = rng.choice([0, 1, rng.getrandbits(64)])
            verbs = ki_increment(store, key, delta, n)
            assert verbs == ref_ki_increment(store, key, delta, n)
            for verb in verbs:
                assert apply_verb(region, qp, psn, verb)
                psn += 1
        else:
            assert ki_query(store, key, n) == ref_ki_query(store, key, n)


def test_buflen_one_collapses_to_slot_zero():
    store = make_store(buflen=1)
    verbs = kw_write(store, b"key", b"\x01\x02\x03\x04", 2)
    assert len(verbs) == 2
    assert all(v.address == store.base for v in verbs)
    run_writes(store, verbs)
    csum, value = ref_read_slot(store, 0)
    assert csum == key_checksum(store.family, b"key", 32)
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
        slot = ref_slot(store.family, 0, key, store.buflen)
        csum = key_checksum(store.family, key, store.checksum_bits)
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
    assert res.outcome is Outcome.VALUE
    assert res.value == b"data"


def test_query_survives_one_overwrite():
    store = make_store(buflen=256)
    run_writes(store, kw_write(store, b"key", b"data", 2))
    # clobber exactly one of the two slots with a non-colliding checksum
    slot = ref_slot(store.family, 0, b"key", store.buflen)
    bad_csum = key_checksum(store.family, b"key", 32) ^ 1
    clobber = bad_csum.to_bytes(4, "little") + b"junk"
    qp = QueuePair()
    apply_verb(store.region, qp, 0, Write(ref_slot_address(store, slot), clobber))
    res = kw_query(store, b"key", 2)
    assert res.outcome is Outcome.VALUE
    assert res.value == b"data"


def test_query_empty_on_fresh_store_unless_zero_checksum():
    store = make_store()
    keys = [stream_key(3, i) for i in range(50)]
    outcomes = {kw_query(store, k, 2).outcome for k in keys}
    assert outcomes == {Outcome.EMPTY}


def test_plurality_tie_is_ambiguous():
    store = make_store(buflen=4096, seed=5)
    # craft two slots for the same key holding the right checksum but
    # different values: write key, then overwrite slot 1 in place
    run_writes(store, kw_write(store, b"key", b"aaaa", 2))
    slot1 = ref_slot(store.family, 1, b"key", store.buflen)
    csum = key_checksum(store.family, b"key", 32)
    qp = QueuePair()
    apply_verb(store.region, qp, 0,
               Write(ref_slot_address(store, slot1), csum.to_bytes(4, "little") + b"bbbb"))
    res = kw_query(store, b"key", 2)
    assert res.outcome is Outcome.AMBIGUOUS
    # the single-value policy also refuses: two distinct matching values
    res = kw_query(store, b"key", 2, policy=QueryPolicy.SINGLE_VALUE)
    assert res.outcome is Outcome.AMBIGUOUS


def test_consensus_threshold():
    store = make_store()
    run_writes(store, kw_write(store, b"key", b"data", 2))
    assert kw_query(store, b"key", 2, threshold=2).outcome is Outcome.VALUE
    run_writes(store, kw_write(store, b"solo", b"data", 1))
    # only one copy exists; demanding two matches makes it ambiguous
    res = kw_query(store, b"solo", 1, threshold=2)
    assert res.outcome is Outcome.AMBIGUOUS


def test_query_with_assumed_maximum_redundancy():
    store = make_store(buflen=1024)
    run_writes(store, kw_write(store, b"key", b"data", 1))
    res = kw_query(store, b"key", 4)  # reader assumes the maximum
    assert res.outcome is Outcome.VALUE
    assert res.value == b"data"


@pytest.mark.parametrize("n", range(1, MAX_REDUNDANCY + 1))
def test_write_and_query_hash_once_per_checksum_and_copy(monkeypatch, n):
    """A write and a query each take 1 + N ``raw64`` members: the key checksum, then one
    slot per copy.  Per-call hash counts in traced benchmark runs rest on this."""
    calls = []
    raw64 = HashFamily.raw64

    def counted(self, domain, index, data):
        calls.append((domain, index))
        return raw64(self, domain, index, data)

    monkeypatch.setattr(HashFamily, "raw64", counted)
    store = make_store(buflen=256)
    members = [(Domain.KW_CSUM, 0)] + [(Domain.KW_SLOT, i) for i in range(n)]
    kw_write(store, b"key", b"data", n)
    assert calls == members
    calls.clear()
    for policy in QueryPolicy:
        kw_query(store, b"key", n, policy=policy)
        assert calls == members
        calls.clear()


def test_value_length_enforced():
    store = make_store(value_len=4)
    with pytest.raises(ValueError, match="expected 4B value, got 16B"):
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
