import random

import pytest

from dta.hashing import BLANK, HashFamily, ValueCodec, ValueOutsideUniverse
from dta.memstore import MemoryRegion, QueuePair, apply_verb
from dta.postcarding import (
    EmissionReason,
    EmittedChunk,
    HopOutOfRange,
    PathOutcome,
    PostcardCache,
    PostcardStore,
    pc_ingest,
    pc_query,
    pc_write,
)

B = 5
SEED = 0xDA


def make_store(chunks=256, bits=32, value_bits=10, seed=SEED):
    family = HashFamily(seed)
    codec = ValueCodec(family, 2 ** value_bits, bits)
    stride = 32  # 5 cells of 4B padded to the next power of two
    region = MemoryRegion(chunks * stride)
    return PostcardStore(region, chunks, B, bits, codec, family=family)


def run_writes(store, verbs):
    qp = QueuePair()
    for psn, verb in enumerate(verbs):
        apply_verb(store.region, qp, psn, verb)


def test_complete_path_emits_once_no_blanks():
    cache = PostcardCache(slots=16, hops=B)
    emitted = []
    for hop in range(B):
        emitted += pc_ingest(cache, 42, hop, value=hop + 1)
    assert len(emitted) == 1
    chunk = emitted[0]
    assert chunk.reason is EmissionReason.COMPLETE
    assert chunk.cells == (1, 2, 3, 4, 5)
    assert cache.occupancy() == 0


def test_short_path_emits_at_declared_length():
    cache = PostcardCache(slots=16, hops=B)
    assert pc_ingest(cache, 7, 0, 11, path_len=2) == []
    emitted = pc_ingest(cache, 7, 1, 22, path_len=2)
    assert len(emitted) == 1
    assert emitted[0].cells == (11, 22, None, None, None)


def test_collision_evicts_partial_chunk():
    cache = PostcardCache(slots=1, hops=B)
    assert pc_ingest(cache, 1, 0, 10) == []
    emitted = pc_ingest(cache, 2, 0, 20)
    assert len(emitted) == 1
    assert emitted[0].flow_id == 1
    assert emitted[0].reason is EmissionReason.EVICTED
    assert emitted[0].cells == (10, None, None, None, None)


def test_eviction_plus_completion_in_one_arrival():
    cache = PostcardCache(slots=1, hops=B)
    pc_ingest(cache, 1, 0, 10)
    emitted = pc_ingest(cache, 2, 0, 20, path_len=1)
    assert [c.flow_id for c in emitted] == [1, 2]
    assert emitted[1].reason is EmissionReason.COMPLETE


def test_ingest_validation():
    cache = PostcardCache(slots=4, hops=B, universe_size=16)
    with pytest.raises(HopOutOfRange):
        pc_ingest(cache, 1, B, 0)
    with pytest.raises(ValueOutsideUniverse):
        pc_ingest(cache, 1, 0, 16)


def test_write_then_query_roundtrip():
    store = make_store()
    chunk = EmittedChunk(99, (3, 1, 4, None, None), EmissionReason.EVICTED)
    verbs = pc_write(store, chunk, 2)
    assert len(verbs) == 2
    assert all(len(v.payload) == store.chunk_stride for v in verbs)
    run_writes(store, verbs)
    res = pc_query(store, 99, 2)
    assert res.outcome is PathOutcome.PATH
    assert res.values == (3, 1, 4)


def test_chunk_cells_are_consecutive_in_memory():
    store = make_store(chunks=8)
    chunk = EmittedChunk(5, (1, 2, 3, 4, 5), EmissionReason.COMPLETE)
    verbs = pc_write(store, chunk, 1)
    run_writes(store, verbs)
    fkey = (5).to_bytes(8, "big")
    index = store.family.chunk_hash(0, fkey, store.chunks)
    base = store.chunk_address(index)
    raw = store.region.read(base, store.chunk_payload_len)
    for i in range(B):
        cell = int.from_bytes(raw[4 * i:4 * i + 4], "little")
        csum = store.family.hop_checksum(fkey, i, 32)
        assert store.codec.decode(cell ^ csum) == i + 1
    # padding bytes written as zero
    assert store.region.read(base + store.chunk_payload_len,
                             store.chunk_stride - store.chunk_payload_len) == bytes(12)


def test_region_matches_cell_by_cell_oracle():
    """100 random flows, N=1: region equals independent recomputation."""
    store = make_store(chunks=4096)
    rng = random.Random(1)
    flows = {}
    for _ in range(100):
        flow = rng.randrange(1 << 32)
        values = tuple(rng.randrange(2 ** 10) for _ in range(B))
        flows[flow] = values
        run_writes(store, pc_write(
            store, EmittedChunk(flow, values, EmissionReason.COMPLETE), 1))

    expected = bytearray(store.region.size)
    for flow, values in flows.items():  # dict order == write order
        fkey = flow.to_bytes(8, "big")
        base = store.chunk_address(store.family.chunk_hash(0, fkey, store.chunks))
        for i, v in enumerate(values):
            word = store.family.hop_checksum(fkey, i, 32) ^ store.codec.encode(v)
            expected[base + 4 * i:base + 4 * i + 4] = word.to_bytes(4, "little")
        expected[base + 20:base + 32] = bytes(12)
    assert store.region.snapshot() == bytes(expected)


def test_missing_middle_hop_is_invalid():
    store = make_store()
    chunk = EmittedChunk(7, (1, None, 3, None, None), EmissionReason.EVICTED)
    run_writes(store, pc_write(store, chunk, 2))
    assert pc_query(store, 7, 2).outcome is PathOutcome.EMPTY


def test_untouched_store_yields_empty():
    store = make_store(chunks=64)
    outcomes = {pc_query(store, flow, 2).outcome for flow in range(5000)}
    assert outcomes == {PathOutcome.EMPTY}


def test_disagreeing_valid_chunks_are_ambiguous():
    store = make_store(chunks=512)
    fkey = (123).to_bytes(8, "big")
    c0 = store.family.chunk_hash(0, fkey, store.chunks)
    c1 = store.family.chunk_hash(1, fkey, store.chunks)
    assert c0 != c1
    # write the flow at both locations, then rewrite one location with
    # different values using a single-copy write crafted at that index
    run_writes(store, pc_write(
        store, EmittedChunk(123, (1, 2, None, None, None), EmissionReason.EVICTED), 2))
    forged = pc_write(store, EmittedChunk(123, (8, 9, None, None, None),
                                          EmissionReason.EVICTED), 1)
    run_writes(store, forged)
    res = pc_query(store, 123, 2)
    assert res.outcome is PathOutcome.AMBIGUOUS


def test_xor_involution_every_hop_value():
    store = make_store()
    for hop in range(B):
        for v in (0, 1, 2 ** 10 - 1):
            cells = [None] * B
            for i in range(hop + 1):
                cells[i] = v
            chunk = EmittedChunk(hop * 1000 + v, tuple(cells), EmissionReason.EVICTED)
            run_writes(store, pc_write(store, chunk, 1))
            res = pc_query(store, hop * 1000 + v, 1)
            assert res.outcome is PathOutcome.PATH
            assert res.values == tuple([v] * (hop + 1))


def test_overwritten_chunks_rarely_decode():
    """At 32-bit cells an unrelated flow's chunk almost never looks valid."""
    store = make_store(chunks=1)  # every flow shares one chunk
    run_writes(store, pc_write(
        store, EmittedChunk(1, (5, 6, 7, 8, 9), EmissionReason.COMPLETE), 1))
    hits = sum(
        pc_query(store, flow, 1).outcome is not PathOutcome.EMPTY
        for flow in range(2, 3000)
    )
    assert hits == 0


def test_cache_pressure_monotone_in_flow_count():
    from dta.experiments import pc_cache_pressure

    early = [
        pc_cache_pressure(cache_slots=128, concurrent_flows=f, hops=B, rounds=4, seed=2)[1]
        for f in (8, 64, 512)
    ]
    assert early[0] < early[1] < early[2]
