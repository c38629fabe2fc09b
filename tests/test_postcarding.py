import random
import re
import struct
from collections import Counter
from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dta import postcarding
from dta.hashing import BLANK, Domain, HashFamily, ValueCodec
from dta.memstore import MemoryRegion, Outcome, QueryResult, QueuePair, Write, apply_verb
from dta.postcarding import (
    EmissionReason,
    EmittedChunk,
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


# ---------------------------------------------------------------------------
# Reference: Postcarding written out, one fresh digest per hop checksum, chunk
# index and value code (each flow member from the written-out members formula),
# and one slice and int per cell read through the region's bounds check.


def ref_flow_member(family, fkey, i):
    """Member ``i`` of a flow: word i % 8 of the 64-octet BLAKE2b digest of the flow key,
    keyed by (seed, PC_FLOW, i // 8)."""
    key = struct.pack("<QQQ", family.seed_base, Domain.PC_FLOW, i // 8)
    return struct.unpack(">8Q", blake2b(fkey, digest_size=64, key=key).digest())[i % 8]


def ref_hop_checksum(family, fkey, hop, bits):
    """Hop ``hop``'s checksum of a flow: member ``hop``, top ``bits`` bits."""
    return ref_flow_member(family, fkey, hop) >> (64 - bits)


def ref_chunk_hash(store, n, fkey):
    """Chunk index of redundancy copy ``n``: member ``hops + n`` mod ``chunks``."""
    return ref_flow_member(store.family, fkey, store.hops + n) % store.chunks


def ref_chunk_address(store, chunk):
    return store.base + chunk * store.chunk_stride


def ref_encode(codec, v):
    """The code of ``v``, hashed afresh: member (PC_VALUE, 0) of a tagged input."""
    if v is not BLANK and not (isinstance(v, int) and 0 <= v < codec.universe_size):
        raise ValueError(f"{v!r} not in [0, {codec.universe_size}) or BLANK")
    data = b"\x00" if v is BLANK else b"\x01" + struct.pack("<Q", v)
    return codec.family.raw64(Domain.PC_VALUE, 0, data) >> (64 - codec.bits)


def ref_pc_write(store, chunk, n_redundancy):
    if not 1 <= n_redundancy <= 4:
        raise ValueError(f"redundancy must be in [1, 4], got {n_redundancy}")
    if len(chunk.cells) != store.hops:
        raise ValueError(f"chunk must carry exactly {store.hops} cells")
    fkey = chunk.flow_id.to_bytes(8, "big")
    cells = bytearray()
    for i, value in enumerate(chunk.cells):
        sym = BLANK if value is None else value
        word = ref_hop_checksum(store.family, fkey, i, store.cell_bits) ^ ref_encode(store.codec, sym)
        cells += word.to_bytes(store.cell_len, "little")
    payload = bytes(cells).ljust(store.chunk_stride, b"\x00")
    return [Write(ref_chunk_address(store, ref_chunk_hash(store, j, fkey)), payload)
            for j in range(n_redundancy)]


def ref_cells(store, checksums, chunk_index):
    """Each cell of a chunk decoded under the flow's hop checksums (None: no value)."""
    raw = store.region.read(ref_chunk_address(store, chunk_index), store.chunk_payload_len)
    n = store.cell_len
    return [store.codec.decode(int.from_bytes(raw[i * n:(i + 1) * n], "little") ^ checksum)
            for i, checksum in enumerate(checksums)]


def ref_decode_chunk(store, checksums, chunk_index):
    syms = ref_cells(store, checksums, chunk_index)
    if any(sym is None for sym in syms):
        return None
    length = store.hops
    for i, sym in enumerate(syms):
        if sym is BLANK:
            length = i
            break
    if any(s is not BLANK for s in syms[length:]):
        return None
    return tuple(syms[:length])


def ref_checksums(store, fkey):
    return [ref_hop_checksum(store.family, fkey, i, store.cell_bits) for i in range(store.hops)]


def ref_pc_query(store, flow_id, n_redundancy):
    if not 1 <= n_redundancy <= 4:
        raise ValueError(f"redundancy must be in [1, 4], got {n_redundancy}")
    fkey = flow_id.to_bytes(8, "big")
    checksums = ref_checksums(store, fkey)
    paths = set()
    for j in range(n_redundancy):
        decoded = ref_decode_chunk(store, checksums, ref_chunk_hash(store, j, fkey))
        if decoded is not None:
            paths.add(decoded)
    if not paths:
        return QueryResult(Outcome.EMPTY)
    if len(paths) > 1:
        return QueryResult(Outcome.AMBIGUOUS)
    return QueryResult(Outcome.VALUE, paths.pop())


def test_complete_path_emits_once_no_blanks():
    cache = PostcardCache(slots=16, hops=B, family=HashFamily(SEED), universe_size=2 ** 10)
    emitted = []
    for hop in range(B):
        emitted += pc_ingest(cache, 42, hop, value=hop + 1)
    assert len(emitted) == 1
    chunk = emitted[0]
    assert chunk.reason is EmissionReason.COMPLETE
    assert chunk.cells == (1, 2, 3, 4, 5)
    assert cache.occupancy() == 0


def test_short_path_emits_at_declared_length():
    cache = PostcardCache(slots=16, hops=B, family=HashFamily(SEED), universe_size=2 ** 10)
    assert pc_ingest(cache, 7, 0, 11, path_len=2) == []
    emitted = pc_ingest(cache, 7, 1, 22, path_len=2)
    assert len(emitted) == 1
    assert emitted[0].cells == (11, 22, None, None, None)


def test_collision_evicts_partial_chunk():
    cache = PostcardCache(slots=1, hops=B, family=HashFamily(SEED), universe_size=2 ** 10)
    assert pc_ingest(cache, 1, 0, 10) == []
    emitted = pc_ingest(cache, 2, 0, 20)
    assert len(emitted) == 1
    assert emitted[0].flow_id == 1
    assert emitted[0].reason is EmissionReason.EVICTED
    assert emitted[0].cells == (10, None, None, None, None)


def test_eviction_plus_completion_in_one_arrival():
    cache = PostcardCache(slots=1, hops=B, family=HashFamily(SEED), universe_size=2 ** 10)
    pc_ingest(cache, 1, 0, 10)
    emitted = pc_ingest(cache, 2, 0, 20, path_len=1)
    assert [c.flow_id for c in emitted] == [1, 2]
    assert emitted[1].reason is EmissionReason.COMPLETE


def test_flush_all_drains_pending_rows_in_slot_order():
    family = HashFamily(SEED)
    cache = PostcardCache(slots=64, hops=B, family=family, universe_size=2 ** 10)
    held = {}  # slot -> the last flow to arrive there, which evicted any before it
    for flow in range(40):
        pc_ingest(cache, flow, 0, flow)
        held[family.cache_slot(flow.to_bytes(8, "big"), 64)] = flow
    assert cache.occupancy() == len(held) < 40
    flushed = cache.flush_all()
    assert [c.flow_id for c in flushed] == [held[slot] for slot in sorted(held)]
    assert all(c.reason is EmissionReason.EVICTED for c in flushed)
    assert cache.occupancy() == 0 and cache.flush_all() == []
    assert cache.early_emissions == 40


def test_ingest_validation():
    cache = PostcardCache(slots=4, hops=B, family=HashFamily(SEED), universe_size=16)
    with pytest.raises(ValueError, match=r"hop 5 outside \[0, 5\)"):
        pc_ingest(cache, 1, B, 0)
    with pytest.raises(ValueError, match=r"16 outside \[0, 16\)"):
        pc_ingest(cache, 1, 0, 16)


def test_write_then_query_roundtrip():
    store = make_store()
    chunk = EmittedChunk(99, (3, 1, 4, None, None), EmissionReason.EVICTED)
    verbs = pc_write(store, chunk, 2)
    assert len(verbs) == 2
    assert all(len(v.payload) == store.chunk_stride for v in verbs)
    run_writes(store, verbs)
    res = pc_query(store, 99, 2)
    assert res.outcome is Outcome.VALUE
    assert res.value == (3, 1, 4)


def test_write_refuses_a_bad_cell_before_building_a_verb(monkeypatch):
    """``pc_write`` applies ``ValueCodec.encode``'s rule to each cell: an int in
    [0, universe) or None (BLANK, also accepted as itself); anything else is refused
    before a verb exists."""
    store = make_store()
    built = []
    monkeypatch.setattr(postcarding, "Write", lambda *args: built.append(args))
    for bad in (-1, 2 ** 10, 1.0, "3"):
        chunk = EmittedChunk(99, (3, bad, None, None, None), EmissionReason.COMPLETE)
        with pytest.raises(ValueError, match=rf"^{re.escape(repr(bad))} not in \[0, 1024\) or BLANK$"):
            pc_write(store, chunk, 2)
    assert built == []
    monkeypatch.undo()
    blank = EmittedChunk(99, (3, 1, BLANK, None, None), EmissionReason.COMPLETE)
    assert pc_write(store, blank, 2) == ref_pc_write(store, blank, 2)


def test_query_reads_across_redundancies():
    """Members are prefix-stable: a chunk written at N = 2 reads back at N = 1 and N = 4."""
    store = make_store(chunks=4096)
    chunk = EmittedChunk(77, (6, 5, 4, None, None), EmissionReason.COMPLETE)
    two = pc_write(store, chunk, 2)
    run_writes(store, two)
    for n in (1, 4):
        assert pc_query(store, 77, n) == QueryResult(Outcome.VALUE, (6, 5, 4))
    assert [w.address for w in pc_write(store, chunk, 1)] == [two[0].address]


def test_chunk_cells_are_consecutive_in_memory():
    store = make_store(chunks=8)
    chunk = EmittedChunk(5, (1, 2, 3, 4, 5), EmissionReason.COMPLETE)
    verbs = pc_write(store, chunk, 1)
    run_writes(store, verbs)
    fkey = (5).to_bytes(8, "big")
    index = ref_chunk_hash(store, 0, fkey)
    base = ref_chunk_address(store, index)
    raw = store.region.read(base, store.chunk_payload_len)
    for i in range(B):
        cell = int.from_bytes(raw[4 * i:4 * i + 4], "little")
        csum = ref_hop_checksum(store.family, fkey, i, 32)
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
        base = ref_chunk_address(store, ref_chunk_hash(store, 0, fkey))
        for i, v in enumerate(values):
            word = ref_hop_checksum(store.family, fkey, i, 32) ^ ref_encode(store.codec, v)
            expected[base + 4 * i:base + 4 * i + 4] = word.to_bytes(4, "little")
        expected[base + 20:base + 32] = bytes(12)
    assert store.region.snapshot() == bytes(expected)


def test_missing_middle_hop_is_invalid():
    store = make_store()
    chunk = EmittedChunk(7, (1, None, 3, None, None), EmissionReason.EVICTED)
    run_writes(store, pc_write(store, chunk, 2))
    assert pc_query(store, 7, 2).outcome is Outcome.EMPTY


def test_untouched_store_yields_empty():
    store = make_store(chunks=64)
    outcomes = {pc_query(store, flow, 2).outcome for flow in range(5000)}
    assert outcomes == {Outcome.EMPTY}


def test_disagreeing_valid_chunks_are_ambiguous():
    store = make_store(chunks=512)
    fkey = (123).to_bytes(8, "big")
    c0 = ref_chunk_hash(store, 0, fkey)
    c1 = ref_chunk_hash(store, 1, fkey)
    assert c0 != c1
    # write the flow at both locations, then rewrite one location with
    # different values using a single-copy write crafted at that index
    run_writes(store, pc_write(
        store, EmittedChunk(123, (1, 2, None, None, None), EmissionReason.EVICTED), 2))
    forged = pc_write(store, EmittedChunk(123, (8, 9, None, None, None),
                                          EmissionReason.EVICTED), 1)
    run_writes(store, forged)
    res = pc_query(store, 123, 2)
    assert res.outcome is Outcome.AMBIGUOUS


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
            assert res.outcome is Outcome.VALUE
            assert res.value == tuple([v] * (hop + 1))


def test_overwritten_chunks_rarely_decode():
    """At 32-bit cells an unrelated flow's chunk almost never looks valid."""
    store = make_store(chunks=1)  # every flow shares one chunk
    run_writes(store, pc_write(
        store, EmittedChunk(1, (5, 6, 7, 8, 9), EmissionReason.COMPLETE), 1))
    hits = sum(
        pc_query(store, flow, 1).outcome is not Outcome.EMPTY
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


# ---------------------------------------------------------------------------
# Differential: the store's Postcarding against the reference


def pc_against_reference(rng, cell_bits, hops, value_bits, chunks, base, seed, ops=40):
    """Random writes, clobbers and queries on one store; asserts every verb and answer.

    Flows come from a small pool so that they share chunks and overwrite one
    another; a write carries a path or leaves any cell None, and may use
    fewer copies than a later query reads; a clobber writes random octets over
    part of the region or flips one bit of one of a flow's chunks.  Returns a
    ``Counter`` of the query outcomes met, plus ``"invalid prefix"`` for every
    chunk read whose cells all decode but have a value after a BLANK.
    """
    family = HashFamily(seed)
    codec = ValueCodec(family, 2 ** value_bits, cell_bits)
    stride = 1 << ((cell_bits + 7) // 8 * hops - 1).bit_length()
    region = MemoryRegion(base + chunks * stride + rng.randrange(3))
    store = PostcardStore(region, chunks, hops, cell_bits, codec, family=family, base=base)
    flows = [rng.getrandbits(64) for _ in range(4)]
    qp, psn, met = QueuePair(), 0, Counter()
    for _ in range(ops):
        op, flow, n = rng.random(), rng.choice(flows), rng.randint(1, 4)
        if op < 0.45:
            length = rng.randint(0, hops)  # a path of this length, or None cells anywhere
            cells = tuple(rng.randrange(2 ** value_bits)
                          if (i < length if op < 0.3 else rng.random() < 0.7) else None
                          for i in range(hops))
            chunk = EmittedChunk(flow, cells, EmissionReason.COMPLETE)
            verbs = pc_write(store, chunk, n)
            assert verbs == ref_pc_write(store, chunk, n)
        elif op < 0.52:
            at = rng.randrange(region.size)
            verbs = [Write(at, rng.randbytes(rng.randint(1, min(stride, region.size - at))))]
        elif op < 0.6:  # flip one bit of one of the flow's chunks
            chunk_index = ref_chunk_hash(store, n - 1, flow.to_bytes(8, "big"))
            at = ref_chunk_address(store, chunk_index) + rng.randrange(stride)
            verbs = [Write(at, bytes([region.read(at, 1)[0] ^ 1 << rng.randrange(8)]))]
        else:
            got = pc_query(store, flow, n)
            assert got == ref_pc_query(store, flow, n)
            met[got.outcome] += 1
            fkey = flow.to_bytes(8, "big")
            checksums = ref_checksums(store, fkey)
            for j in range(n):
                index = ref_chunk_hash(store, j, fkey)
                if (None not in ref_cells(store, checksums, index)
                        and ref_decode_chunk(store, checksums, index) is None):
                    met["invalid prefix"] += 1
            continue
        for verb in verbs:
            assert apply_verb(region, qp, psn, verb)
            psn += 1
    return met


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([1, 6, 8, 12, 24, 33, 64]),
       st.integers(1, 8), st.integers(0, 6), st.integers(1, 8), st.integers(1, 40),
       st.integers(0, (1 << 64) - 1))
def test_pc_matches_reference(rng, cell_bits, hops, value_bits, chunks, base, seed):
    pc_against_reference(rng, cell_bits, hops, value_bits, chunks, base, seed)


def test_pc_reference_run_meets_every_outcome():
    """The differential run reaches path, empty and ambiguous answers and invalid prefixes."""
    rng = random.Random(14)
    met = Counter()
    for bits in (1, 6, 8, 12, 24, 33, 64):
        for hops in (1, 3, 5, 8):
            met += pc_against_reference(rng, bits, hops, rng.randint(0, 6), rng.randint(4, 8),
                                        rng.randint(1, 40), rng.getrandbits(64), ops=60)
    cases = (Outcome.VALUE, Outcome.EMPTY, Outcome.AMBIGUOUS, "invalid prefix")
    assert {case: met[case] >= 10 for case in cases} == dict.fromkeys(cases, True)


def test_encode_is_the_keyed_hash_of_every_value():
    """At 8 bits a 2^12 universe collides, and each code is still the value's own hash."""
    seed = 0x5EED
    codec = ValueCodec(HashFamily(seed), 2 ** 12, 8)
    key = struct.pack("<QQQ", seed, Domain.PC_VALUE, 0)

    def keyed(data):
        return int.from_bytes(blake2b(data, digest_size=8, key=key).digest(), "big") >> 56

    assert codec.collisions > 0
    assert [codec.encode(v) for v in range(2 ** 12)] == [
        keyed(b"\x01" + struct.pack("<Q", v)) for v in range(2 ** 12)]
    assert codec.encode(BLANK) == keyed(b"\x00")
    for bad in (-1, 2 ** 12, 1.0, None):
        with pytest.raises(ValueError, match=rf"{bad!r} not in \[0, 4096\) or BLANK"):
            codec.encode(bad)


def test_negative_base_is_refused():
    family = HashFamily(SEED)
    codec = ValueCodec(family, 16, 32)
    with pytest.raises(ValueError):
        PostcardStore(MemoryRegion(1024), 4, B, 32, codec, family=family, base=-1)
