"""Per-flow aggregation of per-hop postcards into consecutive memory chunks.

Instead of one keyed entry per hop, all of a flow's hop values live in one
B-cell chunk at a hash-derived chunk index, so a full path costs one
contiguous write and one random read.  The translator caches postcards per
flow until the path completes (or the cache row is stolen by another flow,
which flushes the partial chunk early).  Cell i of flow x stores x's hop-i
checksum XOR the value's code; missing hops store the BLANK symbol so every
written chunk covers all B cells.

A chunk read back for flow x is valid when its cells decode to some number
of leading values followed only by BLANKs; with redundancy, the valid chunks
must also agree.  Cells added to pad the chunk to a power-of-two size are
written as zero and ignored by the validity rule.

A flow's hash members come from one ``HashFamily.members`` call on
``PC_FLOW`` with B + N members: the B hop checksums first (the top
``cell_bits`` bits of each), then the N chunk copies (each mod ``chunks``),
8 members per 64-octet digest.  At B = 5, N = 2 that is one digest per write and per
query.  Members are prefix-stable, so a query at any N reads the same first
copies that a write at another N used.

A chunk is packed, and read back, as one little-endian integer whose cell i
sits at bit ``i * cell_width``.  A store's geometry is fixed when it is
built, which also checks that every chunk lies inside the region, so a
query reads its chunks straight from the region's memory.

``EmittedChunk``, built per emitted chunk, is a plain slotted dataclass (a
frozen field costs about 250 ns to set), as wire's reports and memstore's
verbs are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .hashing import BLANK, MAX_REDUNDANCY, Domain, HashFamily, ValueCodec
from .memstore import AMBIGUOUS, EMPTY, MemoryRegion, Outcome, QueryResult, Write


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


@dataclass
class PostcardStore:
    """Geometry and hash configuration of one chunked postcard region.

    ``cell_len``, ``cell_width`` (its bits), ``cell_mask``, ``csum_shift``,
    ``chunk_payload_len`` and ``chunk_stride`` are fixed here, together with
    the check that every chunk lies inside the region.  RDMA payloads are
    padded to a power of two, so chunk addresses are shifts.
    """

    region: MemoryRegion
    chunks: int
    hops: int
    cell_bits: int
    codec: ValueCodec
    family: HashFamily = field(default_factory=HashFamily)
    base: int = 0

    def __post_init__(self):
        if self.chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {self.chunks}")
        if self.hops < 1:
            raise ValueError(f"hops must be >= 1, got {self.hops}")
        if self.codec.bits != self.cell_bits:
            raise ValueError("codec bit width must match cell_bits")
        self.cell_len = (self.cell_bits + 7) // 8
        self.cell_width = 8 * self.cell_len
        self.cell_mask = (1 << self.cell_width) - 1
        self.csum_shift = 64 - self.cell_bits
        self.chunk_payload_len = self.hops * self.cell_len
        self.chunk_stride = _next_pow2(self.chunk_payload_len)
        if self.base < 0 or self.base + self.chunks * self.chunk_stride > self.region.size:
            raise ValueError(
                f"{self.chunks} chunks of {self.chunk_stride}B at base {self.base} "
                f"exceed region of {self.region.size}B"
            )


def _flow_layout(store: PostcardStore, flow_id: int,
                 n_redundancy: int) -> tuple[list[int], list[int]]:
    """A flow's hop checksums and the address of each of its N chunk copies.

    Members 0..B-1 of ``PC_FLOW`` give the checksums, members B..B+N-1 the copies.
    """
    if not 1 <= n_redundancy <= MAX_REDUNDANCY:
        raise ValueError(f"redundancy must be in [1, {MAX_REDUNDANCY}], got {n_redundancy}")
    hops, shift, base, chunks, stride = (store.hops, store.csum_shift, store.base,
                                         store.chunks, store.chunk_stride)
    members = store.family.members(_PC_FLOW, flow_id.to_bytes(8, "big"), hops + n_redundancy)
    checksums, addresses = [], []
    for m in members[:hops]:
        checksums.append(m >> shift)
    for m in members[hops:]:
        addresses.append(base + m % chunks * stride)
    return checksums, addresses


class EmissionReason(Enum):
    COMPLETE = "complete"
    EVICTED = "evicted"


# read per call, so kept out of their enums: an enum member costs a lookup per read
_PC_FLOW, _VALUE = int(Domain.PC_FLOW), Outcome.VALUE
_COMPLETE, _EVICTED = EmissionReason.COMPLETE, EmissionReason.EVICTED


@dataclass(slots=True)
class EmittedChunk:
    """A flow's aggregated postcards, ready for a chunk write.

    ``cells[i]`` is the hop-i value or None for a hop that never reported
    (written as BLANK).  A legitimately emitted chunk always carries at
    least one value.  Built per emitted chunk, so a plain slotted dataclass: a
    frozen field costs about 250 ns to set.
    """

    flow_id: int
    cells: tuple
    reason: EmissionReason


@dataclass
class _CacheRow:
    flow_id: int
    values: list
    filled: int = 0
    path_len: Optional[int] = None


class PostcardCache:
    """Translator cache of ``slots`` rows holding each flow's pending postcards.

    One row per hash bucket, held only while occupied; a colliding flow
    evicts the incumbent, flushing its partial chunk early.
    """

    def __init__(self, slots: int, hops: int, family: HashFamily, universe_size: int):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self.slots = slots
        self.hops = hops
        self.family = family
        self.universe_size = universe_size
        self._rows: dict[int, _CacheRow] = {}  # occupied rows only, by slot
        self.complete_emissions = 0
        self.early_emissions = 0

    def occupancy(self) -> int:
        return len(self._rows)

    def _emit(self, row: _CacheRow, reason: EmissionReason) -> EmittedChunk:
        if reason is _COMPLETE:
            self.complete_emissions += 1
        else:
            self.early_emissions += 1
        return EmittedChunk(row.flow_id, tuple(row.values), reason)

    def flush_all(self) -> list[EmittedChunk]:
        """Drain every pending row in slot order (end of an epoch); all count as early."""
        out = [self._emit(self._rows[i], _EVICTED) for i in sorted(self._rows)]
        self._rows.clear()
        return out


def pc_ingest(cache: PostcardCache, flow_id: int, hop: int, value: int,
              path_len: Optional[int] = None) -> list[EmittedChunk]:
    """Record one postcard; return any chunks this arrival caused to emit.

    Emission happens when the flow's filled count reaches its declared path
    length (or the hop bound), and when a different flow hashes onto an
    occupied cache row, which flushes the incumbent's partial chunk.  A
    single arrival can therefore emit up to two chunks: the evicted
    incumbent and its own now-complete chunk.
    """
    if not 0 <= hop < cache.hops:
        raise ValueError(f"hop {hop} outside [0, {cache.hops})")
    if not 0 <= value < cache.universe_size:
        raise ValueError(f"{value!r} outside [0, {cache.universe_size})")
    if path_len is not None and not 1 <= path_len <= cache.hops:
        raise ValueError(f"path_len must be in [1, {cache.hops}], got {path_len}")

    emitted, rows = [], cache._rows
    idx = cache.family.cache_slot(flow_id.to_bytes(8, "big"), cache.slots)
    row = rows.get(idx)
    if row is not None and row.flow_id != flow_id:
        emitted.append(cache._emit(row, _EVICTED))
        row = None
    if row is None:
        row = _CacheRow(flow_id, [None] * cache.hops)
        rows[idx] = row

    if row.values[hop] is None:
        row.filled += 1
    row.values[hop] = value
    if path_len is not None:
        row.path_len = path_len

    target = row.path_len if row.path_len is not None else cache.hops
    if row.filled >= target:
        emitted.append(cache._emit(row, _COMPLETE))
        del rows[idx]
    return emitted


def pc_write(store: PostcardStore, chunk: EmittedChunk, n_redundancy: int) -> list[Write]:
    """Translate an emitted chunk into its N contiguous chunk writes."""
    if len(chunk.cells) != store.hops:
        raise ValueError(f"chunk must carry exactly {store.hops} cells")
    checksums, addresses = _flow_layout(store, chunk.flow_id, n_redundancy)
    codec, width = store.codec, store.cell_width
    # ValueCodec.encode's rule and table, read here: a method call per cell costs more
    codes, blank, universe = codec._codes, codec._blank_code, codec.universe_size
    word = at = 0
    for checksum, value in zip(checksums, chunk.cells):
        if isinstance(value, int) and 0 <= value < universe:
            code = codes[value]
        elif value is None or value is BLANK:
            code = blank
        else:
            raise ValueError(f"{value!r} not in [0, {universe}) or BLANK")
        word |= (checksum ^ code) << at
        at += width
    payload = word.to_bytes(store.chunk_stride, "little")  # zero-pads the chunk
    writes = []
    for at in addresses:
        writes.append(Write(at, payload))
    return writes


def _decode_chunk(store: PostcardStore, checksums: list, word: int) -> Optional[tuple]:
    """Value prefix of a chunk read as one integer; None unless every cell decodes under
    the flow's hop ``checksums`` and the values are followed only by BLANKs."""
    decode, width, mask = store.codec.decode, store.cell_width, store.cell_mask
    values = []
    for checksum in checksums:
        sym = decode(word & mask ^ checksum)
        if sym is None:
            return None
        word >>= width
        if sym is BLANK:
            break
        values.append(sym)
    else:
        return tuple(values)
    for checksum in checksums[len(values) + 1:]:
        if decode(word & mask ^ checksum) is not BLANK:
            return None
        word >>= width
    return tuple(values)


def pc_query(store: PostcardStore, flow_id: int, n_redundancy: int) -> QueryResult:
    """Read the flow's N chunks and report the path they agree on, as the value."""
    checksums, addresses = _flow_layout(store, flow_id, n_redundancy)
    buf, payload_len = store.region._buf, store.chunk_payload_len
    # intact copies hold the same octets, so each distinct chunk is decoded once
    words = set()
    for at in addresses:
        words.add(int.from_bytes(buf[at:at + payload_len], "little"))
    paths = set()
    for word in words:
        decoded = _decode_chunk(store, checksums, word)
        if decoded is not None:
            paths.add(decoded)
    if not paths:
        return EMPTY
    if len(paths) > 1:
        return AMBIGUOUS
    return QueryResult(_VALUE, paths.pop())
