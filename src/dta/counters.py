"""Keyed counters via fetch-add, and column-wise merging of per-switch sketches.

Key-Increment treats an array of 64-bit counters like a count-min structure:
an increment lands on N hash-derived slots via Fetch-and-Add, and a query
takes the minimum of the same slots, which can overestimate (hash
collisions) but never underestimate.

Sketch-Merge aggregates per-reporter sketch columns at the translator,
because the network-wide merge operators (element-wise sum or max) are
richer than what one-sided verbs offer.  Columns from each reporter must
arrive in order; an out-of-order column is refused with the expected index
so the reporter can resend.  A column is complete once every reporter has
merged it, and completed columns ship to collector memory contiguously in
batches.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .hashing import Domain, HashFamily
from .memstore import FetchAdd, MemoryRegion, Write

COUNTER_LEN = 8
_U64LE = struct.Struct("<Q")
# Key-Increment hashes its slots with the Key-Write slot member; a plain int
# because an enum member costs a lookup per call
_KI_SLOT = int(Domain.KW_SLOT)
_U64_MOD = 1 << 64


@dataclass
class KiStore:
    """Geometry and hash configuration of one keyed-counter region."""

    region: MemoryRegion
    buflen: int
    family: HashFamily = field(default_factory=HashFamily)
    base: int = 0

    def __post_init__(self):
        if self.buflen < 1:
            raise ValueError(f"buflen must be >= 1, got {self.buflen}")
        if self.base < 0 or self.base % 8 != 0:
            raise ValueError(f"base must be >= 0 and 8-octet aligned, got {self.base}")
        if self.base + self.buflen * COUNTER_LEN > self.region.size:
            raise ValueError(
                f"{self.buflen} counters at base {self.base} exceed region "
                f"of {self.region.size}B"
            )


def ki_increment(store: KiStore, key: bytes, delta: int, n_redundancy: int) -> list[FetchAdd]:
    """Expand one counter report into N fetch-add verbs, copy n at ``raw64(KW_SLOT, n, key)``."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if not 1 <= n_redundancy <= 4:
        raise ValueError(f"redundancy must be in [1, 4], got {n_redundancy}")
    family, base, buflen = store.family, store.base, store.buflen
    return [FetchAdd(base + family.raw64(_KI_SLOT, n, key) % buflen * COUNTER_LEN, delta)
            for n in range(n_redundancy)]


def ki_query(store: KiStore, key: bytes, n_redundancy: int) -> int:
    """Minimum over the key's N counter slots; never below the true total.

    The store checked at construction that every counter lies inside the
    region, so each is read straight from the region's memory.
    """
    if not 1 <= n_redundancy <= 4:
        raise ValueError(f"redundancy must be in [1, 4], got {n_redundancy}")
    family, base, buflen, buf = store.family, store.base, store.buflen, store.region._buf
    read = _U64LE.unpack_from
    return min(read(buf, base + family.raw64(_KI_SLOT, n, key) % buflen * COUNTER_LEN)[0]
               for n in range(n_redundancy))


class MergeOp(Enum):
    SUM = "sum"
    MAX = "max"


@dataclass(frozen=True)
class SketchSpec:
    """Shape of the per-switch sketches being merged."""

    rows: int
    cols: int
    merge_op: MergeOp = MergeOp.SUM

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {self.rows}x{self.cols}")


@dataclass(frozen=True)
class Nack:
    expected_index: int


class SketchMergeState:
    """Translator-held network-wide sketch under construction and its merge progress."""

    def __init__(self, spec: SketchSpec, reporters: int):
        if reporters < 1:
            raise ValueError(f"reporters must be >= 1, got {reporters}")
        self.spec = spec
        self.reporters = reporters
        self.last_in_order: dict[int, int] = {}  # reporter -> last merged column
        self.merged_count = [0] * spec.cols
        self.complete = [False] * spec.cols
        # columns[c][r]: merged value of row r in column c
        self.columns = [[0] * spec.rows for _ in range(spec.cols)]
        self.flushed_cols = 0

    def first_incomplete(self) -> int:
        for c in range(self.spec.cols):
            if not self.complete[c]:
                return c
        return self.spec.cols


def sm_ingest_column(state: SketchMergeState, reporter: int, col_index: int,
                     col_values: list[int]) -> Optional[Nack]:
    """Merge one reporter's column if it is the next in order, else refuse.

    Returns None on a merge.  A refused column leaves all state untouched and
    returns a Nack carrying the index the reporter must resend from.
    """
    if len(col_values) != state.spec.rows:
        raise ValueError(f"expected {state.spec.rows} rows, got {len(col_values)}")
    expected = state.last_in_order.get(reporter, -1) + 1
    if col_index != expected:
        return Nack(expected)
    if col_index >= state.spec.cols:
        raise ValueError(f"column {col_index} outside sketch of {state.spec.cols} columns")

    column = state.columns[col_index]
    if state.spec.merge_op is MergeOp.SUM:
        for r, v in enumerate(col_values):
            column[r] = (column[r] + v) % _U64_MOD
    else:
        for r, v in enumerate(col_values):
            if v > column[r]:
                column[r] = v
    state.last_in_order[reporter] = col_index
    state.merged_count[col_index] += 1
    if state.merged_count[col_index] == state.reporters:
        state.complete[col_index] = True
    return None


def sm_flush_completed(state: SketchMergeState, store_base: int,
                       w_batch: int) -> list[Write]:
    """Ship newly completed columns to memory in contiguous w_batch groups.

    Columns complete in index order (each reporter reports in order), so the
    flushed prefix only ever grows.  The final group may be smaller than
    w_batch once the whole sketch is complete.  Layout: column-contiguous,
    each column its rows in order, little-endian 64-bit counters.
    """
    if w_batch < 1:
        raise ValueError(f"w_batch must be >= 1, got {w_batch}")
    ready = state.first_incomplete()
    col_len = state.spec.rows * COUNTER_LEN
    verbs = []
    while state.flushed_cols < ready:
        n = min(w_batch, ready - state.flushed_cols)
        if n < w_batch and ready < state.spec.cols:
            break  # wait for a full batch unless the sketch is finished
        start = state.flushed_cols
        payload = b"".join(
            v.to_bytes(COUNTER_LEN, "little")
            for c in range(start, start + n)
            for v in state.columns[c]
        )
        verbs.append(Write(store_base + start * col_len, payload))
        state.flushed_cols += n
    return verbs
