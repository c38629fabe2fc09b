"""Keyed counters via fetch-add, and column-wise merging of per-switch sketches.

Key-Increment treats an array of 64-bit counters like a count-min structure:
an increment lands on N hash-derived slots via Fetch-and-Add, and a query
takes the minimum of the same slots, which can overestimate (hash
collisions) but never underestimate.

Sketch-Merge aggregates per-reporter sketch columns at the translator,
because the network-wide merge operators (element-wise sum or max) are
richer than what one-sided verbs offer.  Columns from each reporter must
arrive in order; an out-of-order column is refused by raising
``ColumnOutOfOrder``, which carries the index the reporter must resend from.
A column is complete once every reporter has merged it, and completed
columns ship to collector memory contiguously in batches.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

from .hashing import MAX_REDUNDANCY, Domain, HashFamily
from .memstore import U64_MOD, U64LE, FetchAdd, MemoryRegion, Write

COUNTER_LEN = U64LE.size
# Key-Increment hashes its slots with the Key-Write slot member; a plain int
# because an enum member costs a lookup per call
_KI_SLOT = int(Domain.KW_SLOT)


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
    if not 1 <= n_redundancy <= MAX_REDUNDANCY:
        raise ValueError(f"redundancy must be in [1, {MAX_REDUNDANCY}], got {n_redundancy}")
    # raw64 is read once per call, so a wrapper installed on HashFamily.raw64
    # still sees every hash; a loop, not a comprehension, saves building a
    # frame per report on Python 3.11 (from 3.12 comprehensions are inlined)
    raw64, base, buflen = store.family.raw64, store.base, store.buflen
    verbs = []
    for n in range(n_redundancy):
        verbs.append(FetchAdd(base + raw64(_KI_SLOT, n, key) % buflen * COUNTER_LEN, delta))
    return verbs


def ki_query(store: KiStore, key: bytes, n_redundancy: int) -> int:
    """Minimum over the key's N counter slots; never below the true total.

    The store checked at construction that every counter lies inside the
    region, so each is read straight from the region's memory.
    """
    if not 1 <= n_redundancy <= MAX_REDUNDANCY:
        raise ValueError(f"redundancy must be in [1, {MAX_REDUNDANCY}], got {n_redundancy}")
    family, base, buflen, buf = store.family, store.base, store.buflen, store.region._buf
    read = U64LE.unpack_from
    return min(read(buf, base + family.raw64(_KI_SLOT, n, key) % buflen * COUNTER_LEN)[0]
               for n in range(n_redundancy))


class MergeOp(Enum):
    SUM = "sum"
    MAX = "max"


class ColumnOutOfOrder(ValueError):
    """A reporter's column is not the next one it owes; resend from ``expected_index``."""

    def __init__(self, expected_index: int, col_index: int):
        super().__init__(f"column {col_index} out of order, expected {expected_index}")
        self.expected_index = expected_index


class SketchMergeState:
    """Translator-held network-wide sketch under construction and its merge progress.

    Every setting is fixed here: the sketch's shape and merge operator, the
    reporters that merge into it, and the batch of ``w_batch`` columns written
    to memory at ``base``.  ``sketch`` holds the rows x cols counters flat, in
    the order memory holds them: column c, row r at ``c * rows + r``.
    """

    def __init__(self, rows: int, cols: int, merge_op: MergeOp | str, reporters: int,
                 w_batch: int, base: int = 0):
        if rows < 1 or cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
        if reporters < 1:
            raise ValueError(f"reporters must be >= 1, got {reporters}")
        if w_batch < 1:
            raise ValueError(f"w_batch must be >= 1, got {w_batch}")
        self.rows, self.cols, self.merge_op = rows, cols, MergeOp(merge_op)
        self.reporters, self.w_batch, self.base = reporters, w_batch, base
        self.last_in_order: dict[int, int] = {}  # reporter -> last merged column
        self.merged_count = [0] * cols
        self.complete_cols = 0  # columns [0, complete_cols) are merged by every reporter
        self.sketch = [0] * (rows * cols)
        self.flushed_cols = 0


def sm_ingest_column(state: SketchMergeState, reporter: int, col_index: int,
                     col_values: Sequence[int]) -> None:
    """Merge one reporter's column if it is its next in order; else raise, changing nothing."""
    rows = state.rows
    if len(col_values) != rows:
        raise ValueError(f"expected {rows} rows, got {len(col_values)}")
    expected = state.last_in_order.get(reporter, -1) + 1
    if col_index != expected:
        raise ColumnOutOfOrder(expected, col_index)
    if col_index >= state.cols:
        raise ValueError(f"column {col_index} outside sketch of {state.cols} columns")

    sketch = state.sketch
    if state.merge_op is MergeOp.SUM:
        for i, v in enumerate(col_values, col_index * rows):
            sketch[i] = (sketch[i] + v) % U64_MOD
    else:
        for i, v in enumerate(col_values, col_index * rows):
            if v > sketch[i]:
                sketch[i] = v
    state.last_in_order[reporter] = col_index
    state.merged_count[col_index] += 1
    if state.merged_count[col_index] == state.reporters:
        # every reporter merges in order, so each column below is complete too
        state.complete_cols = col_index + 1


def sm_flush_completed(state: SketchMergeState) -> list[Write]:
    """Ship newly completed columns to memory in contiguous w_batch groups.

    Columns complete in index order (each reporter reports in order), so the
    flushed prefix only ever grows.  The final group may be smaller than
    w_batch once the whole sketch is complete.  Each group is one slice of
    the flat sketch, packed as little-endian 64-bit counters.
    """
    ready, rows, w_batch = state.complete_cols, state.rows, state.w_batch
    verbs = []
    while state.flushed_cols < ready:
        n = min(w_batch, ready - state.flushed_cols)
        if n < w_batch and ready < state.cols:
            break  # wait for a full batch unless the sketch is finished
        start, count = state.flushed_cols * rows, n * rows
        verbs.append(Write(state.base + start * COUNTER_LEN,
                           struct.pack(f"<{count}Q", *state.sketch[start:start + count])))
        state.flushed_cols += n
    return verbs
