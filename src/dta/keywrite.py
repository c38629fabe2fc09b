"""Key-value collection: redundant slot writes and vote-based querying.

A store is a flat array of fixed-size slots, each holding a key checksum
followed by the value.  Writing a report expands it into N Write verbs at
hash-derived slots; querying reads the same N slots back, keeps the ones
whose checksum matches, and resolves the survivors under one of two
policies:

* ``PLURALITY`` (default): return the value with the strictly greatest
  multiplicity, provided it reaches the consensus threshold; ties are
  reported as ambiguous.
* ``SINGLE_VALUE``: return a value only when exactly one distinct value
  matches.  This is the policy the closed-form failure model in
  ``analysis`` describes, so the Monte-Carlo suites run under it.

Writes are produced by the translator (single writer); queries read region
snapshots and never mutate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .hashing import HashFamily
from .memstore import MemoryRegion, Write

MAX_REDUNDANCY = 4


class BadValueLength(ValueError):
    """Report data does not match the store's fixed value width."""


class QueryPolicy(Enum):
    PLURALITY = "plurality"
    SINGLE_VALUE = "single-value"


class QueryOutcome(Enum):
    VALUE = "value"
    EMPTY = "empty"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class KwQueryResult:
    outcome: QueryOutcome
    value: Optional[bytes] = None


@dataclass
class KwStore:
    """Geometry and hash configuration of one key-value region.

    One store holds one fixed value width; telemetry with a different payload
    size belongs in a separate store.
    """

    region: MemoryRegion
    buflen: int
    checksum_bits: int
    value_len: int
    family: HashFamily = field(default_factory=HashFamily)
    base: int = 0

    def __post_init__(self):
        if self.buflen < 1:
            raise ValueError(f"buflen must be >= 1, got {self.buflen}")
        if not 1 <= self.checksum_bits <= 64:
            raise ValueError(f"checksum_bits must be in [1, 64], got {self.checksum_bits}")
        if self.value_len < 1:
            raise ValueError(f"value_len must be >= 1, got {self.value_len}")
        if self.base + self.buflen * self.slot_len > self.region.size:
            raise ValueError(
                f"{self.buflen} slots of {self.slot_len}B at base {self.base} "
                f"exceed region of {self.region.size}B"
            )

    @property
    def csum_len(self) -> int:
        return (self.checksum_bits + 7) // 8

    @property
    def slot_len(self) -> int:
        return self.csum_len + self.value_len

    def slot_address(self, slot: int) -> int:
        return self.base + slot * self.slot_len

    def read_slot(self, slot: int) -> tuple[int, bytes]:
        raw = self.region.read(self.slot_address(slot), self.slot_len)
        csum = int.from_bytes(raw[: self.csum_len], "little")
        return csum, raw[self.csum_len:]


def kw_write(store: KwStore, key: bytes, data: bytes, n_redundancy: int) -> list[Write]:
    """Expand one report into the N redundant slot writes.

    Copy ``n`` targets slot_hash(n, key) and carries checksum||data, so every
    copy is byte-identical and any surviving one can answer a query.
    """
    if not 1 <= n_redundancy <= MAX_REDUNDANCY:
        raise ValueError(f"redundancy must be in [1, {MAX_REDUNDANCY}], got {n_redundancy}")
    if len(data) != store.value_len:
        raise BadValueLength(f"expected {store.value_len}B value, got {len(data)}B")
    csum = store.family.key_checksum(key, store.checksum_bits)
    payload = csum.to_bytes(store.csum_len, "little") + data
    return [
        Write(store.slot_address(store.family.slot_hash(n, key, store.buflen)), payload)
        for n in range(n_redundancy)
    ]


def kw_query(
    store: KwStore,
    key: bytes,
    n_redundancy: int,
    threshold: int = 1,
    policy: QueryPolicy = QueryPolicy.PLURALITY,
) -> KwQueryResult:
    """Read the key's N candidate slots and vote.

    ``n_redundancy`` may exceed the redundancy used at write time (querying
    with an assumed maximum); the extra slots then just look overwritten.
    A probabilistically wrong value is a modeled outcome, not an error.
    """
    if not 1 <= n_redundancy <= MAX_REDUNDANCY:
        raise ValueError(f"redundancy must be in [1, {MAX_REDUNDANCY}], got {n_redundancy}")
    want = store.family.key_checksum(key, store.checksum_bits)
    counts: dict[bytes, int] = {}
    for n in range(n_redundancy):
        csum, value = store.read_slot(store.family.slot_hash(n, key, store.buflen))
        if csum == want:
            counts[value] = counts.get(value, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if not ranked:
        return KwQueryResult(QueryOutcome.EMPTY)

    if policy is QueryPolicy.SINGLE_VALUE:
        if len(ranked) == 1:
            return KwQueryResult(QueryOutcome.VALUE, ranked[0][0])
        return KwQueryResult(QueryOutcome.AMBIGUOUS)

    top_value, top_count = ranked[0]
    tied = len(ranked) > 1 and ranked[1][1] == top_count
    if tied or top_count < threshold:
        return KwQueryResult(QueryOutcome.AMBIGUOUS)
    return KwQueryResult(QueryOutcome.VALUE, top_value)
