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

Writes are produced by the translator (single writer); queries never mutate.
A store's geometry (checksum and slot widths) is fixed when it is built,
which also checks that every slot lies inside the region, so a query reads
its slots straight from the region's memory and compares checksums as
octets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .hashing import MAX_REDUNDANCY, Domain, HashFamily
from .memstore import MemoryRegion, Write

_KW_SLOT = int(Domain.KW_SLOT)  # a plain int: an enum member costs a lookup per call


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


_EMPTY = KwQueryResult(QueryOutcome.EMPTY)
_AMBIGUOUS = KwQueryResult(QueryOutcome.AMBIGUOUS)


@dataclass
class KwStore:
    """Geometry and hash configuration of one key-value region.

    One store holds one fixed value width; telemetry with a different payload
    size belongs in a separate store.  ``csum_len`` and ``slot_len`` are fixed
    here, together with the check that every slot lies inside the region.
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
        self.csum_len = (self.checksum_bits + 7) // 8
        self.slot_len = self.csum_len + self.value_len
        if self.base < 0 or self.base + self.buflen * self.slot_len > self.region.size:
            raise ValueError(
                f"{self.buflen} slots of {self.slot_len}B at base {self.base} "
                f"exceed region of {self.region.size}B"
            )


def kw_write(store: KwStore, key: bytes, data: bytes, n_redundancy: int) -> list[Write]:
    """Expand one report into the N redundant slot writes.

    Copy ``n`` targets slot ``raw64(KW_SLOT, n, key) % buflen`` and carries
    checksum||data, so every copy is byte-identical and any surviving one can
    answer a query.
    """
    if not 1 <= n_redundancy <= MAX_REDUNDANCY:
        raise ValueError(f"redundancy must be in [1, {MAX_REDUNDANCY}], got {n_redundancy}")
    if len(data) != store.value_len:
        raise BadValueLength(f"expected {store.value_len}B value, got {len(data)}B")
    family, base, buflen, slot_len = store.family, store.base, store.buflen, store.slot_len
    payload = family.key_checksum(key, store.checksum_bits).to_bytes(store.csum_len, "little")
    payload += data
    return [Write(base + family.raw64(_KW_SLOT, n, key) % buflen * slot_len, payload)
            for n in range(n_redundancy)]


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
    family, base, buflen, slot_len = store.family, store.base, store.buflen, store.slot_len
    csum_len, buf = store.csum_len, store.region._buf
    want = family.key_checksum(key, store.checksum_bits).to_bytes(csum_len, "little")
    values = []  # the value of every slot whose checksum matches, as a bytearray
    for n in range(n_redundancy):
        at = base + family.raw64(_KW_SLOT, n, key) % buflen * slot_len
        if buf.startswith(want, at):
            values.append(buf[at + csum_len:at + slot_len])
    if not values:
        return _EMPTY

    if policy is QueryPolicy.SINGLE_VALUE:
        if values.count(values[0]) == len(values):
            return KwQueryResult(QueryOutcome.VALUE, bytes(values[0]))
        return _AMBIGUOUS

    counts: dict[bytes, int] = {}
    for value in map(bytes, values):
        counts[value] = counts.get(value, 0) + 1
    top_count = max(counts.values())
    top = [value for value, count in counts.items() if count == top_count]
    if len(top) > 1 or top_count < threshold:
        return _AMBIGUOUS
    return KwQueryResult(QueryOutcome.VALUE, top[0])
