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
A store's geometry (checksum and slot widths, and the shift that takes a
key's checksum from the top of its ``KW_CSUM`` member) is fixed when it is
built, which also checks that every slot lies inside the region, so a query
reads its slots straight from the region's memory and compares checksums as
octets.  A write or a query hashes 1 + N times: the checksum, then one slot
per copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .hashing import MAX_REDUNDANCY, Domain, HashFamily
from .memstore import AMBIGUOUS, EMPTY, MemoryRegion, Outcome, QueryResult, Write


class QueryPolicy(Enum):
    PLURALITY = "plurality"
    SINGLE_VALUE = "single-value"


# read per call, so kept out of their enums: an enum member costs a lookup per read
_KW_SLOT, _KW_CSUM = int(Domain.KW_SLOT), int(Domain.KW_CSUM)
_SINGLE_VALUE, _VALUE = QueryPolicy.SINGLE_VALUE, Outcome.VALUE


@dataclass
class KwStore:
    """Geometry and hash configuration of one key-value region.

    One store holds one fixed value width; telemetry with a different payload
    size belongs in a separate store.  ``csum_len``, ``slot_len`` and
    ``csum_shift`` (a key's checksum is its ``KW_CSUM`` member shifted right by
    it) are fixed here, together with the check that every slot lies inside
    the region.
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
        self.csum_shift = 64 - self.checksum_bits
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
        raise ValueError(f"expected {store.value_len}B value, got {len(data)}B")
    raw64, base, buflen, slot_len = store.family.raw64, store.base, store.buflen, store.slot_len
    payload = (raw64(_KW_CSUM, 0, key) >> store.csum_shift).to_bytes(store.csum_len, "little")
    payload += data
    writes = []
    for n in range(n_redundancy):
        writes.append(Write(base + raw64(_KW_SLOT, n, key) % buflen * slot_len, payload))
    return writes


def kw_query(
    store: KwStore,
    key: bytes,
    n_redundancy: int,
    threshold: int = 1,
    policy: QueryPolicy = QueryPolicy.PLURALITY,
) -> QueryResult:
    """Read the key's N candidate slots and vote.

    ``n_redundancy`` may exceed the redundancy used at write time (querying
    with an assumed maximum); the extra slots then just look overwritten.
    A probabilistically wrong value is a modeled outcome, not an error.
    """
    if not 1 <= n_redundancy <= MAX_REDUNDANCY:
        raise ValueError(f"redundancy must be in [1, {MAX_REDUNDANCY}], got {n_redundancy}")
    raw64, base, buflen, slot_len = store.family.raw64, store.base, store.buflen, store.slot_len
    csum_len, buf = store.csum_len, store.region._buf
    want = (raw64(_KW_CSUM, 0, key) >> store.csum_shift).to_bytes(csum_len, "little")
    values = []  # the value of every slot whose checksum matches, as a bytearray
    for n in range(n_redundancy):
        at = base + raw64(_KW_SLOT, n, key) % buflen * slot_len
        if buf.startswith(want, at):
            values.append(buf[at + csum_len:at + slot_len])
    if not values:
        return EMPTY

    if policy is _SINGLE_VALUE:
        first = values[0]
        for value in values:
            if value != first:
                return AMBIGUOUS
        return QueryResult(_VALUE, bytes(first))

    counts: dict[bytes, int] = {}
    for value in map(bytes, values):
        counts[value] = counts.get(value, 0) + 1
    top_count = max(counts.values())
    top = [value for value, count in counts.items() if count == top_count]
    if len(top) > 1 or top_count < threshold:
        return AMBIGUOUS
    return QueryResult(_VALUE, top[0])
