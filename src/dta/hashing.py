"""Seeded hash family shared by reporters, translator, and queriers.

Every index computation in the system (key-value slots, chunk locations,
checksums, value encodings, cache rows) must be reproducible on any host
from the configured seed alone, so that queries can be answered statelessly.
All functions here are keyed BLAKE2b; independence between the members of
the family comes from structured seeds (domain, index) mixed into the key.
``raw64`` gives one 64-bit member per 8-octet digest: Key-Write,
Key-Increment, key checksums, cache rows and value codes take one call per
member.  ``members`` gives 8 members of one domain per 64-octet digest, block
k keyed by (seed, domain, k): Postcarding takes a flow's B hop checksums,
then its N chunk copies, from one such call.  ``ValueCodec`` maps values to
b-bit codes by a table indexed by value, and codes back by a hashed index.
"""

from __future__ import annotations

import struct
from array import array
from enum import IntEnum
from functools import lru_cache
from hashlib import blake2b

ALGORITHM_ID = "blake2b-64+512"
# most copies one report may ask for; the stores and sim.Topology refuse more
MAX_REDUNDANCY = 4
# widest value universe a ValueCodec holds, as bits: 2^24 values take 256 MB
MAX_VALUE_BITS = 24

_MASK64 = (1 << 64) - 1
_U64 = struct.Struct("<Q")
_DIGEST64 = struct.Struct(">Q")  # a digest read as a big-endian integer
_DIGEST512 = struct.Struct(">8Q")  # a 64-octet digest read as 8 big-endian members
_FIBONACCI = 0x9E3779B97F4A7C15  # 2^64 / golden ratio: spreads narrow codes over the index


class Domain(IntEnum):
    """Namespaces separating the independent members of the hash family.

    Key-Increment addresses its counters with ``KW_SLOT`` on purpose: its
    seeded memory images, pinned by the tests, depend on it.  A value is
    never renumbered or reused, so that no hash moves.
    """

    # retired, values never reused: 3 KW_VALUE, 4 PC_CHUNK, 5 PC_HOP_CSUM, 7 KI_SLOT, 9 WORKLOAD
    KW_SLOT = 1
    KW_CSUM = 2
    PC_VALUE = 6
    CACHE_SLOT = 8
    PC_FLOW = 10
    PC_STREAM = 11


class ValueOutsideUniverse(ValueError):
    """A value was not drawn from the declared value universe."""


class _BlankType:
    """Sentinel for a hop whose postcard was never collected."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "BLANK"


BLANK = _BlankType()


class HashFamily:
    """A family of independent 64-bit hash functions derived from one seed.

    ``raw64(domain, index, data)`` is a pure function of its arguments and
    ``seed_base``; two members with different (domain, index) behave as
    independent functions, and so do the members ``members`` reads.  Each
    keyed BLAKE2b state is built on first use and kept, so a call copies it
    instead of keying a new one.
    """

    def __init__(self, seed_base: int = 0):
        self.seed_base = seed_base & _MASK64
        self._states: dict[tuple[int, int], blake2b] = {}
        self._blocks: dict[tuple[int, int], blake2b] = {}

    def __repr__(self) -> str:
        return f"HashFamily(seed_base={self.seed_base:#x}, {ALGORITHM_ID!r})"

    def _key(self, domain: int, index: int) -> bytes:
        return struct.pack("<QQQ", self.seed_base, domain, index)

    def _state(self, domain: int, index: int) -> blake2b:
        """Keyed state of member (domain, index) before any data; never updated."""
        state = self._states.get((domain, index))
        if state is None:
            state = self._states[domain, index] = blake2b(
                digest_size=8, key=self._key(domain, index))
        return state

    def raw64(self, domain: int, index: int, data: bytes) -> int:
        try:
            h = self._states[domain, index].copy()
        except KeyError:
            h = self._state(domain, index).copy()
        h.update(data)
        return _DIGEST64.unpack(h.digest())[0]

    def members(self, domain: int, data: bytes, count: int) -> list[int]:
        """The first ``count`` 64-bit members of ``domain`` for ``data``.

        Block k holds members 8k to 8k + 7, read big-endian from one 64-octet
        digest keyed by (seed_base, domain, k); a block is computed only when
        ``count`` reaches it, so a shorter count gives a prefix of a longer one.
        """
        blocks, out = self._blocks, []
        for k in range(-(-count // 8)):
            state = blocks.get((domain, k))
            if state is None:  # kept unused: each call updates a copy
                state = blocks[domain, k] = blake2b(digest_size=64, key=self._key(domain, k))
            h = state.copy()
            h.update(data)
            out += _DIGEST512.unpack(h.digest())
        del out[count:]
        return out

    def key_checksum(self, key: bytes, bits: int) -> int:
        """``bits``-wide checksum of a telemetry key (verifies query hits)."""
        _check_bits(bits)
        return self.raw64(Domain.KW_CSUM, 0, key) >> (64 - bits)

    def cache_slot(self, flow_key: bytes, slots: int) -> int:
        """Translator cache row for a flow's pending postcards."""
        return self.raw64(Domain.CACHE_SLOT, 0, flow_key) % slots


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 64:
        raise ValueError(f"bit width must be in [1, 64], got {bits}")


class ValueCodec:
    """Bidirectional encoding of a finite value universe into b-bit cells.

    The universe is the integer range [0, universe_size); BLANK is a reserved
    symbol outside it.  Each value's code is hashed once, into ``_codes``, an
    ``array('Q')`` indexed by value that ``encode`` reads.  ``decode`` reads
    ``_index``, an open-addressing ``array('I')`` of a power of two slots, at
    least twice ``universe_size``, slot i holding value + 1 or 0 when empty: a
    code's home slot is its Fibonacci hash, probing is linear, and a slot
    matches when ``_codes`` of its value is the code.  Values go in ascending
    order, so a probe's first match is the least value with that code.  A code
    that values share (birthday bound ~ |V|^2 / 2^(b+1)) decodes to BLANK if
    BLANK has it, else to the least value with it; ``collisions`` counts
    ``universe_size + 1`` minus the number of distinct codes.  The tables, 16
    octets per value at a power-of-two ``universe_size``, depend only on
    ``(family.seed_base, universe_size, bits)``; ``value_codec`` shares one
    codec per such configuration in a process.
    """

    def __init__(self, family: HashFamily, universe_size: int, bits: int):
        if not (isinstance(universe_size, int) and 1 <= universe_size <= 1 << MAX_VALUE_BITS):
            raise ValueError(f"universe_size must be an int in [1, 2^{MAX_VALUE_BITS}], "
                             f"got {universe_size!r}")
        _check_bits(bits)
        self.family = family
        self.universe_size = universe_size
        self.bits = bits
        shift = 64 - bits
        self._blank_code = family.raw64(Domain.PC_VALUE, 0, b"\x00") >> shift
        slot_bits = (2 * universe_size - 1).bit_length()
        slot_shift = self._slot_shift = 64 - slot_bits
        self._slot_mask = mask = (1 << slot_bits) - 1
        codes = self._codes = array("Q", [0]) * universe_size
        index = self._index = array("I", [0]) * (1 << slot_bits)
        # Each value's hash input is the tag b"\x01" then the value, so every
        # digest continues one keyed state that has already absorbed the tag.
        prefix = family._state(Domain.PC_VALUE, 0).copy()
        prefix.update(b"\x01")
        fork, pack, unpack = prefix.copy, _U64.pack, _DIGEST64.unpack
        for v in range(universe_size):
            h = fork()
            h.update(pack(v))
            code = codes[v] = unpack(h.digest())[0] >> shift
            i = (code * _FIBONACCI & _MASK64) >> slot_shift
            while (w := index[i]) and codes[w - 1] != code:
                i = (i + 1) & mask
            if not w:  # else a lesser value holds this code already
                index[i] = v + 1
        repeats = universe_size - (len(index) - index.count(0))
        self.collisions = repeats + (self._blank_code in codes)

    def encode(self, v) -> int:
        """b-bit encoding of ``v`` (a universe member or BLANK)."""
        if v is BLANK:
            return self._blank_code
        if not (isinstance(v, int) and 0 <= v < self.universe_size):
            raise ValueOutsideUniverse(f"{v!r} not in [0, {self.universe_size}) or BLANK")
        return self._codes[v]

    def decode(self, code: int):
        """Value whose encoding is ``code``, or None if no value maps there."""
        if code == self._blank_code:  # BLANK wins its code over any value
            return BLANK
        index, codes, mask = self._index, self._codes, self._slot_mask
        i = (code * _FIBONACCI & _MASK64) >> self._slot_shift
        while (w := index[i]) and codes[w - 1] != code:
            i = (i + 1) & mask
        return w - 1 if w else None


@lru_cache(maxsize=4)
def value_codec(seed_base: int, universe_size: int, bits: int) -> ValueCodec:
    """The codec of ``HashFamily(seed_base)``, built once per configuration.

    Keyed by the plain seed because a ``HashFamily`` is a new object per
    caller.  The cache is bounded because each table lives as long as the
    process (4 MB at 2^18 values).  Callers share the returned codec
    and must not change it.
    """
    return ValueCodec(HashFamily(seed_base), universe_size, bits)
