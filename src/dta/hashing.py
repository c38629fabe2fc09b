"""Seeded hash family shared by reporters, translator, and queriers.

Every index computation in the system (key-value slots, chunk locations,
checksums, value encodings, cache rows) must be reproducible on any host
from the configured seed alone, so that queries can be answered statelessly.
All functions here are keyed BLAKE2b truncated to 64 bits; independence
between the members of the family comes from structured seeds
(domain, index) mixed into the key.
"""

from __future__ import annotations

import operator
import struct
from array import array
from bisect import bisect_left
from enum import IntEnum
from functools import lru_cache
from hashlib import blake2b
from itertools import islice, repeat

ALGORITHM_ID = "blake2b-64"

_MASK64 = (1 << 64) - 1
_U64 = struct.Struct("<Q")
_DIGEST64 = struct.Struct(">Q")  # a digest read as a big-endian integer


class Domain(IntEnum):
    """Namespaces separating the independent members of the hash family."""

    KW_SLOT = 1
    KW_CSUM = 2
    KW_VALUE = 3
    PC_CHUNK = 4
    PC_HOP_CSUM = 5
    PC_VALUE = 6
    KI_SLOT = 7
    CACHE_SLOT = 8
    WORKLOAD = 9


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
    independent functions.  Each member's keyed BLAKE2b state is built on
    first use and kept, so a call copies it instead of keying a new one.
    """

    def __init__(self, seed_base: int = 0):
        self.seed_base = seed_base & _MASK64
        self._states: dict[tuple[int, int], blake2b] = {}

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

    def key_checksum(self, key: bytes, bits: int) -> int:
        """``bits``-wide checksum of a telemetry key (verifies query hits)."""
        _check_bits(bits)
        return self.raw64(Domain.KW_CSUM, 0, key) >> (64 - bits)

    def chunk_hash(self, n: int, flow_key: bytes, chunks: int) -> int:
        """Chunk index of redundancy copy ``n`` of a flow's postcard block."""
        if chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {chunks}")
        return self.raw64(Domain.PC_CHUNK, n, flow_key) % chunks

    def hop_checksum(self, flow_key: bytes, hop: int, bits: int) -> int:
        """Per-hop flow checksum XORed over stored postcard cells."""
        _check_bits(bits)
        return self.raw64(Domain.PC_HOP_CSUM, hop, flow_key) >> (64 - bits)

    def cache_slot(self, flow_key: bytes, slots: int) -> int:
        """Translator cache row for a flow's pending postcards."""
        return self.raw64(Domain.CACHE_SLOT, 0, flow_key) % slots


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 64:
        raise ValueError(f"bit width must be in [1, 64], got {bits}")


class ValueCodec:
    """Bidirectional encoding of a finite value universe into b-bit cells.

    The universe is the integer range [0, universe_size); BLANK is a reserved
    symbol outside it.  Decoding looks a code up in a table of every value's
    encoding, built once here: one sorted ``array('Q')`` of keys
    ``(code << vbits) | value`` with ``vbits = (universe_size - 1).bit_length()``,
    found with ``bisect`` (a sorted list of the same keys when they need more
    than 64 bits).  Distinct values may collide in the encoding (birthday
    bound ~ |V|^2 / 2^(b+1)); a colliding code decodes to BLANK if BLANK has
    it, else to the least value with it, and ``collisions`` counts
    ``universe_size + 1`` minus the number of distinct codes.

    The table depends only on ``(family.seed_base, universe_size, bits)``;
    ``value_codec`` shares one codec per such configuration in a process.
    """

    def __init__(self, family: HashFamily, universe_size: int, bits: int):
        if universe_size < 1:
            raise ValueError(f"universe_size must be >= 1, got {universe_size}")
        _check_bits(bits)
        self.family = family
        self.universe_size = universe_size
        self.bits = bits
        self._blank_code = self._raw_encode(BLANK)
        vbits = self._vbits = (universe_size - 1).bit_length()
        self._vmask = (1 << vbits) - 1
        # Each value's hash input is the tag b"\x01" then the value, so every
        # digest continues one keyed state that has already absorbed the tag.
        prefix = family._state(Domain.PC_VALUE, 0).copy()
        prefix.update(b"\x01")
        fork, pack, unpack = prefix.copy, _U64.pack, _DIGEST64.unpack
        shift = 64 - bits
        keys = []
        add = keys.append
        for v in range(universe_size):
            h = fork()
            h.update(pack(v))
            add(unpack(h.digest())[0] >> shift << vbits | v)
        keys.sort()
        self._keys = array("Q", keys) if bits + vbits <= 64 else keys
        codes = array("Q", map(operator.rshift, keys, repeat(vbits)))
        repeats = sum(map(operator.eq, codes, islice(codes, 1, None)))
        i = bisect_left(codes, self._blank_code)
        blank_shared = i < len(codes) and codes[i] == self._blank_code
        self.collisions = repeats + blank_shared

    def _raw_encode(self, v) -> int:
        if v is BLANK:
            data = b"\x00"
        else:
            data = b"\x01" + _U64.pack(v)
        return self.family.raw64(Domain.PC_VALUE, 0, data) >> (64 - self.bits)

    def encode(self, v) -> int:
        """b-bit encoding of ``v`` (a universe member or BLANK)."""
        if v is not BLANK and not (isinstance(v, int) and 0 <= v < self.universe_size):
            raise ValueOutsideUniverse(f"{v!r} not in [0, {self.universe_size}) or BLANK")
        return self._raw_encode(v)

    def decode(self, code: int):
        """Value whose encoding is ``code``, or None if no value maps there."""
        if code == self._blank_code:  # BLANK wins its code over any value
            return BLANK
        keys, vbits = self._keys, self._vbits
        i = bisect_left(keys, code << vbits)  # the least value with this code
        if i < len(keys) and keys[i] >> vbits == code:
            return keys[i] & self._vmask
        return None


@lru_cache(maxsize=4)
def value_codec(seed_base: int, universe_size: int, bits: int) -> ValueCodec:
    """The codec of ``HashFamily(seed_base)``, built once per configuration.

    Keyed by the plain seed because a ``HashFamily`` is a new object per
    caller.  The cache is bounded because each table lives as long as the
    process (about 2 MB at 2^18 values).  Callers share the returned codec
    and must not change it.
    """
    return ValueCodec(HashFamily(seed_base), universe_size, bits)
