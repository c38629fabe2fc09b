import struct
import tracemalloc
from hashlib import blake2b

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dta.counters import KiStore, ki_increment
from dta.hashing import (
    BLANK,
    Domain,
    HashFamily,
    ValueCodec,
    value_codec,
)
from dta.keywrite import KwStore, kw_write
from dta.memstore import MemoryRegion

FAM = HashFamily(seed_base=0x5EED)


def reference_raw64(seed: int, domain: int, index: int, data: bytes) -> int:
    """The family's definition: a fresh keyed BLAKE2b-64 digest read big-endian."""
    key = struct.pack("<QQQ", seed, domain, index)
    return int.from_bytes(blake2b(data, digest_size=8, key=key).digest(), "big")


def reference_codec_table(family: HashFamily, universe_size: int, bits: int):
    """The codec's table built one value at a time: (table, collisions)."""
    def code(data: bytes) -> int:
        return family.raw64(Domain.PC_VALUE, 0, data) >> (64 - bits)

    table = {code(b"\x00"): BLANK}
    collisions = 0
    for v in range(universe_size):
        c = code(b"\x01" + struct.pack("<Q", v))
        if c in table:
            collisions += 1
        else:
            table[c] = v
    return table, collisions


# Calls interleaved over members and over two families with different seeds; data
# beyond 128 bytes spans more than one BLAKE2b block.
_CALLS = st.lists(
    st.tuples(st.sampled_from([0x5EED, 0xD7A]), st.sampled_from(list(Domain)),
              st.integers(0, 7), st.binary(max_size=200)),
    min_size=1, max_size=20,
)


@settings(max_examples=200)
@given(_CALLS)
@example([(0x5EED, d, 7, bytes(range(n % 256)) * 2) for d in Domain for n in (0, 64, 65, 150)])
def test_raw64_matches_reference_formula(calls):
    families = {0x5EED: HashFamily(0x5EED), 0xD7A: HashFamily(0xD7A)}
    for seed, domain, index, data in calls + calls:  # the repeat reuses every kept state
        assert families[seed].raw64(domain, index, data) == reference_raw64(
            seed, domain, index, data)


def reference_members(seed: int, domain: int, data: bytes, count: int) -> list[int]:
    """The family's definition: block k is a fresh keyed BLAKE2b-512 digest read as 8
    big-endian members, keyed by (seed, domain, k); the blocks' members truncated to count."""
    out = []
    for k in range((count + 7) // 8):
        key = struct.pack("<QQQ", seed, domain, k)
        out += struct.unpack(">8Q", blake2b(data, digest_size=64, key=key).digest())
    return out[:count]


# As _CALLS, with a member count in place of an index; counts past 8 reach block 1.
_MEMBER_CALLS = st.lists(
    st.tuples(st.sampled_from([0x5EED, 0xD7A]), st.sampled_from(list(Domain)),
              st.binary(max_size=200), st.integers(1, 16)),
    min_size=1, max_size=20,
)


@settings(max_examples=200)
@given(_MEMBER_CALLS)
@example([(0x5EED, d, bytes(range(n % 256)) * 2, c) for d in Domain for n, c in
          ((0, 1), (64, 8), (65, 9), (150, 16))])
def test_members_match_reference_formula(calls):
    families = {0x5EED: HashFamily(0x5EED), 0xD7A: HashFamily(0xD7A)}
    for seed, domain, data, count in calls + calls:  # the repeat reuses every kept state
        got = families[seed].members(domain, data, count)
        assert got == reference_members(seed, domain, data, count)
        for shorter in range(1, count):
            assert families[seed].members(domain, data, shorter) == got[:shorter]


def slot(n: int, key: bytes, buflen: int) -> int:
    """Slot of redundancy copy ``n`` of ``key``: member (KW_SLOT, n) reduced to ``buflen``."""
    return FAM.raw64(Domain.KW_SLOT, n, key) % buflen


def store_slots(key: bytes, n: int, buflen: int, base_slots: int = 0) -> tuple[list, list]:
    """Slots that Key-Write and Key-Increment address for ``n`` copies of ``key``."""
    base = 8 * base_slots  # both stores use 8-octet slots here
    kw = KwStore(MemoryRegion(base + 8 * buflen), buflen, 32, 4, family=FAM, base=base)
    ki = KiStore(MemoryRegion(base + 8 * buflen), buflen, family=FAM, base=base)
    return ([(v.address - base) // 8 for v in kw_write(kw, key, bytes(4), n)],
            [(v.address - base) // 8 for v in ki_increment(ki, key, 0, n)])


@given(st.binary(max_size=64), st.integers(1, 4), st.integers(1, 10000), st.integers(0, 3))
def test_slot_hash_deterministic_and_in_range(key, n, buflen, base_slots):
    kw_slots, ki_slots = store_slots(key, n, buflen, base_slots)
    assert kw_slots == ki_slots == [slot(i, key, buflen) for i in range(n)]
    assert store_slots(key, n, buflen, base_slots) == (kw_slots, ki_slots)
    assert all(0 <= a < buflen for a in kw_slots)


def test_slot_hash_buflen_one_always_zero():
    for i in range(100):
        assert store_slots(str(i).encode(), i % 4 + 1, 1, i % 3) == ([0] * (i % 4 + 1),) * 2


def test_same_inputs_same_checksum_across_instances():
    other = HashFamily(seed_base=0x5EED)
    assert FAM.key_checksum(b"flow", 32) == other.key_checksum(b"flow", 32)


@given(st.binary(max_size=32), st.integers(1, 64))
def test_checksum_top_bits_zero(key, bits):
    assert FAM.key_checksum(key, bits) < (1 << bits)


def test_checksum_one_bit():
    values = {FAM.key_checksum(str(i).encode(), 1) for i in range(64)}
    assert values == {0, 1}


def test_slot_histogram_uniform():
    """Chi-square over 256 buckets stays within 5 sigma of uniform."""
    buckets = 256
    samples = 100000
    counts = [0] * buckets
    for i in range(samples):
        counts[slot(0, i.to_bytes(8, "big"), buckets)] += 1
    expected = samples / buckets
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    dof = buckets - 1
    assert chi2 < dof + 5 * (2 * dof) ** 0.5


def test_distinct_seeds_disagree():
    """Copy indices behave as independent functions: agreement rate ~ 1/buflen."""
    buflen = 256
    samples = 20000
    agree = sum(
        slot(0, i.to_bytes(8, "big"), buflen) == slot(1, i.to_bytes(8, "big"), buflen)
        for i in range(samples)
    )
    expected = samples / buflen
    assert abs(agree - expected) < 5 * expected ** 0.5


def test_checksum_collision_rate_16bit():
    """Distinct random keys collide at ~2^-16, checked over 10^6 pairs."""
    pairs = 1_000_000
    collisions = 0
    for i in range(pairs):
        a = FAM.key_checksum((2 * i).to_bytes(8, "big"), 16)
        b = FAM.key_checksum((2 * i + 1).to_bytes(8, "big"), 16)
        collisions += a == b
    expected = pairs * 2 ** -16
    assert abs(collisions - expected) <= 3 * expected ** 0.5 + 1


def test_hop_checksums_differ_by_hop():
    """Postcarding's hop checksums: the top 32 bits of members 0..4 of PC_FLOW."""
    seen = {m >> 32 for m in FAM.members(Domain.PC_FLOW, b"flow", 5)}
    assert len(seen) == 5


@pytest.mark.parametrize("bad_bits", [0, 65, -1])
def test_bit_width_validation(bad_bits):
    with pytest.raises(ValueError):
        FAM.key_checksum(b"x", bad_bits)


class TestValueCodec:
    def test_single_value_universe_has_two_entries(self):
        codec = ValueCodec(FAM, 1, 32)
        assert codec.decode(codec.encode(0)) == 0
        assert codec.decode(codec.encode(BLANK)) is BLANK
        assert codec.collisions == 0

    def test_roundtrip_collision_free_universe(self):
        """4096-value universe at b=32: inverse table recovers every value."""
        codec = ValueCodec(FAM, 1 << 12, 32)
        assert codec.collisions == 0
        for v in range(0, 1 << 12, 7):
            assert codec.decode(codec.encode(v)) == v

    def test_birthday_bound_small_universe(self):
        # |V|=2^10 at b=32: expected collisions |V|^2/2^33 < 0.001
        codec = ValueCodec(FAM, 1 << 10, 32)
        assert codec.collisions == 0

    def test_outside_universe_rejected(self):
        codec = ValueCodec(FAM, 16, 32)
        with pytest.raises(ValueError, match=r"16 not in \[0, 16\) or BLANK"):
            codec.encode(16)
        with pytest.raises(ValueError, match=r"-1 not in \[0, 16\) or BLANK"):
            codec.encode(-1)

    def test_blank_not_all_zero_encoding(self):
        codec = ValueCodec(FAM, 1 << 10, 32)
        assert codec.encode(BLANK) != 0

    @pytest.mark.parametrize("universe_size,bits", [
        (1 << 12, 12),  # about 2^12 / e ~ 1,500 collisions
        (64, 4),  # values collide with BLANK's code
    ])
    def test_table_matches_value_by_value_build(self, universe_size, bits):
        codec = ValueCodec(FAM, universe_size, bits)
        table, collisions = reference_codec_table(FAM, universe_size, bits)
        decoded = {c: codec.decode(c) for c in range(1 << bits) if codec.decode(c) is not None}
        assert decoded == table
        assert codec.collisions == collisions
        assert collisions > universe_size // 4
        blank_code = codec.encode(BLANK)
        assert codec.decode(blank_code) is BLANK
        for v in range(universe_size):
            code = codec.encode(v)
            first = codec.decode(code)  # the first-registered value with this code
            assert first is BLANK if code == blank_code else first <= v
            assert codec.encode(first) == code
        if bits == 4:
            assert any(codec.encode(v) == blank_code for v in range(universe_size))

    @pytest.mark.parametrize("universe_size,bits", [(16, 64), (1 << 10, 60)])
    def test_keys_wider_than_64_bits_roundtrip(self, universe_size, bits):
        codec = ValueCodec(FAM, universe_size, bits)
        table, collisions = reference_codec_table(FAM, universe_size, bits)
        assert {c: codec.decode(c) for c in table} == table
        assert codec.collisions == collisions == 0
        assert codec.decode(codec.encode(BLANK) ^ 1) is None

    def test_unknown_code_decodes_to_none(self):
        codec = ValueCodec(FAM, 4, 32)
        misses = sum(codec.decode(c) is None for c in range(1000))
        assert misses >= 995  # only 5 codes are occupied


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 64), st.lists(st.integers(0, (1 << 72) - 1),
                                                        max_size=40))
@example(1, 1, [])
@example(3000, 12, [])
@example(2048, 64, [])
def test_decode_matches_value_by_value_build(universe_size, bits, extra_codes):
    """Every code decodes as the reference table says: BLANK first, else the least value
    with that code, else None; so do codes of more than ``bits`` bits, as a clobbered cell
    may hold."""
    codec = ValueCodec(FAM, universe_size, bits)
    table, collisions = reference_codec_table(FAM, universe_size, bits)
    assert codec.collisions == collisions
    width = 1 << bits
    codes = list(range(width)) if bits <= 12 else list(table)
    codes += [width, width + 1, 2 * width - 1, width << 6, (1 << 80) + 5] + extra_codes
    for code in codes:
        assert codec.decode(code) == table.get(code)


def test_codec_build_peaks_under_32_octets_per_value():
    """The build preallocates its two tables and makes no per-value list or sort."""
    tracemalloc.start()
    try:
        ValueCodec(FAM, 1 << 14, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 << 14


def test_value_codec_is_shared_per_configuration():
    shared = value_codec(0x5EED, 1 << 12, 12)
    assert value_codec(0x5EED, 1 << 12, 12) is shared
    assert value_codec(0xD7A, 1 << 12, 12) is not shared
    assert value_codec(0x5EED, 1 << 11, 12) is not shared
    fresh = ValueCodec(HashFamily(0x5EED), 1 << 12, 12)
    assert [shared.decode(c) for c in range(1 << 12)] == [fresh.decode(c) for c in range(1 << 12)]
    assert [shared.encode(v) for v in range(1 << 12)] == [fresh.encode(v) for v in range(1 << 12)]
    assert shared.collisions == fresh.collisions


def test_domains_are_distinct():
    values = [d.value for d in Domain]
    assert len(values) == len(set(values))
