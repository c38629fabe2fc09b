import json
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dta.wire import (
    ENVELOPE_LEN,
    AppendBody,
    CongestionAction,
    CongestionSignal,
    DtaPacket,
    KeyIncrementBody,
    KeyWriteBody,
    Kind,
    LengthMismatch,
    NackPacket,
    PostcardBody,
    SeqResetPacket,
    SketchMergeBody,
    TruncatedPacket,
    UnknownPrimitive,
    WireError,
    decode,
    encode,
    make_flags,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_packets.json").read_text())


def golden_packet(name):
    f = GOLDEN[name]["fields"]
    if name == "key_write":
        body = KeyWriteBody(f["redundancy"], bytes.fromhex(f["key"]), bytes.fromhex(f["value"]))
    elif name == "append":
        body = AppendBody(f["list_id"], bytes.fromhex(f["entry"]))
    elif name == "key_increment":
        body = KeyIncrementBody(f["redundancy"], bytes.fromhex(f["key"]), f["delta"])
    elif name == "sketch_merge":
        body = SketchMergeBody(f["col_index"], tuple(f["values"]))
    elif name == "postcard":
        body = PostcardBody(f["flow_id"], f["hop"], f["value"], f["path_len"])
    elif name == "nack":
        return NackPacket(f["reporter_id"], f["expected_essential_seq"])
    elif name == "congestion":
        return CongestionSignal(f["reporter_id"])
    elif name == "seq_reset":
        return SeqResetPacket(f["reporter_id"], f["new_expected"])
    return DtaPacket(body, f["reporter_id"], f["essential_seq"], f["flags"])


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_encode_bit_exact(name):
    assert encode(golden_packet(name)).hex() == GOLDEN[name]["hex"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_decode_and_reencode(name):
    octets = bytes.fromhex(GOLDEN[name]["hex"])
    packet = decode(octets)
    assert packet == golden_packet(name)
    assert encode(packet) == octets  # canonical


def random_packet(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        body = KeyWriteBody(rng.randrange(256), rng.randbytes(rng.randrange(0, 32)),
                            rng.randbytes(rng.randrange(0, 64)))
    elif kind == 1:
        body = AppendBody(rng.randrange(1 << 32), rng.randbytes(rng.randrange(0, 64)))
    elif kind == 2:
        body = KeyIncrementBody(rng.randrange(256), rng.randbytes(rng.randrange(0, 32)),
                                rng.randrange(1 << 64))
    elif kind == 3:
        body = SketchMergeBody(rng.randrange(1 << 16),
                               tuple(rng.randrange(1 << 64)
                                     for _ in range(rng.randrange(0, 16))))
    elif kind == 4:
        body = PostcardBody(rng.randrange(1 << 64), rng.randrange(256),
                            rng.randrange(1 << 32),
                            rng.choice([None, rng.randrange(1, 256)]))
    elif kind == 5:
        return NackPacket(rng.randrange(1 << 32), rng.randrange(1 << 32),
                          src_port=rng.randrange(1 << 16), dst_port=rng.randrange(1 << 16))
    elif kind == 6:
        return CongestionSignal(rng.randrange(1 << 32))
    else:
        return SeqResetPacket(rng.randrange(1 << 32), rng.randrange(1 << 32))
    return DtaPacket(body, rng.randrange(1 << 32), rng.randrange(1 << 32),
                     flags=rng.randrange(256), version=rng.randrange(16),
                     src_port=rng.randrange(1 << 16), dst_port=rng.randrange(1 << 16))


def test_ten_thousand_random_roundtrips():
    rng = random.Random(2024)
    for _ in range(10000):
        packet = random_packet(rng)
        octets = encode(packet)
        assert decode(octets) == packet


def test_ten_thousand_fuzz_inputs_never_crash():
    """Random octet strings either decode or raise a WireError, nothing else."""
    rng = random.Random(99)
    decoded = errors = 0
    for _ in range(10000):
        blob = rng.randbytes(rng.randrange(0, 80))
        try:
            decode(blob)
            decoded += 1
        except WireError:
            errors += 1
    assert decoded + errors == 10000


def test_mutation_fuzz_never_crashes():
    rng = random.Random(7)
    for _ in range(2000):
        octets = bytearray(encode(random_packet(rng)))
        for _ in range(rng.randint(1, 4)):
            octets[rng.randrange(len(octets))] ^= 1 << rng.randrange(8)
        try:
            decode(bytes(octets))
        except WireError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decode_total_on_arbitrary_bytes(blob):
    try:
        decode(blob)
    except WireError:
        pass


def test_truncated_mid_subheader():
    octets = bytearray(encode(golden_packet("key_increment")))
    cut = octets[:20]  # into the 10-byte key-increment subheader
    cut[4:6] = len(cut).to_bytes(2, "big")  # envelope consistent with the cut
    with pytest.raises(TruncatedPacket):
        decode(bytes(cut))


def test_truncation_beats_length_mismatch():
    octets = encode(golden_packet("key_write"))
    with pytest.raises(TruncatedPacket):
        decode(octets[:10])  # shorter than the declared length


def test_trailing_garbage_is_length_mismatch():
    octets = encode(golden_packet("append")) + b"\x00"
    with pytest.raises(LengthMismatch):
        decode(octets)


def test_unknown_primitive_rejected():
    octets = bytearray(encode(golden_packet("append")))
    octets[6] = (octets[6] & 0xF0) | 0x7  # kind 7 undefined
    with pytest.raises(UnknownPrimitive):
        decode(bytes(octets))


def test_declared_key_length_must_match():
    octets = bytearray(encode(golden_packet("key_increment")))
    octets[17] = 3  # claims a 3-octet key; 2 octets remain
    with pytest.raises(LengthMismatch) as err:
        decode(bytes(octets))
    assert err.value.field == "key_len"


def test_error_names_earliest_malformed_field():
    with pytest.raises(TruncatedPacket) as err:
        decode(b"\x00\x01")
    assert err.value.field == "envelope"


def test_mtu_budget_enforced():
    with pytest.raises(ValueError):
        encode(DtaPacket(AppendBody(0, bytes(1401)), 0, 0))
    encode(DtaPacket(AppendBody(0, bytes(1400)), 0, 0))  # at the limit: fine


def test_flag_helpers():
    packet = DtaPacket(AppendBody(0, b"x"), 0, 0, flags=make_flags(essential=True))
    assert packet.essential
    assert not DtaPacket(AppendBody(0, b"x"), 0, 0, flags=make_flags()).essential


def test_encode_validates_field_ranges():
    with pytest.raises(ValueError):
        encode(DtaPacket(AppendBody(1 << 32, b"x"), 0, 0))
    with pytest.raises(ValueError):
        encode(DtaPacket(AppendBody(0, b"x"), 1 << 32, 0))
    with pytest.raises(ValueError):
        encode(DtaPacket(AppendBody(0, b"x"), 0, 0, version=16))
    with pytest.raises(ValueError):
        encode(DtaPacket(PostcardBody(0, 0, 0, path_len=0), 0, 0))


def test_injective_on_random_sample():
    rng = random.Random(5)
    packets = [random_packet(rng) for _ in range(2000)]
    encodings = {}
    for packet in packets:
        blob = encode(packet)
        if blob in encodings:
            assert encodings[blob] == packet
        encodings[blob] = packet
    assert len(encodings) == len({encode(p) for p in packets})


# The field-by-field decoder the struct-based one replaced, kept as the
# reference: on any input both must return equal packets or raise the same
# WireError subclass naming the same field.
class _Reader:
    def __init__(self, buf: bytes, offset: int):
        self.buf = buf
        self.off = offset

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.off

    def take(self, n: int, field: str) -> bytes:
        if self.remaining < n:
            raise TruncatedPacket(field, f"needs {n} octets, {self.remaining} left")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def u8(self, field: str) -> int:
        return self.take(1, field)[0]

    def u16(self, field: str) -> int:
        return struct.unpack(">H", self.take(2, field))[0]

    def u32(self, field: str) -> int:
        return struct.unpack(">I", self.take(4, field))[0]

    def u64(self, field: str) -> int:
        return struct.unpack(">Q", self.take(8, field))[0]


def _reference_decode_body(kind, r):
    if kind is Kind.KEY_WRITE:
        redundancy = r.u8("redundancy")
        key_len = r.u8("key_len")
        if r.remaining < key_len:
            raise LengthMismatch("key_len", f"declares {key_len} octets, {r.remaining} left")
        key = r.take(key_len, "key")
        return KeyWriteBody(redundancy, key, r.take(r.remaining, "value"))
    if kind is Kind.APPEND:
        list_id = r.u32("list_id")
        return AppendBody(list_id, r.take(r.remaining, "entry"))
    if kind is Kind.KEY_INCREMENT:
        redundancy = r.u8("redundancy")
        key_len = r.u8("key_len")
        delta = r.u64("delta")
        if r.remaining != key_len:
            raise LengthMismatch("key_len", f"declares {key_len} octets, {r.remaining} left")
        return KeyIncrementBody(redundancy, r.take(key_len, "key"), delta)
    if kind is Kind.SKETCH_MERGE:
        col_index = r.u16("col_index")
        rows = r.u8("rows")
        if r.remaining != 8 * rows:
            raise LengthMismatch("rows", f"declares {8 * rows} octets, {r.remaining} left")
        return SketchMergeBody(col_index, tuple(r.u64("counter") for _ in range(rows)))
    flow_id = r.u64("flow_id")
    hop = r.u8("hop")
    path_len = r.u8("path_len")
    if r.remaining != 4:
        raise LengthMismatch("value", f"needs exactly 4 octets, {r.remaining} left")
    value = r.u32("value")
    return PostcardBody(flow_id, hop, value, None if path_len == 0 else path_len)


def _reference_exact_end(r, field):
    value = r.u32(field)
    if r.remaining:
        raise LengthMismatch(field, f"{r.remaining} trailing octets")
    return value


def reference_decode(buf):
    if len(buf) < ENVELOPE_LEN:
        raise TruncatedPacket("envelope", f"needs {ENVELOPE_LEN} octets, got {len(buf)}")
    src_port, dst_port, length = struct.unpack(">HHH", buf[:ENVELOPE_LEN])
    if length > len(buf):
        raise TruncatedPacket("length", f"declares {length} octets, got {len(buf)}")
    if length < len(buf):
        raise LengthMismatch("length", f"declares {length} octets, got {len(buf)}")
    if length < ENVELOPE_LEN + 1:
        raise TruncatedPacket("version", "no room for version/kind octet")
    vk = buf[ENVELOPE_LEN]
    version, kind_value = vk >> 4, vk & 0x0F
    try:
        kind = Kind(kind_value)
    except ValueError:
        raise UnknownPrimitive("primitive", f"unknown kind {kind_value}") from None
    if kind in (Kind.NACK, Kind.SEQ_RESET, Kind.CONGESTION) and version != 1:
        raise UnknownPrimitive("version", f"control packets use version 1, got {version}")
    r = _Reader(buf, ENVELOPE_LEN + 1)

    if kind is Kind.NACK:
        return NackPacket(r.u32("reporter_id"), _reference_exact_end(r, "expected_essential_seq"),
                          src_port=src_port, dst_port=dst_port)
    if kind is Kind.SEQ_RESET:
        return SeqResetPacket(r.u32("reporter_id"), _reference_exact_end(r, "new_expected"),
                              src_port=src_port, dst_port=dst_port)
    if kind is Kind.CONGESTION:
        reporter = r.u32("reporter_id")
        action = r.u8("action")
        if r.remaining:
            raise LengthMismatch("action", f"{r.remaining} trailing octets")
        try:
            return CongestionSignal(reporter, CongestionAction(action),
                                    src_port=src_port, dst_port=dst_port)
        except ValueError:
            raise UnknownPrimitive("action", f"unknown action {action}") from None

    flags = r.u8("flags")
    reporter_id = r.u32("reporter_id")
    essential_seq = r.u32("essential_seq")
    body = _reference_decode_body(kind, r)
    return DtaPacket(body, reporter_id, essential_seq, flags, version,
                     src_port=src_port, dst_port=dst_port)


def outcome(decoder, blob):
    try:
        return decoder(blob)
    except WireError as err:
        return type(err), err.field


def with_length(octets: bytearray) -> bytes:
    """Rewrite the envelope's length field to the actual length, where it fits."""
    if len(octets) >= ENVELOPE_LEN:
        octets[4:6] = len(octets).to_bytes(2, "big")
    return bytes(octets)


U8, U16, U32, U64 = (st.integers(0, (1 << bits) - 1) for bits in (8, 16, 32, 64))
SHORT = st.binary(max_size=6)  # short payloads put every length check near its edge
BODIES = st.one_of(
    st.builds(KeyWriteBody, U8, SHORT, SHORT),
    st.builds(AppendBody, U32, SHORT),
    st.builds(KeyIncrementBody, U8, SHORT, U64),
    st.builds(SketchMergeBody, U16, st.lists(U64, max_size=3).map(tuple)),
    st.builds(PostcardBody, U64, U8, U32, st.none() | st.integers(1, 255)),
)
PACKETS = st.one_of(
    st.builds(DtaPacket, BODIES, U32, U32, U8, st.integers(0, 15), U16, U16),
    st.builds(NackPacket, U32, U32, U16, U16),
    st.builds(CongestionSignal, U32),
    st.builds(SeqResetPacket, U32, U32, U16, U16),
)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64))
def test_decode_matches_reference_on_arbitrary_bytes(blob):
    assert outcome(decode, blob) == outcome(reference_decode, blob)


@settings(max_examples=1000, deadline=None)
@given(PACKETS, st.data())
def test_decode_matches_reference_on_mutated_encodings(packet, data):
    """Every truncation of a valid encoding (length fixed up), bit flips, appended octets."""
    octets = encode(packet)
    blobs = [with_length(bytearray(octets[:cut])) for cut in range(len(octets))]
    flipped = bytearray(octets)
    for _ in range(data.draw(st.integers(1, 3))):
        flipped[data.draw(st.integers(0, len(octets) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    extra = octets + data.draw(st.binary(min_size=1, max_size=20))
    blobs += [bytes(flipped), extra, with_length(bytearray(extra))]
    for blob in blobs:
        assert outcome(decode, blob) == outcome(reference_decode, blob)
