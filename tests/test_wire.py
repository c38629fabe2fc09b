import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dta.wire import (
    AppendBody,
    CongestionSignal,
    DtaPacket,
    KeyIncrementBody,
    KeyWriteBody,
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
