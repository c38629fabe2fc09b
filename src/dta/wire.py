"""Bit-exact encoding of report packets and the reverse-direction controls.

A report travels reporter -> translator as a UDP-style datagram: a 6-octet
envelope (ports + total length), a one-octet version/kind field, flags, the
32-bit reporter id, the 32-bit essential-report counter, then a kind-specific
sub-header and telemetry payload.  All multi-octet fields are big-endian.
Three control kinds flow translator -> reporter: loss NACKs, congestion
signals, and the sequence-reset a reporter issues when a NACKed report has
already been evicted from its backlog.

Encoding is canonical: decode(encode(p)) == p for every valid packet, and
decode rejects any octet string encode could not have produced, naming the
earliest malformed field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Optional, Union

ENVELOPE_LEN = 6
REPORT_HEADER_LEN = 16  # envelope + version/kind + flags + reporter + seq
MAX_PAYLOAD = 1400  # single-MTU reports
DEFAULT_SRC_PORT = 40000
DEFAULT_DST_PORT = 4040

FLAG_ESSENTIAL = 0x01

_U16 = (1 << 16) - 1
_U32 = (1 << 32) - 1
_U64 = (1 << 64) - 1


class WireError(ValueError):
    """Decode failure; ``field`` names the earliest malformed field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class TruncatedPacket(WireError):
    pass


class UnknownPrimitive(WireError):
    pass


class LengthMismatch(WireError):
    pass


class Kind(IntEnum):
    KEY_WRITE = 1
    APPEND = 2
    KEY_INCREMENT = 3
    SKETCH_MERGE = 4
    POSTCARDING = 5
    SEQ_RESET = 0xD
    CONGESTION = 0xE
    NACK = 0xF


@dataclass(frozen=True)
class KeyWriteBody:
    redundancy: int
    key: bytes
    value: bytes

    kind = Kind.KEY_WRITE


@dataclass(frozen=True)
class AppendBody:
    list_id: int
    entry: bytes

    kind = Kind.APPEND


@dataclass(frozen=True)
class KeyIncrementBody:
    redundancy: int
    key: bytes
    delta: int

    kind = Kind.KEY_INCREMENT


@dataclass(frozen=True)
class SketchMergeBody:
    col_index: int
    values: tuple  # one 64-bit counter per sketch row

    kind = Kind.SKETCH_MERGE


@dataclass(frozen=True)
class PostcardBody:
    flow_id: int
    hop: int
    value: int
    path_len: Optional[int] = None

    kind = Kind.POSTCARDING


Body = Union[KeyWriteBody, AppendBody, KeyIncrementBody, SketchMergeBody, PostcardBody]


def make_flags(essential: bool = False) -> int:
    return FLAG_ESSENTIAL if essential else 0


@dataclass(frozen=True)
class DtaPacket:
    """One telemetry report.

    ``essential_seq`` is the reporter's cumulative count of essential reports
    sent; non-essential reports carry the current count without incrementing
    it, so the translator can detect gaps promptly on any traffic.
    """

    body: Body
    reporter_id: int
    essential_seq: int
    flags: int = 0
    version: int = 1
    src_port: int = DEFAULT_SRC_PORT
    dst_port: int = DEFAULT_DST_PORT

    @property
    def essential(self) -> bool:
        return bool(self.flags & FLAG_ESSENTIAL)


@dataclass(frozen=True)
class NackPacket:
    """Loss report: the translator expected this essential sequence next."""

    reporter_id: int
    expected_essential_seq: int
    src_port: int = DEFAULT_DST_PORT
    dst_port: int = DEFAULT_SRC_PORT


class CongestionAction(Enum):
    REDUCE_RATE = 1


@dataclass(frozen=True)
class CongestionSignal:
    """Translator request that a reporter reduce its report rate."""

    reporter_id: int
    action: CongestionAction = CongestionAction.REDUCE_RATE
    src_port: int = DEFAULT_DST_PORT
    dst_port: int = DEFAULT_SRC_PORT


@dataclass(frozen=True)
class SeqResetPacket:
    """Reporter notice that essential sequences below ``new_expected`` are gone.

    Sent when a NACK asks for a report already evicted from the backlog;
    without it the translator would re-request the lost report forever.
    """

    reporter_id: int
    new_expected: int
    src_port: int = DEFAULT_SRC_PORT
    dst_port: int = DEFAULT_DST_PORT


Packet = Union[DtaPacket, NackPacket, CongestionSignal, SeqResetPacket]


def _check_u(name: str, value: int, limit: int) -> int:
    if not 0 <= value <= limit:
        raise ValueError(f"{name} must be in [0, {limit}], got {value}")
    return value


def _encode_body(body: Body) -> bytes:
    if isinstance(body, KeyWriteBody):
        _check_u("redundancy", body.redundancy, 255)
        _check_u("key_len", len(body.key), 255)
        return struct.pack(">BB", body.redundancy, len(body.key)) + body.key + body.value
    if isinstance(body, AppendBody):
        return struct.pack(">I", _check_u("list_id", body.list_id, _U32)) + body.entry
    if isinstance(body, KeyIncrementBody):
        _check_u("redundancy", body.redundancy, 255)
        _check_u("key_len", len(body.key), 255)
        _check_u("delta", body.delta, _U64)
        return struct.pack(">BBQ", body.redundancy, len(body.key), body.delta) + body.key
    if isinstance(body, SketchMergeBody):
        _check_u("col_index", body.col_index, _U16)
        _check_u("rows", len(body.values), 255)
        head = struct.pack(">HB", body.col_index, len(body.values))
        return head + b"".join(
            _check_u("counter", v, _U64).to_bytes(8, "big") for v in body.values
        )
    if isinstance(body, PostcardBody):
        _check_u("flow_id", body.flow_id, _U64)
        _check_u("hop", body.hop, 255)
        path_len = 0 if body.path_len is None else _check_u("path_len", body.path_len, 255)
        if body.path_len == 0:
            raise ValueError("path_len 0 is reserved for 'not provided'; use None")
        _check_u("value", body.value, _U32)
        return struct.pack(">QBBI", body.flow_id, body.hop, path_len, body.value)
    raise TypeError(f"unknown body {body!r}")


def _envelope(src_port: int, dst_port: int, total: int) -> bytes:
    _check_u("src_port", src_port, _U16)
    _check_u("dst_port", dst_port, _U16)
    _check_u("length", total, _U16)
    return struct.pack(">HHH", src_port, dst_port, total)


def encode(packet: Packet) -> bytes:
    """Canonical octets of a report or control packet."""
    if isinstance(packet, DtaPacket):
        _check_u("version", packet.version, 15)
        _check_u("flags", packet.flags, 255)
        _check_u("reporter_id", packet.reporter_id, _U32)
        _check_u("essential_seq", packet.essential_seq, _U32)
        body = _encode_body(packet.body)
        payload_len = len(body) - _SUBHEADER_LEN[packet.body.kind]
        if payload_len > MAX_PAYLOAD:
            raise ValueError(f"payload of {payload_len}B exceeds {MAX_PAYLOAD}B MTU budget")
        rest = (
            bytes([(packet.version << 4) | packet.body.kind, packet.flags])
            + struct.pack(">II", packet.reporter_id, packet.essential_seq)
            + body
        )
    elif isinstance(packet, NackPacket):
        rest = bytes([(1 << 4) | Kind.NACK]) + struct.pack(
            ">II",
            _check_u("reporter_id", packet.reporter_id, _U32),
            _check_u("expected_essential_seq", packet.expected_essential_seq, _U32),
        )
    elif isinstance(packet, CongestionSignal):
        rest = bytes([(1 << 4) | Kind.CONGESTION]) + struct.pack(
            ">IB", _check_u("reporter_id", packet.reporter_id, _U32), packet.action.value
        )
    elif isinstance(packet, SeqResetPacket):
        rest = bytes([(1 << 4) | Kind.SEQ_RESET]) + struct.pack(
            ">II",
            _check_u("reporter_id", packet.reporter_id, _U32),
            _check_u("new_expected", packet.new_expected, _U32),
        )
    else:
        raise TypeError(f"cannot encode {packet!r}")
    return _envelope(packet.src_port, packet.dst_port, ENVELOPE_LEN + len(rest)) + rest


_SUBHEADER_LEN = {
    Kind.KEY_WRITE: 2,
    Kind.APPEND: 4,
    Kind.KEY_INCREMENT: 10,
    Kind.SKETCH_MERGE: 3,
    Kind.POSTCARDING: 14,
}


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


def _decode_body(kind: Kind, r: _Reader) -> Body:
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


def decode(buf: bytes) -> Packet:
    """Parse canonical octets back into a packet; never raises anything but WireError."""
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
        # control packets do not carry a version field; the nibble is fixed
        raise UnknownPrimitive("version", f"control packets use version 1, got {version}")
    r = _Reader(buf, ENVELOPE_LEN + 1)

    if kind is Kind.NACK:
        return NackPacket(r.u32("reporter_id"), _exact_end(r, "expected_essential_seq"),
                          src_port=src_port, dst_port=dst_port)
    if kind is Kind.SEQ_RESET:
        return SeqResetPacket(r.u32("reporter_id"), _exact_end(r, "new_expected"),
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
    body = _decode_body(kind, r)
    return DtaPacket(body, reporter_id, essential_seq, flags, version,
                     src_port=src_port, dst_port=dst_port)


def _exact_end(r: _Reader, field: str) -> int:
    value = r.u32(field)
    if r.remaining:
        raise LengthMismatch(field, f"{r.remaining} trailing octets")
    return value
