"""Bit-exact encoding of report packets and the control packets.

A report travels reporter -> translator as a UDP-style datagram: a 6-octet
envelope (ports + total length), a one-octet version/kind field, flags, the
32-bit reporter id, the 32-bit essential-report counter, then a kind-specific
sub-header and telemetry payload.  All multi-octet fields are big-endian.
Two control kinds flow translator -> reporter: loss NACKs and congestion
signals.  A third, the sequence reset, flows reporter -> translator as a
report does; a reporter sends it when a NACKed report has already been
evicted from its backlog.

``LAYOUT`` is the one place the formats live: for each kind, its fixed fields
after the envelope and version/kind octet, by name and struct code.  encode
and decode each run one precompiled ``struct.Struct`` per packet built from
it, and decode walks it, on its failure path only, to name the field that does
not fit.

Encoding is canonical: decode(encode(p)) == p for every valid packet, and
decode rejects any octet string encode could not have produced, naming the
earliest malformed field.

Reports and bodies, built per report, are plain slotted dataclasses (a frozen
field costs about 250 ns to set); the rare control packets stay frozen.  encode
and decode test kinds as plain ints: on Python 3.11 reading an enum member such
as ``Kind.APPEND`` costs about 100 ns, several times a module global.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Union

ENVELOPE_LEN = 6
MAX_PAYLOAD = 1400  # single-MTU reports
DEFAULT_SRC_PORT = 40000
DEFAULT_DST_PORT = 4040

FLAG_ESSENTIAL = 0x01

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


@dataclass(slots=True)
class KeyWriteBody:
    redundancy: int
    key: bytes
    value: bytes


@dataclass(slots=True)
class AppendBody:
    list_id: int
    entry: bytes


@dataclass(slots=True)
class KeyIncrementBody:
    redundancy: int
    key: bytes
    delta: int


@dataclass(slots=True)
class SketchMergeBody:
    col_index: int
    values: tuple  # one 64-bit counter per sketch row


@dataclass(slots=True)
class PostcardBody:
    flow_id: int
    hop: int
    value: int
    path_len: Optional[int] = None


Body = Union[KeyWriteBody, AppendBody, KeyIncrementBody, SketchMergeBody, PostcardBody]


def make_flags(essential: bool = False) -> int:
    return FLAG_ESSENTIAL if essential else 0


@dataclass(slots=True)
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


@dataclass(frozen=True, slots=True)
class NackPacket:
    """Loss report: the translator expected this essential sequence next."""

    reporter_id: int
    expected_essential_seq: int
    src_port: int = DEFAULT_DST_PORT
    dst_port: int = DEFAULT_SRC_PORT


REDUCE_RATE = 1  # a congestion signal's action octet: the one action defined


@dataclass(frozen=True, slots=True)
class CongestionSignal:
    """Translator request that a reporter reduce its report rate."""

    reporter_id: int
    src_port: int = DEFAULT_DST_PORT
    dst_port: int = DEFAULT_SRC_PORT


@dataclass(frozen=True, slots=True)
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


# The wire formats, one entry per kind: the fields that follow the 6-octet
# envelope (src port, dst port, total length) and the version/kind octet, in
# wire order, as (name, struct code).  Each code's width is the field's range.
# What follows these fields is variable: Key-Write's key then value (the rest),
# Append's entry (the rest), Key-Increment's key (exactly key_len octets) and
# Sketch-Merge's counters (exactly rows u64s).  Every other kind ends with its
# last field.  encode and decode both run on the structs compiled from here.
_REPORT_HEADER = (("flags", "B"), ("reporter_id", "I"), ("essential_seq", "I"))
LAYOUT = {
    Kind.KEY_WRITE: _REPORT_HEADER + (("redundancy", "B"), ("key_len", "B")),
    Kind.APPEND: _REPORT_HEADER + (("list_id", "I"),),
    Kind.KEY_INCREMENT: _REPORT_HEADER + (("redundancy", "B"), ("key_len", "B"), ("delta", "Q")),
    Kind.SKETCH_MERGE: _REPORT_HEADER + (("col_index", "H"), ("rows", "B")),
    Kind.POSTCARDING: _REPORT_HEADER + (("flow_id", "Q"), ("hop", "B"), ("path_len", "B"),
                                        ("value", "I")),
    Kind.NACK: (("reporter_id", "I"), ("expected_essential_seq", "I")),
    Kind.SEQ_RESET: (("reporter_id", "I"), ("new_expected", "I")),
    Kind.CONGESTION: (("reporter_id", "I"), ("action", "B")),
}
_ENVELOPE = (("src_port", "H"), ("dst_port", "H"), ("length", "H"), ("version/kind", "B"))
# one struct per kind, indexed by the kind nibble (None: no such kind)
_STRUCT = tuple(LAYOUT.get(v) and struct.Struct(">" + "".join(
    code for _, code in _ENVELOPE + LAYOUT[v])) for v in range(16))
(_KEY_WRITE, _APPEND, _KEY_INCREMENT, _SKETCH_MERGE, _POSTCARDING, _SEQ_RESET, _CONGESTION,
 _NACK) = map(int, Kind)  # every member, in Kind's order


def _check_u(name: str, value: int, limit: int) -> None:
    if not 0 <= value <= limit:
        raise ValueError(f"{name} must be in [0, {limit}], got {value}")


def encode(packet: Packet) -> bytes:
    """Canonical octets of a report or control packet; ValueError names a field out of range."""
    p, tail, version = packet, b"", 1
    cls = type(p)
    if cls is DtaPacket:
        body, version = p.body, p.version
        cls = type(body)
        if cls is AppendBody:
            kind, tail = _APPEND, body.entry
            fields = (p.flags, p.reporter_id, p.essential_seq, body.list_id)
        elif cls is KeyIncrementBody:
            kind, tail = _KEY_INCREMENT, body.key
            fields = (p.flags, p.reporter_id, p.essential_seq, body.redundancy, len(tail),
                      body.delta)
        elif cls is KeyWriteBody:
            kind, tail = _KEY_WRITE, body.key + body.value
            fields = (p.flags, p.reporter_id, p.essential_seq, body.redundancy, len(body.key))
        elif cls is SketchMergeBody:
            kind = _SKETCH_MERGE
            fields = (p.flags, p.reporter_id, p.essential_seq, body.col_index, len(body.values))
            try:
                tail = struct.pack(f">{len(body.values)}Q", *body.values)
            except struct.error:
                for v in body.values:
                    _check_u("counter", v, _U64)
                raise
        elif cls is PostcardBody:
            if body.path_len == 0:
                raise ValueError("path_len 0 is reserved for 'not provided'; use None")
            kind = _POSTCARDING
            fields = (p.flags, p.reporter_id, p.essential_seq, body.flow_id, body.hop,
                      body.path_len or 0, body.value)
        else:
            raise TypeError(f"unknown body {body!r}")
        if len(tail) > MAX_PAYLOAD:
            raise ValueError(f"payload of {len(tail)}B exceeds {MAX_PAYLOAD}B MTU budget")
    elif cls is NackPacket:
        kind, fields = _NACK, (p.reporter_id, p.expected_essential_seq)
    elif cls is CongestionSignal:
        kind, fields = _CONGESTION, (p.reporter_id, REDUCE_RATE)
    elif cls is SeqResetPacket:
        kind, fields = _SEQ_RESET, (p.reporter_id, p.new_expected)
    else:
        raise TypeError(f"cannot encode {packet!r}")
    layout = _STRUCT[kind]
    try:
        return layout.pack(p.src_port, p.dst_port, layout.size + len(tail), version << 4 | kind,
                           *fields) + tail
    except struct.error:
        _check_u("version", version, 15)
        head = (p.src_port, p.dst_port, layout.size + len(tail), version << 4 | kind)
        for (name, code), value in zip(_ENVELOPE + LAYOUT[kind], head + fields):
            _check_u(name, value, (1 << 8 * struct.calcsize(code)) - 1)
        raise


def _too_short(kind: int, n: int) -> WireError:
    """Decode's error for ``n`` octets, too few for ``kind``: the first field that does not fit."""
    offset = ENVELOPE_LEN + 1
    for name, code in LAYOUT[kind]:
        size = struct.calcsize(code)
        if n - offset < size:
            if kind == Kind.POSTCARDING and name == "value":
                # the value is checked as the length of the rest, like a payload
                return LengthMismatch("value", f"needs exactly 4 octets, {n - offset} left")
            return TruncatedPacket(name, f"needs {size} octets, {n - offset} left")
        offset += size


def decode(buf: bytes) -> Packet:
    """Parse canonical octets back into a packet; never raises anything but WireError.

    Checks run in wire order, so the error names the earliest malformed field.
    """
    n = len(buf)
    if n < ENVELOPE_LEN:
        raise TruncatedPacket("envelope", f"needs {ENVELOPE_LEN} octets, got {n}")
    length = buf[4] << 8 | buf[5]
    if length != n:
        if length > n:
            raise TruncatedPacket("length", f"declares {length} octets, got {n}")
        raise LengthMismatch("length", f"declares {length} octets, got {n}")
    if n == ENVELOPE_LEN:
        raise TruncatedPacket("version", "no room for version/kind octet")
    vk = buf[ENVELOPE_LEN]
    kind = vk & 0x0F
    layout = _STRUCT[kind]
    if layout is None:
        raise UnknownPrimitive("primitive", f"unknown kind {kind}")
    if kind >= _SEQ_RESET and vk >> 4 != 1:
        raise UnknownPrimitive("version", f"control packets use version 1, got {vk >> 4}")
    size = layout.size
    if n < size:
        raise _too_short(kind, n)
    f = layout.unpack_from(buf)

    if kind == _APPEND:
        body = AppendBody(f[7], buf[size:])
    elif kind == _KEY_INCREMENT:
        if n - size != f[8]:
            raise LengthMismatch("key_len", f"declares {f[8]} octets, {n - size} left")
        body = KeyIncrementBody(f[7], buf[size:], f[9])
    elif kind == _KEY_WRITE:
        key_end = size + f[8]
        if key_end > n:
            raise LengthMismatch("key_len", f"declares {f[8]} octets, {n - size} left")
        body = KeyWriteBody(f[7], buf[size:key_end], buf[key_end:])
    elif kind == _SKETCH_MERGE:
        rows = f[8]
        if n - size != 8 * rows:
            raise LengthMismatch("rows", f"declares {8 * rows} octets, {n - size} left")
        body = SketchMergeBody(f[7], struct.unpack_from(f">{rows}Q", buf, size))
    else:
        if n != size:
            field = LAYOUT[kind][-1][0]
            raise LengthMismatch(field, f"{n - size} trailing octets")
        if kind == _NACK:
            return NackPacket(f[4], f[5], f[0], f[1])
        if kind == _SEQ_RESET:
            return SeqResetPacket(f[4], f[5], f[0], f[1])
        if kind == _CONGESTION:
            if f[5] != REDUCE_RATE:
                raise UnknownPrimitive("action", f"unknown action {f[5]}")
            return CongestionSignal(f[4], f[0], f[1])
        body = PostcardBody(f[7], f[8], f[10], f[9] or None)
    return DtaPacket(body, f[5], f[6], f[4], vk >> 4, f[0], f[1])
