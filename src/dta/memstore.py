"""Emulated collector memory and the one-sided verb subset used against it.

The collector's NIC and registered memory are modeled as a flat byte region
plus Write and Fetch-and-Add verbs applied through a queue pair.  The
queue pair enforces strictly sequential 24-bit packet sequence numbers: any
gap desynchronizes it and every later verb is rejected until an explicit
reset, which is what makes loss on the translator-collector leg catastrophic
rather than transparent.

Single-writer contract: one logical writer (the translator) mutates a region;
readers snapshot between simulation steps.  Multi-octet values stored by
verbs are little-endian.

Verbs, built per report, are plain slotted dataclasses (a frozen field costs
about 250 ns to set).  The translator posts them one-sided and never reads a
response: applying a verb tells it only whether the verb was accepted.
``apply_verb`` applies a ``FetchAdd`` in place, as one read-modify-write of
the 8-octet counter through the precompiled ``U64LE`` struct, the sum masked
to 64 bits so it wraps past 2**64.

A region holds at most ``MAX_REGION_SIZE`` octets (1 GiB), a bound on the
memory a collector registers with its NIC; a larger one is refused before
anything is allocated.

A querier reading a store gets one ``QueryResult``: a value, nothing
(``EMPTY``), or copies that disagree (``AMBIGUOUS``).  A store refuses a
report by raising ``ValueError`` before it changes any state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Any, Union

PSN_MOD = 1 << 24
MAX_REGION_SIZE = 1 << 30
U64LE = struct.Struct("<Q")  # one 8-octet counter, little-endian
U64_MOD = 1 << 64
_U64_MASK = U64_MOD - 1
_pack_u64, _unpack_u64 = U64LE.pack_into, U64LE.unpack_from  # bound once, used per FetchAdd


class OutOfBoundsError(Exception):
    """A verb addressed memory outside the region (translator addressing bug)."""


class Outcome(Enum):
    VALUE = "value"
    EMPTY = "empty"
    AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class QueryResult:
    """A store's answer: ``value`` is a Key-Write value's octets or a Postcarding path."""

    outcome: Outcome
    value: Any = None


EMPTY = QueryResult(Outcome.EMPTY)
AMBIGUOUS = QueryResult(Outcome.AMBIGUOUS)


@dataclass
class QueuePair:
    """RDMA connection state: next expected PSN and whether a gap desynced it."""

    expected_psn: int = 0
    desynced: bool = False

    def __post_init__(self):
        self.expected_psn %= PSN_MOD


@dataclass(slots=True)
class Write:
    address: int
    payload: bytes


@dataclass(slots=True)
class FetchAdd:
    address: int
    addend: int  # unsigned 64-bit


Verb = Union[Write, FetchAdd]


class MemoryRegion:
    """Contiguous byte-addressable registered memory.

    Only verbs write ``_buf``.  A store that checked at construction that its
    whole span lies inside the region may read ``_buf`` directly.
    """

    def __init__(self, size: int):
        if not 0 <= size <= MAX_REGION_SIZE:
            raise ValueError(f"size must be in [0, {MAX_REGION_SIZE}], got {size}")
        self._buf = bytearray(size)

    @property
    def size(self) -> int:
        return len(self._buf)

    def read(self, address: int, length: int) -> bytes:
        """Read-only snapshot access; does not require a verb."""
        self._check_span(address, length)
        return bytes(self._buf[address:address + length])

    def snapshot(self) -> bytes:
        return bytes(self._buf)

    def dump(self, fh) -> None:
        """Write the raw octets to an open binary file, for oracle comparison."""
        fh.write(self._buf)

    def _check_span(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.size:
            raise OutOfBoundsError(
                f"access [{address}, {address + length}) escapes region of size {self.size}"
            )


def apply_verb(region: MemoryRegion, qp: QueuePair, psn: int, verb: Verb) -> bool:
    """Apply one verb packet with sequence number ``psn`` through ``qp``.

    Returns whether the queue pair accepted it; a rejected verb has no effect.

    The verb is checked before sequencing: a malformed verb or an out-of-range
    address is a bug regardless of queue-pair state.  A PSN mismatch on an
    open queue pair desynchronizes it; a desynced queue pair rejects
    everything until ``reset_qp``.
    """
    buf = region._buf
    cls = type(verb)
    if cls is Write:
        address = verb.address
        end = address + len(verb.payload)
        if end == address:
            raise ValueError("Write payload must be at least one octet")
    elif cls is FetchAdd:
        address = verb.address
        end = address + 8
        if address % 8 != 0:
            raise OutOfBoundsError(f"FetchAdd address {address} is not 8-octet aligned")
        if not 0 <= verb.addend < U64_MOD:
            raise ValueError(f"FetchAdd addend must be unsigned 64-bit, got {verb.addend}")
    else:
        raise TypeError(f"unknown verb {verb!r}")
    if address < 0 or end > len(buf):
        region._check_span(address, end - address)  # raises, naming the span
    if qp.desynced:
        return False
    if psn % PSN_MOD != qp.expected_psn:
        qp.desynced = True
        return False
    qp.expected_psn = (qp.expected_psn + 1) % PSN_MOD

    if cls is Write:
        buf[address:end] = verb.payload
    else:
        _pack_u64(buf, address, (_unpack_u64(buf, address)[0] + verb.addend) & _U64_MASK)
    return True


def reset_qp(qp: QueuePair, new_psn: int) -> None:
    """Re-establish the connection: open the queue pair at ``new_psn``."""
    qp.desynced = False
    qp.expected_psn = new_psn % PSN_MOD

