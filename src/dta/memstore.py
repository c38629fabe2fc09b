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
about 250 ns to set); the ``VerbResult`` instances shared by calls stay frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

PSN_MOD = 1 << 24
_U64_MOD = 1 << 64


class OutOfBoundsError(Exception):
    """A verb addressed memory outside the region (translator addressing bug)."""


class QpState(Enum):
    OPEN = "open"
    DESYNCED = "desynced"


@dataclass
class QueuePair:
    """RDMA connection state: next expected PSN and open/desynced flag."""

    expected_psn: int = 0
    state: QpState = QpState.OPEN

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


@dataclass(frozen=True)
class VerbResult:
    """Outcome of presenting one verb packet to the queue pair.

    ``accepted`` is False when the verb was rejected by PSN state (the verb
    had no effect).  ``old_value`` carries the pre-add counter for FetchAdd.
    """

    accepted: bool
    old_value: Optional[int] = None


_ACCEPTED = VerbResult(True)
_REJECTED = VerbResult(False)


class MemoryRegion:
    """Contiguous byte-addressable registered memory."""

    def __init__(self, size: int):
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
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

    def dump(self, path) -> None:
        """Write the raw octets to a binary file for oracle comparison."""
        with open(path, "wb") as fh:
            fh.write(self._buf)

    def _check_span(self, address: int, length: int) -> None:
        if address < 0 or length < 0 or address + length > self.size:
            raise OutOfBoundsError(
                f"access [{address}, {address + length}) escapes region of size {self.size}"
            )


def apply_verb(region: MemoryRegion, qp: QueuePair, psn: int, verb: Verb) -> VerbResult:
    """Apply one verb packet with sequence number ``psn`` through ``qp``.

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
        if not 0 <= verb.addend < _U64_MOD:
            raise ValueError(f"FetchAdd addend must be unsigned 64-bit, got {verb.addend}")
    else:
        raise TypeError(f"unknown verb {verb!r}")
    if address < 0 or end > len(buf):
        region._check_span(address, end - address)  # raises, naming the span
    if qp.state is QpState.DESYNCED:
        return _REJECTED
    if psn % PSN_MOD != qp.expected_psn:
        qp.state = QpState.DESYNCED
        return _REJECTED
    qp.expected_psn = (qp.expected_psn + 1) % PSN_MOD

    if cls is Write:
        buf[address:end] = verb.payload
        return _ACCEPTED
    old = int.from_bytes(buf[address:end], "little")
    buf[address:end] = ((old + verb.addend) % _U64_MOD).to_bytes(8, "little")
    return VerbResult(True, old)


def reset_qp(qp: QueuePair, new_psn: int) -> None:
    """Re-establish the connection: open the queue pair at ``new_psn``."""
    qp.state = QpState.OPEN
    qp.expected_psn = new_psn % PSN_MOD

