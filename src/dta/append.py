"""Ring-buffer lists with translator-side batching and collector-side polling.

Each list is a pre-allocated ring of fixed-size entries in collector memory.
The translator stages incoming entries per list and ships them as one write
per full batch, advancing a per-list head pointer that wraps at the ring
capacity.  Batching is transparent: after all full batches have flushed, the
memory is byte-identical to what unbatched insertion would have produced.

A poll cursor reads entries back in FIFO order without consuming them; when
the writer laps a slow reader, the cursor fast-forwards to the oldest
surviving entry and reports how many were skipped.  Entries still staged at
the translator are not yet visible to polls.
"""

from __future__ import annotations

from dataclasses import dataclass

from .memstore import MemoryRegion, Write


class BadEntryLength(ValueError):
    """Entry does not match the list's fixed entry width."""


class UnknownList(ValueError):
    """No list registered under this id."""


@dataclass
class AppendList:
    """One ring buffer: geometry plus the writer's progress.

    ``total_flushed`` counts entries ever written; the head entry offset is
    its remainder modulo capacity.
    """

    list_id: int
    base: int
    capacity: int
    entry_len: int
    total_flushed: int = 0

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.entry_len < 1:
            raise ValueError(f"entry_len must be >= 1, got {self.entry_len}")

    @property
    def head(self) -> int:
        return self.total_flushed % self.capacity


@dataclass
class PollCursor:
    """Reader position in one list; ``consumed`` is monotone like the writer's count."""

    list_id: int
    consumed: int = 0


class AppendEngine:
    """Translator-side state for all lists sharing one batch size.

    Staged entries live in per-list batch buffers holding at most
    batch_size - 1 entries; the batch-completing entry triggers the write.
    Ring capacities must be a multiple of the batch size so full batches
    never straddle the ring boundary; a write that does straddle it (only
    possible after an explicit partial flush) is split in two.
    """

    def __init__(self, batch_size: int = 1):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.lists: dict[int, AppendList] = {}
        self._staged: dict[int, list[bytes]] = {}

    def add_list(self, lst: AppendList) -> None:
        if lst.capacity % self.batch_size != 0:
            raise ValueError(
                f"capacity {lst.capacity} not a multiple of batch size {self.batch_size}"
            )
        self.lists[lst.list_id] = lst
        self._staged[lst.list_id] = []

    def staged_count(self, list_id: int) -> int:
        return len(self._staged[list_id])

    def _emit(self, lst: AppendList, entries: list[bytes]) -> list[Write]:
        """Write ``entries`` at the head, splitting at the ring boundary."""
        data = b"".join(entries)
        start = lst.head
        lst.total_flushed += len(entries)
        room = (lst.capacity - start) * lst.entry_len
        addr = lst.base + start * lst.entry_len
        if len(data) <= room:
            return [Write(addr, data)]
        return [Write(addr, data[:room]), Write(lst.base, data[room:])]

    def ingest(self, list_id: int, entry: bytes) -> list[Write]:
        """Stage one entry; returns the batch write when this entry completes one."""
        lst = self.lists.get(list_id)
        if lst is None:
            raise UnknownList(list_id)
        if len(entry) != lst.entry_len:
            raise BadEntryLength(f"expected {lst.entry_len}B entry, got {len(entry)}B")
        staged = self._staged[list_id]
        if len(staged) + 1 == self.batch_size:
            batch = staged + [entry]
            staged.clear()
            return self._emit(lst, batch)
        staged.append(entry)
        return []

    def flush(self, list_id: int) -> list[Write]:
        """Drain the list's staged entries as one (possibly partial) batch.

        Never called implicitly; experiments use it to make all ingested
        entries visible before comparing memory or polling.
        """
        lst = self.lists.get(list_id)
        if lst is None:
            raise UnknownList(list_id)
        staged = self._staged[list_id]
        if not staged:
            return []
        batch = list(staged)
        staged.clear()
        return self._emit(lst, batch)


def append_poll(
    region: MemoryRegion, lst: AppendList, cursor: PollCursor, max_entries: int
) -> tuple[list[bytes], int]:
    """Read up to ``max_entries`` flushed entries in FIFO order.

    Returns (entries, skipped) where skipped counts entries lost to writer
    overrun before the cursor could reach them.  Data stays in place; only
    the cursor moves.
    """
    if cursor.list_id != lst.list_id:
        raise ValueError(f"cursor belongs to list {cursor.list_id}, not {lst.list_id}")
    skipped = 0
    oldest = lst.total_flushed - lst.capacity
    if cursor.consumed < oldest:
        skipped = oldest - cursor.consumed
        cursor.consumed = oldest
    entries = []
    while cursor.consumed < lst.total_flushed and len(entries) < max_entries:
        offset = cursor.consumed % lst.capacity
        entries.append(region.read(lst.base + offset * lst.entry_len, lst.entry_len))
        cursor.consumed += 1
    return entries, skipped
