import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dta.append import (
    AppendEngine,
    AppendList,
    PollCursor,
    append_poll,
)
from dta.experiments import append_reference_run
from dta.memstore import MemoryRegion, QueuePair, apply_verb


def make_engine(batch_size=1, capacity=16, entry_len=4, lists=1):
    region = MemoryRegion(lists * capacity * entry_len)
    engine = AppendEngine(batch_size)
    for i in range(lists):
        engine.add_list(AppendList(i, i * capacity * entry_len, capacity, entry_len))
    return region, engine


def drive(region, verbs, psn=[0]):
    qp = QueuePair()
    qp.expected_psn = psn[0] % (1 << 24)
    for verb in verbs:
        apply_verb(region, qp, psn[0] % (1 << 24), verb)
        psn[0] += 1


def entries(n, entry_len=4, seed=0):
    rng = random.Random(seed)
    return [rng.randbytes(entry_len) for _ in range(n)]


def test_batch_size_one_emits_every_ingest():
    region, engine = make_engine(batch_size=1)
    for e in entries(5):
        verbs = engine.ingest(0, e)
        assert len(verbs) == 1
        assert len(verbs[0].payload) == 4


def test_batch_size_four_counts():
    region, engine = make_engine(batch_size=4)
    emitted = []
    for e in entries(8):
        emitted += engine.ingest(0, e)
    assert len(emitted) == 2
    assert all(len(v.payload) == 4 * 4 for v in emitted)


def test_staged_entries_not_visible_until_flush():
    region, engine = make_engine(batch_size=4, capacity=16)
    cursor = PollCursor(0)
    for e in entries(3):
        drive(region, engine.ingest(0, e))
    got, skipped = append_poll(region, engine.lists[0], cursor, 10)
    assert got == [] and skipped == 0
    drive(region, engine.flush(0))
    got, _ = append_poll(region, engine.lists[0], cursor, 10)
    assert len(got) == 3


def test_poll_before_any_flush_is_empty():
    region, engine = make_engine(batch_size=2)
    got, skipped = append_poll(region, engine.lists[0], PollCursor(0), 5)
    assert got == [] and skipped == 0


def test_ring_overwrite_keeps_last_capacity_entries():
    region, engine = make_engine(batch_size=1, capacity=8)
    data = entries(11)
    for e in data:
        drive(region, engine.ingest(0, e))
    cursor = PollCursor(0)
    got, skipped = append_poll(region, engine.lists[0], cursor, 100)
    assert skipped == 3  # the first three were lapped
    assert got == data[3:]


def test_random_interleaving_matches_reference_queue():
    """Polled stream equals the FIFO oracle minus lapped and staged entries."""
    capacity = 64
    region, engine = make_engine(batch_size=4, capacity=capacity)
    lst = engine.lists[0]
    rng = random.Random(7)
    oracle = []  # every entry ever ingested, in ingest order
    cursor = PollCursor(0)
    consumed = 0
    for _ in range(10000):
        entry = rng.randbytes(4)
        drive(region, engine.ingest(0, entry))
        oracle.append(entry)
        if rng.random() < 0.05:
            want = rng.randint(1, 30)
            got, skipped = append_poll(region, lst, cursor, want)
            assert skipped == max(0, lst.total_flushed - capacity - consumed)
            consumed += skipped
            assert len(got) == min(want, lst.total_flushed - consumed)
            assert got == oracle[consumed:consumed + len(got)]
            consumed += len(got)
    drive(region, engine.flush(0))
    got, skipped = append_poll(region, lst, cursor, 10 ** 6)
    consumed += skipped
    assert got == oracle[consumed:]  # after the flush everything is reachable


def test_multi_list_isolation():
    lists = 3
    region, engine = make_engine(batch_size=2, capacity=8, lists=lists)
    rng = random.Random(9)
    per_list = {i: [] for i in range(lists)}
    for _ in range(60):
        lid = rng.randrange(lists)
        e = rng.randbytes(4)
        per_list[lid].append(e)
        drive(region, engine.ingest(lid, e))
    for lid in range(lists):
        drive(region, engine.flush(lid))
        got, _ = append_poll(region, engine.lists[lid], PollCursor(lid), 1000)
        assert got == per_list[lid][-8:]


def test_flush_then_wrap_splits_write():
    region, engine = make_engine(batch_size=4, capacity=8)
    for e in entries(3, seed=1):
        engine.ingest(0, e)
    assert len(engine.flush(0)) == 1  # head now at 3, off the batch grid
    for e in entries(4, seed=2):
        verbs = engine.ingest(0, e)
    assert engine.lists[0].head == 7
    final = []
    for e in entries(4, seed=3):
        final += engine.ingest(0, e)
    assert len(final) == 2  # 8-boundary straddle: one byte run split in two
    assert final[0].payload + final[1].payload == b"".join(entries(4, seed=3))


def test_batching_transparency_random_cases():
    rng = random.Random(42)
    for _ in range(25):
        batch = rng.choice([1, 2, 4, 16])
        entry_len = rng.choice([4, 8, 13, 18])
        lists = rng.randint(1, 3)
        capacity = batch * rng.randint(2, 6)
        seq = [(rng.randrange(lists), rng.randbytes(entry_len))
               for _ in range(rng.randint(1, 3 * lists * capacity))]
        assert append_reference_run(batch, entry_len, lists, capacity, seq) == \
            append_reference_run(1, entry_len, lists, capacity, seq)


@given(st.integers(1, 6), st.lists(st.binary(min_size=2, max_size=2), max_size=40))
@settings(max_examples=50, deadline=None)
def test_batching_transparency_property(batch_size, items):
    seq = [(0, e) for e in items]
    assert append_reference_run(batch_size, 2, 1, batch_size * 4, seq) == \
        append_reference_run(1, 2, 1, batch_size * 4, seq)


def test_contiguous_occupancy_after_full_batches():
    region, engine = make_engine(batch_size=4, capacity=16)
    for e in entries(8, seed=5):
        drive(region, engine.ingest(0, e))
    raw = region.snapshot()
    assert raw[:32] != bytes(32)  # two batches written
    assert raw[32:] == bytes(len(raw) - 32)  # nothing beyond the head


def test_error_paths():
    region, engine = make_engine(batch_size=2, entry_len=4)
    with pytest.raises(ValueError, match="no list 9"):
        engine.ingest(9, b"\x00" * 4)
    with pytest.raises(ValueError, match="expected 4B entry, got 3B"):
        engine.ingest(0, b"\x00" * 3)
    with pytest.raises(ValueError):
        engine.add_list(AppendList(5, 0, capacity=7, entry_len=4))  # not a multiple
    with pytest.raises(ValueError):
        append_poll(region, engine.lists[0], PollCursor(3), 1)
