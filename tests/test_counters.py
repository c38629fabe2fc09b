import random

import pytest

from dta.counters import (
    COUNTER_LEN,
    ColumnOutOfOrder,
    KiStore,
    MergeOp,
    SketchMergeState,
    SketchSpec,
    ki_increment,
    ki_query,
    sm_flush_completed,
    sm_ingest_column,
)
from dta.hashing import HashFamily
from dta.memstore import MemoryRegion, QueuePair, apply_verb


def make_store(buflen=256, seed=4):
    region = MemoryRegion(buflen * COUNTER_LEN)
    return KiStore(region, buflen, family=HashFamily(seed))


def drive(store, verbs):
    qp = QueuePair()
    for psn, verb in enumerate(verbs):
        apply_verb(store.region, qp, psn, verb)


def test_fresh_store_queries_zero():
    store = make_store()
    assert ki_query(store, b"nothing", 2) == 0


def test_zero_delta_changes_nothing():
    store = make_store()
    before = store.region.snapshot()
    drive(store, ki_increment(store, b"key", 0, 2))
    assert store.region.snapshot() == before


def test_single_key_exact():
    store = make_store()
    verbs = []
    for _ in range(7):
        verbs += ki_increment(store, b"key", 1, 2)
    drive(store, verbs)
    assert ki_query(store, b"key", 2) == 7


def test_never_underestimates_vs_exact_map():
    store = make_store(buflen=512)
    rng = random.Random(12)
    exact: dict[bytes, int] = {}
    verbs = []
    for _ in range(10000):
        key = rng.randrange(200).to_bytes(4, "big")
        delta = rng.randint(0, 15)
        exact[key] = exact.get(key, 0) + delta
        verbs += ki_increment(store, key, delta, 2)
    drive(store, verbs)
    for key, true_count in exact.items():
        assert ki_query(store, key, 2) >= true_count


def test_overestimates_bounded_like_count_min():
    from dta.experiments import ki_accuracy_run

    stats = ki_accuracy_run(buflen=4096, redundancy=2, stream_len=20000,
                            key_space=1 << 12, max_delta=8, seed=3)
    assert stats["violation_count"] == 0
    # P[overestimate > e*N*S/M] <= e^-N, with binomial slack
    limit = stats["cm_exceed_limit"]
    sigma = (limit * (1 - limit) / stats["distinct_keys"]) ** 0.5
    assert stats["cm_exceed_fraction"] <= limit + 3 * sigma


def test_ki_validation():
    store = make_store()
    with pytest.raises(ValueError):
        ki_increment(store, b"k", -1, 2)
    with pytest.raises(ValueError):
        ki_increment(store, b"k", 1, 0)


# ---------------------------------------------------------------------------
# Sketch-Merge


def random_sketch(rng, rows, cols):
    return [[rng.randrange(1 << 16) for _ in range(rows)] for _ in range(cols)]


def feed_in_order(state, reporter, sketch):
    for col, values in enumerate(sketch):
        assert sm_ingest_column(state, reporter, col, values) is None


def test_single_reporter_all_columns_complete():
    state = SketchMergeState(SketchSpec(4, 8), reporters=1)
    sketch = random_sketch(random.Random(0), 4, 8)
    feed_in_order(state, 0, sketch)
    assert state.complete_cols == state.spec.cols
    assert state.columns == sketch


def test_out_of_order_column_nacked_without_state_change():
    state = SketchMergeState(SketchSpec(2, 4), reporters=1)
    sm_ingest_column(state, 0, 0, [1, 1])
    before = [list(c) for c in state.columns]
    with pytest.raises(ColumnOutOfOrder) as refused:
        sm_ingest_column(state, 0, 2, [9, 9])
    assert refused.value.expected_index == 1
    assert state.columns == before
    assert state.merged_count[2] == 0


def test_nacked_column_recovers_to_loss_free_result():
    spec = SketchSpec(3, 5)
    rng = random.Random(3)
    sketches = [random_sketch(rng, 3, 5) for _ in range(2)]

    clean = SketchMergeState(spec, reporters=2)
    for r, sketch in enumerate(sketches):
        feed_in_order(clean, r, sketch)

    lossy = SketchMergeState(spec, reporters=2)
    feed_in_order(lossy, 0, sketches[0])
    # reporter 1 skips column 1, gets refused, then resends in order
    assert sm_ingest_column(lossy, 1, 0, sketches[1][0]) is None
    with pytest.raises(ColumnOutOfOrder) as refused:
        sm_ingest_column(lossy, 1, 2, sketches[1][2])
    assert refused.value.expected_index == 1
    for col in (1, 2, 3, 4):
        assert sm_ingest_column(lossy, 1, col, sketches[1][col]) is None
    assert lossy.columns == clean.columns
    assert lossy.complete_cols == clean.complete_cols


@pytest.mark.parametrize("op", [MergeOp.SUM, MergeOp.MAX])
def test_merge_matches_element_wise_oracle_under_interleaving(op):
    rows, cols, reporters = 4, 6, 3
    rng = random.Random(17)
    sketches = [random_sketch(rng, rows, cols) for _ in range(reporters)]
    state = SketchMergeState(SketchSpec(rows, cols, op), reporters=reporters)

    progress = [0] * reporters
    while any(p < cols for p in progress):
        r = rng.choice([i for i in range(reporters) if progress[i] < cols])
        assert sm_ingest_column(state, r, progress[r], sketches[r][progress[r]]) is None
        progress[r] += 1
        assert state.complete_cols == min(progress)  # the prefix every reporter has merged

    fn = sum if op is MergeOp.SUM else max
    oracle = [[fn(sketches[r][c][row] for r in range(reporters))
               for row in range(rows)] for c in range(cols)]
    assert state.columns == oracle
    assert state.complete_cols == state.spec.cols


def test_merge_invariant_under_reporter_permutation():
    rows, cols = 2, 4
    rng = random.Random(5)
    sketches = [random_sketch(rng, rows, cols) for _ in range(3)]
    results = []
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
        state = SketchMergeState(SketchSpec(rows, cols), reporters=3)
        for r in order:
            feed_in_order(state, r, sketches[r])
        results.append(state.columns)
    assert results[0] == results[1] == results[2]


def test_flush_batches_and_serialization_oracle():
    rows, cols, w_batch = 4, 8, 4
    rng = random.Random(8)
    sketch = random_sketch(rng, rows, cols)
    state = SketchMergeState(SketchSpec(rows, cols), reporters=1)
    region = MemoryRegion(rows * cols * COUNTER_LEN)
    qp = QueuePair()
    psn = 0
    verbs_seen = 0
    for col, values in enumerate(sketch):
        sm_ingest_column(state, 0, col, values)
        for verb in sm_flush_completed(state, 0, w_batch):
            verbs_seen += 1
            apply_verb(region, qp, psn, verb)
            psn += 1
    assert verbs_seen == cols // w_batch
    oracle = b"".join(v.to_bytes(8, "little") for col in sketch for v in col)
    assert region.snapshot() == oracle


def test_flush_one_verb_per_column_when_batch_is_one():
    state = SketchMergeState(SketchSpec(2, 3), reporters=1)
    region = MemoryRegion(2 * 3 * COUNTER_LEN)
    total = []
    for col in range(3):
        sm_ingest_column(state, 0, col, [col, col])
        total += sm_flush_completed(state, 0, 1)
    assert len(total) == 3


def test_partial_tail_batch_flushes_only_at_completion():
    state = SketchMergeState(SketchSpec(2, 5), reporters=1)
    for col in range(4):
        sm_ingest_column(state, 0, col, [1, 1])
    assert len(sm_flush_completed(state, 0, 4)) == 1  # first full batch
    assert sm_flush_completed(state, 0, 4) == []  # tail not complete yet
    sm_ingest_column(state, 0, 4, [1, 1])
    assert len(sm_flush_completed(state, 0, 4)) == 1  # final short batch
