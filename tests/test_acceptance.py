"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary prints
one ACCEPTANCE <criterion>: PASS/FAIL line per test.  Statistical checks use
fixed seeds, exact-age Monte-Carlo sampling, and 3-sigma binomial tolerances
around the closed-form brackets, so the suite is deterministic.
"""

import math
import random
import time

import pytest

from dta import analysis
from dta.counters import (
    ColumnOutOfOrder,
    MergeOp,
    SketchMergeState,
    SketchSpec,
    sm_flush_completed,
    sm_ingest_column,
)
from dta.experiments import (
    append_reference_run,
    ki_accuracy_run,
    kw_measure_ages,
    kw_monte_carlo,
    kw_write_stream,
)
from dta.hashing import HashFamily
from dta.keywrite import KwStore, QueryPolicy
from dta.memstore import MemoryRegion
from dta import sim
from dta import wire


def sigfig2(x):
    exp = math.floor(math.log10(abs(x)))
    return round(x, 1 - exp)


def tol3(p, n):
    """Three-sigma binomial tolerance around a rate p measured over n trials."""
    return 3 * math.sqrt(max(p * (1 - p), 0.0) / n)


# ---------------------------------------------------------------------------
# Criterion: closed-form bound reproduction (exact formula evaluation, < 1 s)


def test_bound_reproduction():
    start = time.monotonic()
    for n, expected in {1: 0.095, 2: 0.033, 4: 0.012}.items():
        total = analysis.kw_no_output_bound(analysis.KwModel(n, 32, 0.1)).total
        assert sigfig2(total) == expected, (n, total)

    wrong = analysis.kw_wrong_output_bound(analysis.KwModel(2, 32, 0.1)).bound
    assert wrong <= 1.6e-11  # headline figure is quoted rounded up
    assert abs(wrong - 1.6e-11) / 1.6e-11 < 0.1

    pc = analysis.PcModel(2, 32, 0.1, hops=5, value_bits=18)
    assert analysis.pc_fail_bound(pc).total <= 0.033
    assert analysis.pc_wrong_bound(pc) < 1e-22

    per_hop_alternative = analysis.kw_multi_entry_wrong_bound(
        analysis.KwModel(2, 32, 0.1), entries=5)
    assert abs(per_hop_alternative - 8e-11) / 8e-11 < 0.1
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# Criterion: Monte-Carlo vs theory (M=2^16, 1e5 queries/point, < 2 min)

MC_ALPHAS = (0.05, 0.1, 0.5, 1.0)
MC_REDUNDANCIES = (1, 2, 4)
MC_CHECKSUM_BITS = (16, 32)
MC_QUERIES = 100_000


def test_monte_carlo_matches_theory():
    start = time.monotonic()
    failures = []
    for alpha in MC_ALPHAS:
        for n in MC_REDUNDANCIES:
            for b in MC_CHECKSUM_BITS:
                stats = kw_monte_carlo(
                    buflen=1 << 16, checksum_bits=b, value_len=4, redundancy=n,
                    alpha=alpha, queries=MC_QUERIES,
                    seed=1000 + 100 * n + b + int(alpha * 100),
                    policy=QueryPolicy.SINGLE_VALUE,
                )
                model = analysis.KwModel(n, b, alpha)
                no_out = analysis.kw_no_output_bound(model)
                wrong = analysis.kw_wrong_output_bound(model)
                point = f"alpha={alpha} N={n} b={b}"
                rate = stats.no_output_rate
                if not (no_out.lower - tol3(no_out.lower, MC_QUERIES)
                        <= rate
                        <= no_out.upper + tol3(no_out.upper, MC_QUERIES)):
                    failures.append(f"{point}: empty {rate:.6f} outside "
                                    f"[{no_out.lower:.6f}, {no_out.upper:.6f}] +-3s")
                wrate = stats.wrong_rate
                if not (wrong.lower - tol3(wrong.lower, MC_QUERIES)
                        <= wrate
                        <= wrong.upper + tol3(wrong.upper, MC_QUERIES)):
                    failures.append(f"{point}: wrong {wrate:.2e} outside "
                                    f"[{wrong.lower:.2e}, {wrong.upper:.2e}] +-3s")
    assert not failures, "\n".join(failures)
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# Criterion: longevity curve at the scaled operating point

LONGEVITY_BUFLEN = 1 << 20  # preserves the 24B-slot, 3GiB, 10M-report load factor
LONGEVITY_AGE = 78_125  # 10M reports scaled by 2^20 / 2^27
LONGEVITY_KEYS = 5 * LONGEVITY_AGE


def test_longevity_scaled_success_rate():
    store = KwStore(
        MemoryRegion(LONGEVITY_BUFLEN * 24), LONGEVITY_BUFLEN,
        checksum_bits=32, value_len=20, family=HashFamily(77),
    )
    kw_write_stream(store, 2, LONGEVITY_KEYS, seed=77)

    # queryability over all keys with up to LONGEVITY_AGE subsequent reports
    cumulative = kw_measure_ages(store, 2, LONGEVITY_KEYS, ages=[0],
                                 window=LONGEVITY_AGE, seed=77)[0]
    assert cumulative.trials == LONGEVITY_AGE
    assert abs(cumulative.success_rate - 0.993) <= 0.01

    # success must fall monotonically with age, inside and beyond that range
    fine = kw_measure_ages(store, 2, LONGEVITY_KEYS,
                           ages=[0, 26_042, 52_084], window=26_041, seed=77)
    coarse = kw_measure_ages(store, 2, LONGEVITY_KEYS,
                             ages=[0, 78_125, 156_250, 234_375],
                             window=78_125, seed=77)
    for buckets in (fine, coarse):
        rates = [b.success_rate for b in buckets]
        assert all(a >= b for a, b in zip(rates, rates[1:])), rates


# ---------------------------------------------------------------------------
# Criterion: redundancy crossover structure


def test_redundancy_crossover():
    alphas = (0.1, 0.3, 1.0, 3.0)
    best = []
    for alpha in alphas:
        rates = {}
        for n in (1, 2, 3, 4):
            stats = kw_monte_carlo(
                buflen=1 << 16, checksum_bits=32, value_len=4, redundancy=n,
                alpha=alpha, queries=20_000, seed=40 + n,
                policy=QueryPolicy.PLURALITY,
            )
            rates[n] = stats.success_rate
        best.append(max(rates, key=rates.get))
    assert best[0] >= 2, best
    assert best[-1] == 1, best
    assert all(a >= b for a, b in zip(best, best[1:])), best


# ---------------------------------------------------------------------------
# Criterion: batching transparency against the unbatched oracle

BATCH_SIZES = (1, 2, 4, 16)
ENTRY_LENS = (4, 8, 13, 18)


def test_append_batching_transparency():
    rng = random.Random(2718)
    for case in range(200):
        batch_size = BATCH_SIZES[case % 4]
        entry_len = ENTRY_LENS[(case // 4) % 4]
        lists = rng.randint(1, 2)
        capacity = batch_size * rng.randint(2, 8)
        count = rng.randint(1, 4 * lists * capacity)
        seq = [(rng.randrange(lists), rng.randbytes(entry_len)) for _ in range(count)]
        got = append_reference_run(batch_size, entry_len, lists, capacity, seq)
        oracle = append_reference_run(1, entry_len, lists, capacity, seq)
        assert got[0] == oracle[0], f"case {case}: memory differs"
        assert got[1] == oracle[1], f"case {case}: polled stream differs"


# ---------------------------------------------------------------------------
# Criterion: keyed-counter soundness and overestimate statistics


def test_count_min_soundness():
    stats = ki_accuracy_run(buflen=4096, redundancy=2, stream_len=1_000_000,
                            key_space=1 << 14, max_delta=16, seed=314)
    assert stats["violation_count"] == 0  # hard invariant, not statistical
    limit = stats["cm_exceed_limit"]
    slack = tol3(limit, stats["distinct_keys"])
    assert stats["cm_exceed_fraction"] <= limit + slack, stats


# ---------------------------------------------------------------------------
# Criterion: sketch merging equals the element-wise oracle


def test_sketch_merge_oracle():
    rng = random.Random(6174)
    rows, cols, reporters = 4, 12, 3
    for op in (MergeOp.SUM, MergeOp.MAX):
        sketches = [[[rng.randrange(1 << 24) for _ in range(rows)]
                     for _ in range(cols)] for _ in range(reporters)]
        state = SketchMergeState(SketchSpec(rows, cols, op), reporters=reporters)
        progress = [0] * reporters
        nacks = 0
        while any(p < cols for p in progress):
            r = rng.choice([i for i in range(reporters) if progress[i] < cols])
            if rng.random() < 0.15 and progress[r] + 1 < cols:
                # inject an out-of-order column; it must bounce without effect
                with pytest.raises(ColumnOutOfOrder) as refused:
                    sm_ingest_column(state, r, progress[r] + 1, sketches[r][progress[r] + 1])
                assert refused.value.expected_index == progress[r]
                nacks += 1
                continue
            sm_ingest_column(state, r, progress[r], sketches[r][progress[r]])
            progress[r] += 1
        assert nacks > 0
        fn = sum if op is MergeOp.SUM else max
        oracle = [[fn(sketches[r][c][row] for r in range(reporters))
                   for row in range(rows)] for c in range(cols)]
        assert state.columns == oracle
        assert state.complete_cols == cols
        assert len(sm_flush_completed(state, 0, 4)) == cols // 4


# ---------------------------------------------------------------------------
# Criterion: flow-control exactly-once under loss, and QP desync behavior

LOSS_RATES = (0.001, 0.01, 0.05)


def test_flow_control_exactly_once():
    for loss in LOSS_RATES:
        topo = sim.Topology(reporters=4,
                            link=sim.LinkConfig(loss, loss),
                            backlog_capacity=256)
        wl = sim.Workload(kind=sim.WorkloadKind.APPEND_EVENTS, reports=10_000,
                          essential=True, reports_per_step=32)
        report = sim.run(topo, wl, seed=51)
        assert report.drained, loss
        assert report.exactly_once_ok, loss
        assert report.unrecoverable == 0, loss
        assert report.qp_desyncs == 0, loss
        if loss > 0:
            assert report.retransmissions > 0


def test_non_essential_loss_triggers_no_nacks():
    topo = sim.Topology(reporters=4, link=sim.LinkConfig(0.05, 0.05))
    wl = sim.Workload(kind=sim.WorkloadKind.KW_FLOWS, reports=5_000,
                      essential=False, reports_per_step=32)
    report = sim.run(topo, wl, seed=52)
    assert report.packets_lost > 0
    assert report.nacks_sent == 0


def test_qp_desync_only_under_fault_injection():
    wl = sim.Workload(kind=sim.WorkloadKind.KW_FLOWS, reports=3_000,
                      essential=True, reports_per_step=64)
    lossy_reporter_leg = sim.Topology(reporters=2, link=sim.LinkConfig(0.05, 0.05))
    assert sim.run(lossy_reporter_leg, wl, seed=53).qp_desyncs == 0

    faulty_collector_leg = sim.Topology(
        reporters=2, translator=sim.TranslatorConfig(fault_drop_verbs=0.01))
    report = sim.run(faulty_collector_leg, wl, seed=53)
    assert report.verbs_faulted > 0
    assert report.qp_desyncs > 0


# ---------------------------------------------------------------------------
# Criterion: wire codec golden vectors, round-trip, and fuzz totality


def _random_packet(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        body = wire.KeyWriteBody(rng.randrange(256), rng.randbytes(rng.randrange(32)),
                                 rng.randbytes(rng.randrange(64)))
    elif kind == 1:
        body = wire.AppendBody(rng.randrange(1 << 32), rng.randbytes(rng.randrange(64)))
    elif kind == 2:
        body = wire.KeyIncrementBody(rng.randrange(256), rng.randbytes(rng.randrange(32)),
                                     rng.randrange(1 << 64))
    elif kind == 3:
        body = wire.SketchMergeBody(rng.randrange(1 << 16),
                                    tuple(rng.randrange(1 << 64)
                                          for _ in range(rng.randrange(12))))
    elif kind == 4:
        body = wire.PostcardBody(rng.randrange(1 << 64), rng.randrange(256),
                                 rng.randrange(1 << 32),
                                 rng.choice([None, rng.randrange(1, 256)]))
    else:
        return wire.NackPacket(rng.randrange(1 << 32), rng.randrange(1 << 32))
    return wire.DtaPacket(body, rng.randrange(1 << 32), rng.randrange(1 << 32),
                          flags=rng.randrange(256), version=rng.randrange(16))


def test_wire_codec():
    import json
    from pathlib import Path

    golden = json.loads((Path(__file__).parent / "data" / "golden_packets.json").read_text())
    for name, entry in golden.items():
        octets = bytes.fromhex(entry["hex"])
        assert wire.encode(wire.decode(octets)) == octets, name

    rng = random.Random(4096)
    for _ in range(10_000):
        packet = _random_packet(rng)
        assert wire.decode(wire.encode(packet)) == packet

    for _ in range(10_000):
        blob = rng.randbytes(rng.randrange(80))
        try:
            wire.decode(blob)
        except wire.WireError:
            pass
