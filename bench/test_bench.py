"""Tests of the benchmark itself: each output check fails on a broken output.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dta import analysis, experiments, sim

import checks
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _flip_one_byte(simulation: sim.Simulation) -> str:
    image = bytearray(simulation.translator.region.snapshot())
    image[len(image) // 2] ^= 0x01
    return hashlib.sha256(image).hexdigest()


@pytest.fixture(scope="module")
def ki_run():
    workload = sim.Workload(sim.WorkloadKind.KI_COUNTERS, reports=400,
                            reports_per_step=workloads.KI_RATE)
    simulation = sim.Simulation(workloads.ki_lossy_topology(), workload, 5)
    report = simulation.run()
    loss_free = sim.run(workloads.ki_lossy_topology(loss=0.0), workload, 5).memory_sha256
    return simulation, report, loss_free


@pytest.fixture(scope="module")
def append_run():
    workload = sim.Workload(sim.WorkloadKind.APPEND_EVENTS, reports=160)
    simulation = sim.Simulation(workloads.append_bulk_topology(), workload, 5)
    report = simulation.run()
    unbatched = sim.run(workloads.append_bulk_topology(batch_size=1), workload, 5).memory_sha256
    return simulation, report, unbatched


def test_ki_lossy_passes_on_real_output(ki_run):
    _, report, loss_free = ki_run
    assert report.packets_lost > 0  # the link really dropped packets
    assert checks.ki_lossy(report, 2, loss_free) == []


def test_ki_lossy_fails_on_flipped_byte(ki_run):
    simulation, report, loss_free = ki_run
    broken = dataclasses.replace(report, memory_sha256=_flip_one_byte(simulation))
    assert checks.ki_lossy(broken, 2, loss_free) == ["memory differs from the loss-free run"]


def test_ki_lossy_fails_on_miscounted_verbs(ki_run):
    _, report, loss_free = ki_run
    broken = dataclasses.replace(report, verbs_applied=report.verbs_applied - 1)
    assert len(checks.ki_lossy(broken, 2, loss_free)) == 1


def test_ki_lossy_fails_on_lost_reports(ki_run):
    _, report, loss_free = ki_run
    broken = dataclasses.replace(report, reports_applied=report.reports_applied - 1,
                                 verbs_applied=report.verbs_applied - 2, unrecoverable=1)
    assert len(checks.ki_lossy(broken, 2, loss_free)) == 2
    assert checks.sim_drained(dataclasses.replace(report, drained=False)) == [
        "run did not drain"]


def test_append_bulk_passes_on_real_output(append_run):
    _, report, unbatched = append_run
    assert checks.append_bulk(report, 4, unbatched) == []


def test_append_bulk_fails_on_flipped_byte(append_run):
    simulation, report, unbatched = append_run
    broken = dataclasses.replace(report, memory_sha256=_flip_one_byte(simulation))
    assert checks.append_bulk(broken, 4, unbatched) == ["memory differs from the unbatched run"]


def test_append_bulk_fails_on_miscounted_verbs(append_run):
    _, report, unbatched = append_run
    broken = dataclasses.replace(report, verbs_applied=report.verbs_applied + 1)
    assert len(checks.append_bulk(broken, 4, unbatched)) == 1


def test_append_bulk_catches_entries_left_staged():
    """A stream that is not a whole number of batches leaves entries unwritten."""
    workload = sim.Workload(sim.WorkloadKind.APPEND_EVENTS, reports=7)
    report = sim.run(workloads.append_bulk_topology(), workload, 5)
    unbatched = sim.run(workloads.append_bulk_topology(batch_size=1), workload, 5)
    assert len(checks.append_bulk(report, 4, unbatched.memory_sha256)) == 2


def _kw(no_output: float, wrong: int = 0, trials: int = 100_000):
    empty = round(no_output * trials)
    return experiments.KwMcStats(trials, trials - empty - wrong, empty, 0, wrong)


def _pc(fail: float, wrong: int = 0, trials: int = 20_000):
    empty = round(fail * trials)
    return experiments.PcMcStats(trials, trials - empty - wrong, empty, 0, wrong)


def test_kw_check_brackets_the_model():
    bound = analysis.kw_no_output_bound(analysis.KwModel(2, 32, 0.1))
    assert checks.kw_stats(_kw(bound.total), 2, 32, 0.1) == []
    assert len(checks.kw_stats(_kw(bound.upper * 1.15), 2, 32, 0.1)) == 1
    assert len(checks.kw_stats(_kw(bound.lower * 0.85), 2, 32, 0.1)) == 1
    assert checks.kw_stats(_kw(bound.total, wrong=1), 2, 32, 0.1) == [
        "kw returned 1 wrong outputs"]


def test_pc_check_bounds_the_failure_rate():
    total = analysis.pc_fail_bound(analysis.PcModel(2, 32, 0.1, 5, 18)).total
    assert checks.pc_stats(_pc(total), 2, 32, 0.1, 5, 18) == []
    assert len(checks.pc_stats(_pc(total * 1.3), 2, 32, 0.1, 5, 18)) == 1
    assert checks.pc_stats(_pc(total, wrong=2), 2, 32, 0.1, 5, 18) == [
        "pc returned 2 wrong outputs"]


def test_real_monte_carlo_output_passes():
    stats = experiments.kw_monte_carlo(1 << 12, 32, 4, 2, 0.1, 3_000, 3)
    assert checks.kw_stats(stats, 2, 32, 0.1) == []


def test_tracer_restores_originals_and_splits_self_time():
    originals = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    with tracer.installed():
        assert sim.Simulation.run.__wrapped__ is originals[spans.TARGETS.index(
            (sim.Simulation, "run", "sim.run"))]
        experiments.kw_monte_carlo(1 << 10, 32, 4, 2, 0.1, 50, 1)
    assert [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS] == originals
    # every write and query of the engine is a child span of the engine call
    assert tracer.count("experiments.kw_monte_carlo") == 1
    assert tracer.count("keywrite.kw_query") == 50
    assert tracer.count("hashing.raw64") == (102 + 50 + 50) * 3  # checksum + 2 slots
    self_s = tracer.self_seconds()
    total = tracer.end[0] - tracer.start[0]
    assert all(s >= 0 for s in self_s.values())
    assert sum(self_s.values()) == pytest.approx(total)


def test_spans_round_trip(tmp_path):
    tracer = spans.Tracer()
    with tracer.installed():
        experiments.kw_monte_carlo(1 << 10, 32, 4, 2, 0.1, 10, 1)
    tracer.write(tmp_path / "spans.bin.gz")
    back = spans.read(tmp_path / "spans.bin.gz")
    assert back.names == tracer.names
    assert list(back.parent) == list(tracer.parent)
    assert back.self_seconds() == tracer.self_seconds()


def _metric_names(section: str) -> list[str]:
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in data[section]]


def _output(capsys, *argv) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _output(capsys, "--workload", "mc-query", "--seed", "2", "--seconds", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert list(out["metrics"]) == _metric_names("end_to_end")
    for metric in data["end_to_end"]:
        assert out["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert out["metrics"][metric["name"]]["value"] > 0


def test_traced_run_prints_every_per_layer_metric(capsys, monkeypatch, tmp_path):
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = _output(capsys, "--workload", "append-bulk", "--seed", "2", "--seconds", "0",
                  "--trace", "1")
    assert out["correct"]
    assert sorted(out["metrics"]) == sorted(_metric_names("per_layer"))
    for metric in data["per_layer"]:
        assert out["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert out["metrics"]["memstore.verbs_per_report"]["value"] == 0.25
    assert list(tmp_path.glob("spans-append-bulk-2.bin.gz"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ki-lossy",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
