"""Smoke tests of scripts/: every name they import exists, and a cheap suite runs."""

import json
import runpy
import subprocess
import sys
from pathlib import Path

from dta.experiments import read_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_headline_numbers_imports():
    # run_path does not run the script as __main__, so main() is not called
    namespace = runpy.run_path(str(SCRIPTS / "reproduce_headline_numbers.py"))
    assert callable(namespace["main"])


def test_run_all_suites_writes_bounds_csv(tmp_path, monkeypatch, capsys):
    script = SCRIPTS / "run_all_suites.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--only", "bounds", "--out", str(tmp_path)])
    runpy.run_path(str(script), run_name="__main__")
    assert "bounds:" in capsys.readouterr().out
    with open(tmp_path / "bounds.csv") as fh:
        meta, rows = read_csv(fh)
    assert meta["suite"] == "bounds"
    assert rows


def test_bench_pairs_writes_a_record(capsys):
    repo = SCRIPTS.parent
    main = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["main"]
    assert main([str(repo), str(repo), "--workload", "mc-query", "--pairs", "1",
                 "--seconds", "0", "--seeds", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    lines = sum(len(path.read_text().splitlines()) for path in (repo / "src").rglob("*.py"))
    assert record["src_lines"] == {"parent": lines, "change": lines}
    result = record["workloads"]["mc-query"]
    assert result["seeds"] == [3] and result["pairs"] == 1
    assert result["runs_correct"] and result["failed_both_sides"] == 0
    assert result["check_failures"] == []
    for metric in ("reports_per_s", "kw_trials_per_s", "pc_trials_per_s", "setup_s",
                   "peak_rss_mb"):
        entry = result["metrics"][metric]
        assert len(entry["parent"]["runs"]) == len(entry["change"]["runs"]) == 1
        assert entry["change_wins_pairs"] in ("0/1", "1/1")


def test_bench_pairs_keeps_the_reason_a_run_failed(monkeypatch, capsys):
    repo = SCRIPTS.parent
    names = [m["name"] for m in json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]]
    failing = {"correct": False, "attempted": 1, "failed": 0,
               "metrics": {name: {"value": 1.0} for name in names}}

    def fake_run(cmd, cwd, **kwargs):  # every run fails the same output check
        return subprocess.CompletedProcess(
            cmd, 0, stdout="warming up\n" + json.dumps(failing) + "\n",
            stderr="CHECK FAILED: pc stats outside bracket\nsome other note\n")

    monkeypatch.setattr(subprocess, "run", fake_run)
    main = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["main"]
    assert main([str(repo), str(repo), "--workload", "mc-query", "--pairs", "2",
                 "--seconds", "0", "--seeds", "3"]) == 0
    out, err = capsys.readouterr()
    result = json.loads(out)["workloads"]["mc-query"]
    assert not result["runs_correct"]
    assert result["check_failures"] == ["parent: CHECK FAILED: pc stats outside bracket",
                                        "change: CHECK FAILED: pc stats outside bracket"]
    assert "mc-query change: CHECK FAILED: pc stats outside bracket" in err
    assert "some other note" not in err


def _runs(name, parent, change):
    return {side: [{"metrics": {name: {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}


def test_bench_pairs_flags_a_metric_beyond_its_bound():
    compare = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["compare"]
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    rate = {"name": "reports_per_s", "unit": "1/s", "better": "higher", "bound": 0.15}
    assert compare(_runs("setup_s", [0.156] * 3, [0.204] * 3), [setup])["setup_s"]["beyond_bound"]
    assert not compare(_runs("setup_s", [0.156] * 3, [0.18] * 3),
                       [setup])["setup_s"]["beyond_bound"]
    fell = compare(_runs("reports_per_s", [1000.0] * 3, [840.0] * 3), [rate])["reports_per_s"]
    assert fell["beyond_bound"] and fell["change_over_parent"] == 0.84
    rose = compare(_runs("reports_per_s", [1000.0] * 3, [1500.0] * 3), [rate])["reports_per_s"]
    assert not rose["beyond_bound"]


def test_bench_pairs_shows_a_gain_only_when_it_is_there(tmp_path, monkeypatch, capsys):
    """Stubbed runs: memory falls in 9 of 10 pairs by more than the parent's spread (a
    gain shown); a rate whose parent runs spread wider than its bound, with the change's
    runs inside that spread, is unresolved; a steady, unmoved metric is neither."""
    repo = SCRIPTS.parent
    names = [m["name"] for m in json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]]
    memory = {"parent": [37.0, 37.1] * 5, "change": [28.0] * 9 + [37.2]}
    rate = {"parent": [800.0, 1200.0] * 5, "change": [1000.0] * 10}
    calls = {"parent": 0, "change": 0}

    def fake_run(cmd, cwd, **kwargs):
        side = "change" if Path(cwd) == repo.resolve() else "parent"
        i = calls[side]
        calls[side] += 1
        metrics = {name: {"value": 5.0} for name in names}
        metrics["peak_rss_mb"]["value"] = memory[side][i]
        metrics["pc_trials_per_s"]["value"] = rate[side][i]
        out = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(out) + "\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    main = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["main"]
    assert main([str(tmp_path), str(repo), "--workload", "mc-query", "--pairs", "10",
                 "--seconds", "0", "--seeds", "3"]) == 0
    metrics = json.loads(capsys.readouterr().out)["workloads"]["mc-query"]["metrics"]
    assert metrics["peak_rss_mb"]["change_wins_pairs"] == "9/10"
    assert metrics["peak_rss_mb"]["gain_shown"] and not metrics["peak_rss_mb"]["unresolved"]
    assert metrics["pc_trials_per_s"]["unresolved"]
    assert not metrics["pc_trials_per_s"]["gain_shown"]
    assert not metrics["setup_s"]["gain_shown"] and not metrics["setup_s"]["unresolved"]
    assert calls == {"parent": 10, "change": 10}


def test_bench_pairs_gain_needs_nine_tenths_of_pairs_and_a_median_beyond_the_spread():
    compare = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))["compare"]
    memory = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}
    parent = [37.0, 37.1] * 5
    eight = compare(_runs("peak_rss_mb", parent, [28.0] * 8 + [37.2] * 2), [memory])
    assert eight["peak_rss_mb"]["change_wins_pairs"] == "8/10"
    assert not eight["peak_rss_mb"]["gain_shown"]
    # every pair won, but the medians differ by less than the parent's q3 - q1
    close = compare(_runs("peak_rss_mb", parent, [36.99, 37.09] * 5), [memory])
    assert close["peak_rss_mb"]["change_wins_pairs"] == "10/10"
    assert not close["peak_rss_mb"]["gain_shown"]
