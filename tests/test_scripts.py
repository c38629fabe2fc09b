"""Smoke tests of scripts/: every name they import exists, and a cheap suite runs."""

import json
import runpy
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
    result = record["workloads"]["mc-query"]
    assert result["seeds"] == [3] and result["pairs"] == 1
    assert result["runs_correct"] and result["failed_both_sides"] == 0
    for metric in ("reports_per_s", "kw_trials_per_s", "pc_trials_per_s", "setup_s",
                   "peak_rss_mb"):
        entry = result["metrics"][metric]
        assert len(entry["parent"]["runs"]) == len(entry["change"]["runs"]) == 1
        assert entry["change_wins_pairs"] in ("0/1", "1/1")
