"""Smoke tests of scripts/: every name they import exists, and a cheap suite runs."""

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
