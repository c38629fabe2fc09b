"""Run the benchmark in two checkouts, alternately, and print a BENCH_*.json record.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload append-bulk \
        --pairs 10 --seconds 20 --seeds 701 702 703 704 705 706 707 708 709 710

Each pair runs ``bench/run.py --trace 0`` once in each checkout on one seed
(pair i uses the i-th seed, cycling through ``--seeds``); the side that runs
first alternates from pair to pair.  For every end-to-end metric that
CHANGE_DIR's ``BENCHMARK.json`` lists, the record gives each side's runs,
median and quartiles, the ratio of the medians, the number of pairs the
change won (ties count for neither side) and ``beyond_bound``: whether the
change's median moved the worse way by more than the metric's ``bound``.
``gain_shown`` says whether the change won at least 9/10 of the pairs and its
median beat the parent's by more than the parent's q3 - q1; ``unresolved``
whether the parent's q3 - q1, over its median, is wider than the bound while
not every change run beats every parent run.
Each metric beyond its bound is also named on stderr.  A run whose output
check fails still exits 0 and says why on stderr; each workload's distinct
``CHECK FAILED`` lines, prefixed with the side, go under ``check_failures``
and to stderr.  ``src_lines`` gives each side's line count of ``src/**/*.py``, so
a record shows a change's size next to its metrics.  The JSON goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run of the benchmark in ``checkout``: its last stdout line, parsed,
    with the ``CHECK FAILED`` lines of its stderr under ``check_failures``."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["check_failures"] = [line for line in done.stderr.splitlines()
                                if line.startswith("CHECK FAILED")]
    return result


def src_lines(checkout: Path) -> int:
    """Lines of ``src/**/*.py`` in ``checkout``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in checkout.glob("src/**/*.py"))


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": [round(v, 4) for v in values]}


def compare(runs: dict[str, list[dict]], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if higher else -1  # sign * (c - p) > 0: change c beats parent p
        pairs = list(zip(values["parent"], values["change"]))
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        parent, change = summary(values["parent"]), summary(values["change"])
        ratio = change["median"] / parent["median"] if parent["median"] else None
        beyond = ratio is not None and (1 - ratio if higher else ratio - 1) > metric["bound"]
        iqr = parent["q3"] - parent["q1"]
        gain = 10 * wins >= 9 * len(pairs) and sign * (change["median"] - parent["median"]) > iqr
        every_run_better = all(sign * (c - p) > 0
                               for p in values["parent"] for c in values["change"])
        unresolved = (bool(parent["median"]) and iqr / abs(parent["median"]) > metric["bound"]
                      and not every_run_better)
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": parent, "change": change,
            "change_over_parent": None if ratio is None else round(ratio, 4),
            "change_wins_pairs": f"{wins}/{len(values['change'])}",
            "beyond_bound": beyond,
            "gain_shown": gain,
            "unresolved": unresolved,
        }
    return out


def bench_workload(parent: Path, change: Path, workload: str, seeds: list[int], pairs: int,
                   seconds: float, metrics: list[dict]) -> dict:
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    dirs = {"parent": parent, "change": change}
    used = []
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        used.append(seed)
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(dirs[side], workload, seed, seconds))
            print(f"{workload} pair {i + 1}/{pairs} seed {seed} {side} done", file=sys.stderr)
    every = runs["parent"] + runs["change"]
    failures = list(dict.fromkeys(f"{side}: {line}" for side in SIDES
                                  for r in runs[side] for line in r["check_failures"]))
    for line in failures:
        print(f"{workload} {line}", file=sys.stderr)
    compared = compare(runs, metrics)
    for metric in metrics:
        entry = compared[metric["name"]]
        if entry["beyond_bound"]:
            print(f"{workload} {metric['name']}: change/parent median "
                  f"{entry['change_over_parent']} is beyond its bound {metric['bound']}",
                  file=sys.stderr)
    return {
        "seeds": used,
        "pairs": pairs,
        "runs_correct": all(r["correct"] for r in every),
        "check_failures": failures,
        "metrics": compared,
        "attempted_both_sides": sum(r["attempted"] for r in every),
        "failed_both_sides": sum(r["failed"] for r in every),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "what": "parent against change: alternating --trace 0 runs, one pair per seed, "
                "the side that runs first alternating from pair to pair",
        "command": "python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "seconds": args.seconds,
        "python": platform.python_version(),
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of one side",
        "src_lines": {side: src_lines(checkout)
                      for side, checkout in zip(SIDES, (args.parent, args.change))},
        "workloads": {w: bench_workload(args.parent.resolve(), args.change.resolve(), w,
                                        args.seeds, args.pairs, args.seconds, metrics)
                      for w in args.workload},
    }
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
