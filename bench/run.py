"""Benchmark of the DTA emulator: one workload per run, one JSON line out.

    python3 bench/run.py --workload ki-lossy --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src``.  With
``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced round.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {"reports_per_s": "1/s", "kw_trials_per_s": "1/s", "pc_trials_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = (("_ns", "ns"), ("_us", "us"), ("_s", "s"), ("calls_per_op", "calls/op"),
                   ("packets_per_report", "packets/report"),
                   ("verbs_per_report", "verbs/report"), ("steps", "count"))


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return next(unit for suffix, unit in PER_LAYER_UNITS if name.endswith(suffix))


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's record of its start."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rpartition(")")[2].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(bench, seconds: float) -> tuple[float, list]:
    """Cold set-up time (scaled), then whole rounds until ``seconds`` have passed."""
    inputs = bench.prepare()
    setup_s = process_age_s() * refclock.T_REF / refclock.reference_seconds()
    start = time.perf_counter()
    rounds = [bench.measure(inputs)]
    while time.perf_counter() - start < seconds:
        rounds.append(bench.measure(bench.prepare()))
    return setup_s, rounds


def end_to_end(workloads, bench, rounds, seed: int) -> tuple[dict, list]:
    """End-to-end rates, and the Monte-Carlo rounds a sim workload adds for its trial rates."""
    if isinstance(bench, workloads.McQuery):
        mc_rounds, probe = rounds, []
    else:
        mc = workloads.McQuery(seed)
        mc_rounds = probe = [mc.measure() for _ in range(workloads.MC_ROUNDS_IN_SIM)]
    metrics = {
        "reports_per_s": statistics.median(r.rate for r in rounds),
        "kw_trials_per_s": statistics.median(
            r.output.kw.trials / r.output.kw_scaled for r in mc_rounds),
        "pc_trials_per_s": statistics.median(
            r.output.pc.trials / r.output.pc_scaled for r in mc_rounds),
    }
    return metrics, probe


def per_layer(workloads, bench, rounds, workload: str, seed: int) -> tuple[dict, object]:
    """Trace one more round, then time each layer's calls in isolation."""
    import calibrate
    import spans

    inputs = bench.prepare(rounds[0].seed)  # a seed the untraced rounds ran on
    tracer = spans.Tracer()
    with tracer.installed():
        traced = bench.measure(inputs)
    untraced = statistics.median(r.scaled for r in rounds if r.seed == traced.seed)

    if isinstance(bench, workloads.McQuery):
        ops = traced.attempted
        reports = workloads.mc_reports()
        packets_per_report = steps = 0
    else:
        report = traced.output
        ops = reports = report.reports_applied
        packets_per_report = report.packets_sent / report.reports_offered
        steps = report.steps
    metrics = {f"{layer}.self_s": s for layer, s in tracer.self_seconds().items()}
    metrics.update({
        "hashing.calls_per_op": tracer.count("hashing.raw64") / ops,
        "memstore.verbs_per_report": tracer.count("memstore.apply_verb") / reports,
        "flowctl.packets_per_report": packets_per_report,
        "sim.steps": steps,
        "trace.overhead_s": traced.scaled - untraced,
    })
    metrics.update(calibrate.calibrate())
    tracer.write(OUT / f"spans-{workload}-{seed}.bin.gz")
    return metrics, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ki-lossy", "append-bulk", "mc-query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dta").is_dir():
        print(f"no dta package under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    bench = workloads.WORKLOADS[args.workload](args.seed)
    setup_s, rounds = run_rounds(bench, args.seconds)
    rss = peak_rss_mb()
    if args.trace:
        metrics, traced = per_layer(workloads, bench, rounds, args.workload, args.seed)
        extra = [traced]
        failures = bench.check(rounds + extra)
    else:
        metrics, extra = end_to_end(workloads, bench, rounds, args.seed)
        metrics.update(setup_s=setup_s, peak_rss_mb=rss)
        failures = bench.check(rounds)
        if extra:
            failures += workloads.McQuery(args.seed).check(extra)
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    measured = rounds + extra
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(r.attempted for r in measured),
        "failed": sum(r.failed for r in measured),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
