"""Output checks: properties every correct run must have.

Each check returns a list of failure messages, empty when the output holds.
None of them compares against a stored copy of earlier output; the reference
digests come from a second, untimed run of the program on the same seed.
"""

from __future__ import annotations

import math

from dta import analysis

# The Monte-Carlo bracket checks run once per benchmark run, and a benchmark
# evaluation makes on the order of a hundred runs.  At 3 sigma a correct run
# would fail about once in 370 runs; at 4 sigma about once in 16,000.
SIGMAS = 4.0


def _sigma(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def sim_drained(report) -> list[str]:
    """Every offered report reached memory exactly once; none was given up."""
    out = []
    if not report.drained:
        out.append("run did not drain")
    if report.unrecoverable:
        out.append(f"{report.unrecoverable} reports unrecoverable")
    if report.reports_applied != report.reports_offered:
        out.append(f"applied {report.reports_applied} of {report.reports_offered} reports")
    return out


def ki_lossy(report, redundancy: int, loss_free_sha: str) -> list[str]:
    """Go-back-N recovery over lossy links leaves the loss-free counters.

    Fetch-and-Add commutes, so exactly-once delivery in any order must give
    the memory image of a run with no loss.
    """
    out = sim_drained(report)
    if report.verbs_applied != redundancy * report.reports_applied:
        out.append(f"verbs_applied {report.verbs_applied} != {redundancy} x "
                   f"{report.reports_applied} reports")
    if report.memory_sha256 != loss_free_sha:
        out.append("memory differs from the loss-free run")
    return out


def append_bulk(report, batch_size: int, unbatched_sha: str) -> list[str]:
    """Batching is transparent: same memory as batch size 1, 1/B the writes."""
    out = sim_drained(report)
    if report.verbs_applied * batch_size != report.reports_applied:
        out.append(f"verbs_applied {report.verbs_applied} != {report.reports_applied} "
                   f"reports / batch {batch_size}")
    if report.memory_sha256 != unbatched_sha:
        out.append("memory differs from the unbatched run")
    return out


def kw_stats(stats, redundancy: int, checksum_bits: int, alpha: float) -> list[str]:
    """No-output rate inside the analytical bracket; no wrong outputs."""
    bound = analysis.kw_no_output_bound(analysis.KwModel(redundancy, checksum_bits, alpha))
    lo = bound.lower - SIGMAS * _sigma(bound.lower, stats.trials)
    hi = bound.upper + SIGMAS * _sigma(bound.upper, stats.trials)
    out = []
    if not lo <= stats.no_output_rate <= hi:
        out.append(f"kw no-output rate {stats.no_output_rate:.6f} outside "
                   f"[{lo:.6f}, {hi:.6f}]")
    if stats.wrong:
        out.append(f"kw returned {stats.wrong} wrong outputs")
    return out


def pc_stats(stats, redundancy: int, cell_bits: int, alpha: float, hops: int,
             value_bits: int) -> list[str]:
    """Chunk failure rate at most the analytical bound; no wrong outputs."""
    model = analysis.PcModel(redundancy, cell_bits, alpha, hops, value_bits)
    total = analysis.pc_fail_bound(model).total
    hi = total + SIGMAS * _sigma(total, stats.trials)
    out = []
    if stats.fail_rate > hi:
        out.append(f"pc failure rate {stats.fail_rate:.6f} above {hi:.6f}")
    if stats.wrong:
        out.append(f"pc returned {stats.wrong} wrong outputs")
    return out
