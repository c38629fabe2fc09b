"""The three workloads: how one round's inputs are made, timed and checked.

The sim workloads time ``Simulation.run`` and construct a fresh
``Simulation`` (region, translator state, generated bodies) before each
round, untimed.  Their rounds cycle through ``SUBSEEDS`` seeds made from the
run's seed, because the loss pattern of one seed sets how much recovery work
a round does (packets per report range from 1.33 to 1.46 across seeds); the
median over a run then reflects the workload rather than one draw.  The
Monte-Carlo workload's work hardly depends on the seed, so every round
repeats the run's seed and times each engine call whole.  Times are scaled
to reference speed (see ``refclock``).
"""

from __future__ import annotations

from dataclasses import dataclass

from dta import experiments, sim
from dta.keywrite import QueryPolicy

import checks
from refclock import timed

# A sim round takes about 0.3 s on a 2-core machine: short enough that the
# reference loop around it sees the speed the round ran at.  A run repeats
# rounds for --seconds and reports the median.
KI_REPORTS = 8_000
KI_RATE = 64  # reports per step per reporter
APPEND_REPORTS = 16_000  # a multiple of lists x batch_size: see README

# The paper's operating point: N=2, b=32, alpha=0.1; postcards B=5, |V|=2^18.
KW = dict(buflen=1 << 14, checksum_bits=32, value_len=4, redundancy=2, alpha=0.1,
          queries=6_000)
PC = dict(chunks=1 << 14, hops=5, cell_bits=32, value_bits=18, redundancy=2, alpha=0.1,
          queries=1_000)
# Monte-Carlo rounds a sim workload runs after its own, for the trial rates.
MC_ROUNDS_IN_SIM = 10
SUBSEEDS = 8


def ki_lossy_topology(loss: float = 0.01) -> sim.Topology:
    return sim.Topology(reporters=4, link=sim.LinkConfig(loss, loss))


def append_bulk_topology(batch_size: int = 4) -> sim.Topology:
    return sim.Topology(reporters=1, append=sim.AppendConfig(
        lists=4, capacity=4096, entry_len=4, batch_size=batch_size))


@dataclass
class Round:
    """One timed round: seconds at reference speed, operations attempted and failed."""

    scaled: float
    attempted: int
    failed: int
    output: object
    reports: int  # reports applied (sim) or written by the engines (Monte-Carlo)
    seed: int

    @property
    def rate(self) -> float:
        return self.reports / self.scaled


class SimBench:
    """A workload that pushes one report stream through ``sim``."""

    def __init__(self, topology: sim.Topology, workload: sim.Workload, seed: int):
        self.topology = topology
        self.workload = workload
        self.seeds = [seed * SUBSEEDS + k for k in range(SUBSEEDS)]
        self.prepared = 0

    def prepare(self, seed: int | None = None) -> sim.Simulation:
        """Inputs of the next round, or of a round on ``seed`` if given."""
        if seed is None:
            seed = self.seeds[self.prepared % SUBSEEDS]
            self.prepared += 1
        return sim.Simulation(self.topology, self.workload, seed)

    def measure(self, simulation: sim.Simulation) -> Round:
        report, scaled = timed(simulation.run)
        return Round(scaled, report.reports_offered,
                     report.reports_offered - report.reports_applied, report,
                     report.reports_applied, simulation.seed)

    def reference_shas(self, topology: sim.Topology, rounds: list[Round]) -> dict[int, str]:
        """Memory digest of an untimed run on ``topology`` for each seed in ``rounds``."""
        return {seed: sim.run(topology, self.workload, seed).memory_sha256
                for seed in sorted({r.seed for r in rounds})}


class KiLossy(SimBench):
    def __init__(self, seed: int):
        super().__init__(ki_lossy_topology(), sim.Workload(
            sim.WorkloadKind.KI_COUNTERS, reports=KI_REPORTS, reports_per_step=KI_RATE), seed)

    def check(self, rounds: list[Round]) -> list[str]:
        loss_free = self.reference_shas(ki_lossy_topology(loss=0.0), rounds)
        redundancy = self.topology.ki.redundancy
        return [msg for r in rounds
                for msg in checks.ki_lossy(r.output, redundancy, loss_free[r.seed])]


class AppendBulk(SimBench):
    def __init__(self, seed: int):
        super().__init__(append_bulk_topology(), sim.Workload(
            sim.WorkloadKind.APPEND_EVENTS, reports=APPEND_REPORTS), seed)

    def check(self, rounds: list[Round]) -> list[str]:
        unbatched = self.reference_shas(append_bulk_topology(batch_size=1), rounds)
        batch = self.topology.append.batch_size
        return [msg for r in rounds
                for msg in checks.append_bulk(r.output, batch, unbatched[r.seed])]


@dataclass
class McOutput:
    kw: experiments.KwMcStats
    kw_scaled: float
    pc: experiments.PcMcStats
    pc_scaled: float


def mc_reports() -> int:
    """Reports the two engines write: warm-up plus one per trial; B per path."""
    kw = round(KW["alpha"] * KW["buflen"]) + KW["queries"]
    pc = (round(PC["alpha"] * PC["chunks"]) + PC["queries"]) * PC["hops"]
    return kw + pc


class McQuery:
    """Key-Write and Postcarding Monte-Carlo engines straight into memory."""

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, seed: int | None = None) -> None:
        return None

    def measure(self, _inputs=None) -> Round:
        # looked up on the module at call time, so a traced round sees the wrappers
        kw, kw_scaled = timed(
            experiments.kw_monte_carlo, KW["buflen"], KW["checksum_bits"], KW["value_len"],
            KW["redundancy"], KW["alpha"], KW["queries"], self.seed,
            policy=QueryPolicy.SINGLE_VALUE)
        pc, pc_scaled = timed(
            experiments.pc_monte_carlo, PC["chunks"], PC["hops"], PC["cell_bits"],
            PC["value_bits"], PC["redundancy"], PC["alpha"], PC["queries"], self.seed)
        return Round(kw_scaled + pc_scaled, kw.trials + pc.trials,
                     kw.wrong + pc.wrong, McOutput(kw, kw_scaled, pc, pc_scaled), mc_reports(),
                     self.seed)

    def check(self, rounds: list[Round]) -> list[str]:
        out = []
        for r in rounds:
            out += checks.kw_stats(r.output.kw, KW["redundancy"], KW["checksum_bits"],
                                   KW["alpha"])
            out += checks.pc_stats(r.output.pc, PC["redundancy"], PC["cell_bits"],
                                   PC["alpha"], PC["hops"], PC["value_bits"])
        return out


WORKLOADS = {"ki-lossy": KiLossy, "append-bulk": AppendBulk, "mc-query": McQuery}
