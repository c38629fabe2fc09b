"""Deterministic step-driven harness: the links and the run loop.

Each step every reporter emits its datagrams (``flowctl.ReporterState.emit``:
resends, then new reports, within its current offered rate); the run loop
passes them through an independent Bernoulli loss draw per link direction,
and the translator decodes, flow-controls, and translates them into verbs
against the collector's queue pair.  NACKs and congestion signals ride the
reverse direction of the reporter link into the reporter's inbox and take
effect the following step; sequence resets ride forward, as reports do.

The translator-collector leg is loss-free by default (it is the one hop the
architecture protects); a fault-injection knob drops verb packets there to
demonstrate queue-pair desynchronization.  After the offered load is
exhausted, reporters send keepalives until every essential report is either
applied or established as unrecoverable, so loss recovery always runs to
completion; ``MAX_DRAIN_STEPS`` such steps in a row that settle no report end
the run undrained.  All randomness derives from the single run seed:
identical (topology, workload, seed) produce identical reports and identical
collector memory.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, fields, asdict, is_dataclass
from enum import Enum
from typing import Optional

from . import append as append_mod
from . import counters, flowctl, keywrite, postcarding, wire
from .hashing import MAX_REDUNDANCY, MAX_VALUE_BITS, HashFamily, value_codec
from .memstore import PSN_MOD, MemoryRegion, QueuePair, apply_verb, reset_qp


class ConfigError(ValueError):
    """Invalid configuration; ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass
class LinkConfig:
    loss_to_translator: float = 0.0
    loss_to_reporter: float = 0.0

    def __post_init__(self):
        for name in ("loss_to_translator", "loss_to_reporter"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"link.{name}", f"loss probability must be in [0, 1), got {p}")


@dataclass
class TranslatorConfig:
    meter_rate: float = float("inf")
    meter_burst: float = float("inf")
    fault_drop_verbs: float = 0.0  # translator->collector fault injection

    def __post_init__(self):
        if not 0.0 <= self.fault_drop_verbs < 1.0:
            raise ConfigError("translator.fault_drop_verbs",
                              f"must be in [0, 1), got {self.fault_drop_verbs}")


@dataclass
class KwConfig:
    buflen: int = 65536
    checksum_bits: int = 32
    value_len: int = 4
    redundancy: int = 2


@dataclass
class PcConfig:
    chunks: int = 8192
    hops: int = 5
    cell_bits: int = 32
    value_bits: int = 10
    redundancy: int = 2
    cache_slots: int = 1024


@dataclass
class AppendConfig:
    lists: int = 4
    capacity: int = 4096
    entry_len: int = 4
    batch_size: int = 4


@dataclass
class KiConfig:
    buflen: int = 4096
    redundancy: int = 2


@dataclass
class SketchConfig:
    rows: int = 4
    cols: int = 16
    merge_op: str = "sum"
    w_batch: int = 4


@dataclass
class Topology:
    reporters: int = 1
    link: LinkConfig = field(default_factory=LinkConfig)
    translator: TranslatorConfig = field(default_factory=TranslatorConfig)
    kw: KwConfig = field(default_factory=KwConfig)
    pc: PcConfig = field(default_factory=PcConfig)
    append: AppendConfig = field(default_factory=AppendConfig)
    ki: KiConfig = field(default_factory=KiConfig)
    sketch: SketchConfig = field(default_factory=SketchConfig)
    backlog_capacity: int = flowctl.DEFAULT_BACKLOG_CAPACITY
    hash_seed: int = 0

    def __post_init__(self):
        if self.reporters < 1:
            raise ConfigError("reporters", f"must be >= 1, got {self.reporters}")
        # values each report carries to its store, refused here and not per report
        for section in ("kw", "pc", "ki"):
            n = getattr(self, section).redundancy
            if not 1 <= n <= MAX_REDUNDANCY:
                raise ConfigError(f"{section}.redundancy",
                                  f"must be in [1, {MAX_REDUNDANCY}], got {n}")
        if self.sketch.w_batch < 1:
            raise ConfigError("sketch.w_batch", f"must be >= 1, got {self.sketch.w_batch}")
        # the codec is built with the run: 2^value_bits values of cell_bits each
        value_bits, cell_bits = self.pc.value_bits, self.pc.cell_bits
        if not (isinstance(value_bits, int) and 0 <= value_bits <= MAX_VALUE_BITS):
            raise ConfigError("pc.value_bits",
                              f"must be an int in [0, {MAX_VALUE_BITS}], got {value_bits!r}")
        if not (isinstance(cell_bits, int) and 1 <= cell_bits <= 64):
            raise ConfigError("pc.cell_bits", f"must be an int in [1, 64], got {cell_bits!r}")


class WorkloadKind(Enum):
    KW_FLOWS = "kw-flows"
    POSTCARDS = "postcards"
    APPEND_EVENTS = "append-events"
    KI_COUNTERS = "ki-counters"
    SKETCH_COLUMNS = "sketch-columns"


@dataclass
class Workload:
    kind: WorkloadKind
    reports: int = 1000  # total across reporters (sketch: cols per reporter)
    essential: bool = True
    reports_per_step: float = float("inf")  # per-reporter offered rate
    key_space: int = 1 << 24
    max_delta: int = 16  # Key-Increment deltas drawn from [0, max_delta]
    path_len_fixed: Optional[int] = None  # postcards: fixed path length

    def __post_init__(self):
        if self.reports < 0:
            raise ConfigError("workload.reports", f"must be >= 0, got {self.reports}")
        if self.key_space < 1:
            raise ConfigError("workload.key_space", f"must be >= 1, got {self.key_space}")
        # a reporter sends only once its step budget reaches 1; written so NaN fails too
        if not self.reports_per_step >= 1:
            raise ConfigError("workload.reports_per_step",
                              f"must be >= 1, got {self.reports_per_step}")


@dataclass
class RunReport:
    """Counters accounting for every generated report's terminal state."""

    workload_kind: str = ""
    steps: int = 0
    reports_offered: int = 0
    packets_sent: int = 0  # includes retransmissions and keepalives
    packets_lost: int = 0
    reports_applied: int = 0
    reports_refused: int = 0  # delivered in order, refused by its store
    retransmissions: int = 0
    keepalives: int = 0
    nacks_sent: int = 0
    nacks_lost: int = 0
    duplicates_suppressed: int = 0
    congestion_signals: int = 0
    diverted: int = 0
    dropped_low_priority: int = 0
    unrecoverable: int = 0
    verbs_applied: int = 0
    verbs_faulted: int = 0
    qp_desyncs: int = 0
    drained: bool = False
    exactly_once_ok: bool = False
    memory_sha256: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _region_layout(t: Topology) -> dict[str, int]:
    """Non-overlapping per-primitive sub-regions, in declaration order."""
    kw_slot = (t.kw.checksum_bits + 7) // 8 + t.kw.value_len
    pc_stride = postcarding._next_pow2((t.pc.cell_bits + 7) // 8 * t.pc.hops)
    sizes = {
        "kw": t.kw.buflen * kw_slot,
        "pc": t.pc.chunks * pc_stride,
        "append": t.append.lists * t.append.capacity * t.append.entry_len,
        "ki": t.ki.buflen * counters.COUNTER_LEN,
        "sketch": t.sketch.rows * t.sketch.cols * counters.COUNTER_LEN,
    }
    layout, base = {}, 0
    for name, size in sizes.items():
        base = (base + 7) // 8 * 8  # keep counters aligned
        layout[name] = base
        base += size
    layout["total"] = base
    return layout


class Collector:
    """The collector end of the translator's one queue pair: every verb to memory.

    ``apply`` stamps each verb with the next 24-bit PSN and applies it.  With
    probability ``fault_drop`` a verb packet is lost on the way (it still uses
    up its PSN), so the next verb desyncs the queue pair; the connection is
    then re-established at the rejected PSN and the verb retried.
    """

    def __init__(self, region: MemoryRegion, fault_drop: float = 0.0,
                 fault_rng: Optional[random.Random] = None):
        self.region = region
        self.qp = QueuePair()
        self.next_psn = 0
        self.fault_drop = fault_drop
        self.fault_rng = fault_rng
        self.verbs_applied = 0
        self.verbs_faulted = 0
        self.qp_desyncs = 0

    def apply(self, verbs) -> None:
        # apply_verb is looked up as this module's global on every call, so
        # a wrapper installed on dta.sim.apply_verb sees every verb
        region, qp = self.region, self.qp
        for verb in verbs:
            psn = self.next_psn
            self.next_psn = (psn + 1) % PSN_MOD
            if self.fault_drop and self.fault_rng.random() < self.fault_drop:
                self.verbs_faulted += 1  # verb packet lost before the NIC
                continue
            if not apply_verb(region, qp, psn, verb):
                # models the controller re-establishing the connection, then
                # the RDMA layer retrying the rejected packet
                self.qp_desyncs += 1
                reset_qp(qp, psn)
                apply_verb(region, qp, psn, verb)
            self.verbs_applied += 1


class Translator:
    """Translator-side assembly: flow control, primitive state, verb emission."""

    def __init__(self, topology: Topology, report: RunReport, fault_rng: random.Random):
        t = topology
        self.topology = t
        self.report = report
        self.family = HashFamily(t.hash_seed)
        layout = _region_layout(t)
        self.collector = Collector(MemoryRegion(layout["total"]),
                                   t.translator.fault_drop_verbs, fault_rng)
        self.region = self.collector.region
        self.flow = flowctl.TranslatorFlowState(
            flowctl.TokenBucket(t.translator.meter_rate, t.translator.meter_burst)
        )
        self.kw_store = keywrite.KwStore(
            self.region, t.kw.buflen, t.kw.checksum_bits, t.kw.value_len,
            family=self.family, base=layout["kw"],
        )
        codec = value_codec(t.hash_seed, 2 ** t.pc.value_bits, t.pc.cell_bits)
        self.pc_store = postcarding.PostcardStore(
            self.region, t.pc.chunks, t.pc.hops, t.pc.cell_bits, codec,
            family=self.family, base=layout["pc"],
        )
        self.pc_cache = postcarding.PostcardCache(
            t.pc.cache_slots, t.pc.hops, self.family, 2 ** t.pc.value_bits
        )
        self.append_engine = append_mod.AppendEngine(t.append.batch_size)
        for i in range(t.append.lists):
            self.append_engine.add_list(append_mod.AppendList(
                i, layout["append"] + i * t.append.capacity * t.append.entry_len,
                t.append.capacity, t.append.entry_len,
            ))
        self.ki_store = counters.KiStore(
            self.region, t.ki.buflen, family=self.family, base=layout["ki"]
        )
        self.sketch_state = counters.SketchMergeState(
            counters.SketchSpec(t.sketch.rows, t.sketch.cols,
                                counters.MergeOp(t.sketch.merge_op)),
            reporters=t.reporters,
        )
        self.sketch_base = layout["sketch"]
        # essential reports applied, keyed by (reporter, seq), for the
        # exactly-once audit
        self.applied_essential: dict[tuple[int, int], int] = {}

    def verb_cost(self, body: wire.Body) -> int:
        """Verbs one report, not a keepalive, costs the meter."""
        if type(body) in (wire.KeyWriteBody, wire.KeyIncrementBody):
            # a store refuses a higher redundancy, so no more is charged
            return min(body.redundancy, MAX_REDUNDANCY)
        if type(body) is wire.PostcardBody:
            return self.topology.pc.redundancy
        return 1

    def translate(self, packet: wire.DtaPacket) -> list:
        """Primitive dispatch: one decoded report, never a keepalive, to its verb list."""
        body = packet.body
        if isinstance(body, wire.KeyWriteBody):
            return keywrite.kw_write(self.kw_store, body.key, body.value, body.redundancy)
        if isinstance(body, wire.AppendBody):
            return self.append_engine.ingest(body.list_id, body.entry)
        if isinstance(body, wire.KeyIncrementBody):
            return counters.ki_increment(self.ki_store, body.key, body.delta, body.redundancy)
        if isinstance(body, wire.PostcardBody):
            verbs = []
            emitted = postcarding.pc_ingest(self.pc_cache, body.flow_id, body.hop,
                                            body.value, body.path_len)
            for chunk in emitted:
                verbs += postcarding.pc_write(self.pc_store, chunk,
                                              self.topology.pc.redundancy)
            return verbs
        # the one body class left: SketchMergeBody
        counters.sm_ingest_column(self.sketch_state, packet.reporter_id, body.col_index,
                                  list(body.values))
        return counters.sm_flush_completed(self.sketch_state, self.sketch_base,
                                           self.topology.sketch.w_batch)

    def receive(self, raw: bytes) -> None:
        """Decode, flow-control and apply one datagram; its controls wait on ``flow.controls``."""
        packet = wire.decode(raw)
        if isinstance(packet, wire.SeqResetPacket):
            self.flow.handle_seq_reset(packet)
            return
        if flowctl.is_keepalive(packet.body):
            self.flow.receive(packet, 0)  # a probe for gaps, never applied
        elif self.flow.receive(packet, self.verb_cost(packet.body)):
            self.apply(packet)

    def apply(self, packet: wire.DtaPacket) -> None:
        if packet.essential:
            key = (packet.reporter_id, packet.essential_seq)
            self.applied_essential[key] = self.applied_essential.get(key, 0) + 1
        # a store refuses a report by raising ValueError before it changes any
        # state; flow.receive has moved the sequence past it on purpose, since
        # it did arrive in order and a NACK would only bring back octets the
        # store refuses again
        try:
            verbs = self.translate(packet)
        except ValueError:
            self.report.reports_refused += 1
            return
        self.collector.apply(verbs)
        self.report.reports_applied += 1


def _generate_bodies(topology: Topology, workload: Workload, reporter_id: int,
                     count: int, rng: random.Random) -> list:
    t, w = topology, workload
    bodies: list = []
    if w.kind is WorkloadKind.KW_FLOWS:
        for _ in range(count):
            key = rng.randrange(w.key_space).to_bytes(8, "big")
            value = rng.randbytes(t.kw.value_len)
            bodies.append(wire.KeyWriteBody(t.kw.redundancy, key, value))
    elif w.kind is WorkloadKind.KI_COUNTERS:
        for _ in range(count):
            key = rng.randrange(w.key_space).to_bytes(8, "big")
            bodies.append(wire.KeyIncrementBody(t.ki.redundancy, key,
                                                rng.randint(0, w.max_delta)))
    elif w.kind is WorkloadKind.APPEND_EVENTS:
        for i in range(count):
            bodies.append(wire.AppendBody(i % t.append.lists,
                                          rng.randbytes(t.append.entry_len)))
    elif w.kind is WorkloadKind.POSTCARDS:
        if w.path_len_fixed is not None and not 1 <= w.path_len_fixed <= t.pc.hops:
            raise ConfigError("workload.path_len_fixed",
                              f"must be in [1, {t.pc.hops}] (pc.hops), got {w.path_len_fixed}")
        universe = 2 ** t.pc.value_bits
        flow = 0
        while len(bodies) < count:
            flow_id = (reporter_id << 40) | flow
            flow += 1
            path_len = w.path_len_fixed or rng.randint(1, t.pc.hops)
            for hop in range(path_len):
                if len(bodies) == count:
                    break
                bodies.append(wire.PostcardBody(flow_id, hop, rng.randrange(universe),
                                                path_len))
    elif w.kind is WorkloadKind.SKETCH_COLUMNS:
        for col in range(count):
            values = tuple(rng.randrange(1 << 20) for _ in range(t.sketch.rows))
            bodies.append(wire.SketchMergeBody(col, values))
    else:
        raise ConfigError("workload.kind", f"unknown kind {w.kind!r}")
    return bodies


class Simulation:
    """One wired-up run; keeps translator state reachable for post-run queries."""

    MAX_DRAIN_STEPS = 10000

    def __init__(self, topology: Topology, workload: Workload, seed: int):
        self.topology = topology
        self.workload = workload
        self.seed = seed
        self.report = RunReport(workload_kind=workload.kind.value)
        self._fwd_rng = random.Random(f"{seed}:fwd")
        self._rev_rng = random.Random(f"{seed}:rev")
        self.translator = Translator(topology, self.report,
                                     random.Random(f"{seed}:fault"))
        self.reporters = [flowctl.ReporterState(r, topology.backlog_capacity,
                                                initial_rate=workload.reports_per_step)
                          for r in range(topology.reporters)]
        for rep in self.reporters:
            if workload.kind is WorkloadKind.SKETCH_COLUMNS:
                share = topology.sketch.cols  # every reporter ships its whole sketch
            else:
                share = workload.reports // topology.reporters + (
                    1 if rep.reporter_id < workload.reports % topology.reporters else 0
                )
            rep.pending.extend(_generate_bodies(
                topology, workload, rep.reporter_id, share,
                random.Random(f"{seed}:wl:{rep.reporter_id}"),
            ))
            self.report.reports_offered += len(rep.pending)

    def run(self, dump_path=None) -> RunReport:
        report = self.report
        flow = self.translator.flow
        flags = wire.make_flags(essential=self.workload.essential)
        steps = 0
        drain_steps = 0  # drain steps in a row that settled no report
        settled = 0
        while True:
            steps += 1
            flow.meter.step()
            flow.begin_step()
            for packet in flow.drain_deferred():
                self.translator.apply(packet)

            arrivals: list[bytes] = []
            for rep in self.reporters:
                arrivals += rep.emit(flags)
            traffic_pending = any(rep.pending or rep.outbox for rep in self.reporters)

            if not traffic_pending:
                # a step that sent anything is delivered before the run can end
                if not arrivals and self._drained():
                    report.drained = True
                    break
                # the cap stops loss recovery that cannot finish, not a
                # deferred queue that is still draining
                if drain_steps >= self.MAX_DRAIN_STEPS:
                    break
                # keepalives expose tail loss: a trailing gap produces a NACK
                for rep in self.reporters:
                    if not self._reporter_drained(rep):
                        arrivals.append(rep.heartbeat())
                        report.keepalives += 1

            report.packets_sent += len(arrivals)
            self._deliver(arrivals)
            if report.reports_applied + report.reports_refused != settled:
                settled = report.reports_applied + report.reports_refused
                drain_steps = 0
            elif not traffic_pending:
                drain_steps += 1

        report.steps = steps
        report.unrecoverable = flow.skipped_unrecoverable
        report.retransmissions = sum(r.retransmissions for r in self.reporters)
        report.nacks_sent = flow.nacks_sent
        report.congestion_signals = flow.congestion_signals
        report.duplicates_suppressed = flow.duplicates_suppressed
        report.diverted = flow.diverted
        report.dropped_low_priority = flow.dropped_low_priority
        collector = self.translator.collector
        report.verbs_applied = collector.verbs_applied
        report.verbs_faulted = collector.verbs_faulted
        report.qp_desyncs = collector.qp_desyncs
        report.exactly_once_ok = self._exactly_once()
        report.memory_sha256 = hashlib.sha256(self.translator.region.snapshot()).hexdigest()
        if dump_path is not None:
            self.translator.region.dump(dump_path)
        return report

    def _deliver(self, arrivals: list[bytes]) -> None:
        """Carry a step's datagrams to the translator, then its controls back."""
        report = self.report
        loss_fwd = self.topology.link.loss_to_translator
        loss_rev = self.topology.link.loss_to_reporter
        receive = self.translator.receive
        for raw in arrivals:
            if loss_fwd and self._fwd_rng.random() < loss_fwd:
                report.packets_lost += 1
            else:
                receive(raw)
        controls = self.translator.flow.controls
        for control in controls:
            if loss_rev and self._rev_rng.random() < loss_rev:
                if isinstance(control, wire.NackPacket):
                    report.nacks_lost += 1
            else:
                self.reporters[control.reporter_id].inbox.append(control)
        controls.clear()

    def _reporter_drained(self, rep: flowctl.ReporterState) -> bool:
        """Whether every essential report it sent is settled; asked only once it has sent all."""
        if not self.workload.essential:
            return True
        return self.translator.flow.last_applied.get(rep.reporter_id, 0) == rep.essential_seq

    def _drained(self) -> bool:
        return (not self.translator.flow.deferred
                and all(self._reporter_drained(r) for r in self.reporters))

    def _exactly_once(self) -> bool:
        """Every offered essential report applied exactly once or counted lost."""
        if not self.workload.essential:
            return True
        applied = self.translator.applied_essential
        if any(count != 1 for count in applied.values()):
            return False
        # every reporter queue is empty once the run ends, so all offered
        # reports have been stamped, whatever their sequence numbers wrapped to
        return len(applied) + self.report.unrecoverable == self.report.reports_offered


def run(topology: Topology, workload: Workload, seed: int, dump_path=None) -> RunReport:
    """Build and run one simulation; see Simulation for post-run inspection."""
    return Simulation(topology, workload, seed).run(dump_path)


def _build(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(path or "<root>", f"expected an object, got {type(data).__name__}")
    declared = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in declared:
            raise ConfigError(where, "unknown field")
        section = declared[key].default_factory
        if is_dataclass(section):  # a nested section such as topology.link
            kwargs[key] = _build(section, value, where)
        elif key == "kind" and cls is Workload:
            try:
                kwargs[key] = WorkloadKind(value)
            except ValueError:
                choices = ", ".join(k.value for k in WorkloadKind)
                raise ConfigError(where, f"must be one of: {choices}") from None
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(path or cls.__name__.lower(), str(exc)) from None


def topology_from_dict(data: dict) -> Topology:
    """Build a Topology from parsed JSON, naming the offending field on error."""
    return _build(Topology, data, "topology")


def workload_from_dict(data: dict) -> Workload:
    """Build a Workload from parsed JSON, naming the offending field on error."""
    if "kind" not in data:
        raise ConfigError("workload.kind", "required field missing")
    return _build(Workload, data, "workload")
