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
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, asdict, is_dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional

from . import append as append_mod
from . import counters, flowctl, keywrite, postcarding, wire
from .hashing import MAX_REDUNDANCY, MAX_VALUE_BITS, HashFamily, value_codec
from .memstore import MAX_REGION_SIZE, PSN_MOD, MemoryRegion, QueuePair, apply_verb, reset_qp


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
            if not 0.0 <= (p := getattr(self, name)) < 1.0:
                raise ConfigError(f"topology.link.{name}",
                                  f"loss probability must be in [0, 1), got {p}")


@dataclass
class TranslatorConfig:
    meter_rate: float = float("inf")
    meter_burst: float = float("inf")
    fault_drop_verbs: float = 0.0  # translator->collector fault injection

    def __post_init__(self):
        if not 0.0 <= self.fault_drop_verbs < 1.0:
            raise ConfigError("topology.translator.fault_drop_verbs",
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


MAX_REPORTERS = 1 << 16


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
        if not 1 <= self.reporters <= MAX_REPORTERS:  # each costs about 2 KB at build
            raise ConfigError("topology.reporters",
                              f"must be in [1, {MAX_REPORTERS}], got {self.reporters}")
        # values each report carries to its store, refused here and not per report
        for section in ("kw", "pc", "ki"):
            n = getattr(self, section).redundancy
            if not 1 <= n <= MAX_REDUNDANCY:
                raise ConfigError(f"topology.{section}.redundancy",
                                  f"must be in [1, {MAX_REDUNDANCY}], got {n}")
        if self.sketch.w_batch < 1:
            raise ConfigError("topology.sketch.w_batch",
                              f"must be >= 1, got {self.sketch.w_batch}")
        # the codec is built with the run: 2^value_bits values of cell_bits each
        value_bits, cell_bits = self.pc.value_bits, self.pc.cell_bits
        if not (isinstance(value_bits, int) and 0 <= value_bits <= MAX_VALUE_BITS):
            raise ConfigError("topology.pc.value_bits",
                              f"must be an int in [0, {MAX_VALUE_BITS}], got {value_bits!r}")
        if not (isinstance(cell_bits, int) and 1 <= cell_bits <= 64):
            raise ConfigError("topology.pc.cell_bits",
                              f"must be an int in [1, 64], got {cell_bits!r}")


class WorkloadKind(Enum):
    KW_FLOWS = "kw-flows"
    POSTCARDS = "postcards"
    APPEND_EVENTS = "append-events"
    KI_COUNTERS = "ki-counters"
    SKETCH_COLUMNS = "sketch-columns"


@dataclass
class Workload:
    kind: WorkloadKind
    reports: int = 1000  # total across reporters (sketch: unused, each ships every column)
    essential: bool = True
    reports_per_step: float = float("inf")  # per-reporter offered rate
    key_space: int = 1 << 24
    max_delta: int = 16  # Key-Increment deltas drawn from [0, max_delta]
    path_len_fixed: Optional[int] = None  # postcards: fixed path length

    def __post_init__(self):
        try:
            self.kind = WorkloadKind(self.kind)
        except ValueError:
            choices = ", ".join(k.value for k in WorkloadKind)
            raise ConfigError("workload.kind", f"must be one of: {choices}") from None
        if self.reports < 0:
            raise ConfigError("workload.reports", f"must be >= 0, got {self.reports}")
        if self.key_space < 1:
            raise ConfigError("workload.key_space", f"must be >= 1, got {self.key_space}")
        if self.max_delta < 0:
            raise ConfigError("workload.max_delta", f"must be >= 0, got {self.max_delta}")
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
    malformed: int = 0  # delivered datagrams that do not decode or name no reporter: ignored
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
        # a wrapper installed on dta.sim.apply_verb sees every verb.  The
        # counters are kept in locals and written back once, also when a verb
        # raises: it has used up its PSN but is not counted as applied
        region, qp = self.region, self.qp
        fault_drop, fault_rng = self.fault_drop, self.fault_rng
        next_psn, applied, faulted = self.next_psn, 0, 0
        try:
            for verb in verbs:
                psn = next_psn
                next_psn = (psn + 1) % PSN_MOD
                if fault_drop and fault_rng.random() < fault_drop:
                    faulted += 1  # verb packet lost before the NIC
                    continue
                if not apply_verb(region, qp, psn, verb):
                    # models the controller re-establishing the connection, then
                    # the RDMA layer retrying the rejected packet
                    self.qp_desyncs += 1
                    reset_qp(qp, psn)
                    apply_verb(region, qp, psn, verb)
                applied += 1
        finally:
            self.next_psn = next_psn
            self.verbs_applied += applied
            self.verbs_faulted += faulted


@contextmanager
def _section(name: str):
    """Name the topology section whose store or meter refuses its config at build."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"topology.{name}", str(exc)) from None


class Translator:
    """Translator-side assembly: flow control, primitive state, verb emission."""

    def __init__(self, topology: Topology, report: RunReport, fault_rng: random.Random):
        t = topology
        self.topology = t
        self.report = report
        self.family = HashFamily(t.hash_seed)
        # sub-regions in table order, refused past the ceiling before any is allocated
        bases, end = {}, 0
        for p in _PRIMITIVES.values():
            base = (end + 7) // 8 * 8  # keep counters aligned
            bases[p.section] = base
            end = base + max(p.size(t), 0)  # a negative size is the store's to refuse
            if end > MAX_REGION_SIZE:
                raise ConfigError(f"topology.{p.section}", f"the region would reach {end} "
                                  f"octets, above the ceiling of {MAX_REGION_SIZE}")
        self.collector = Collector(MemoryRegion(end), t.translator.fault_drop_verbs, fault_rng)
        self.region = self.collector.region
        with _section("translator"):
            self.flow = flowctl.TranslatorFlowState(
                flowctl.TokenBucket(t.translator.meter_rate, t.translator.meter_burst))
        # each primitive's store or staging state, by its topology section
        self.state: dict = {}
        for p in _PRIMITIVES.values():
            with _section(p.section):
                self.state[p.section] = p.build(self.region, self.family, t, bases[p.section])
        # per reporter, the sequence of every essential report applied: the exactly-once audit
        self.applied_seqs: defaultdict[int, array] = defaultdict(lambda: array("I"))

    def receive(self, raw: bytes) -> None:
        """Decode, flow-control and apply one datagram; its controls wait on ``flow.controls``."""
        try:
            packet = wire.decode(raw)
        except wire.WireError:
            self.report.malformed += 1  # changes no other state
            return
        if packet.reporter_id >= self.topology.reporters:
            self.report.malformed += 1  # no such reporter: no sequence or audit to touch
            return
        if type(packet) is not wire.DtaPacket:
            if type(packet) is wire.SeqResetPacket:
                self.flow.handle_seq_reset(packet)
            return  # a NACK or congestion signal is the translator's to send, not a report
        charge, translate = _ROUTES[type(packet.body)]  # one lookup per report
        if self.flow.receive(packet, charge(self, packet.body)):
            self._apply(packet, translate)

    def apply(self, packet: wire.DtaPacket) -> None:
        """Apply one in-order report by its body type's route."""
        self._apply(packet, _ROUTES[type(packet.body)][1])

    def _apply(self, packet: wire.DtaPacket, translate) -> None:
        if packet.flags & wire.FLAG_ESSENTIAL:
            self.applied_seqs[packet.reporter_id].append(packet.essential_seq)
        # a store refuses a report by raising ValueError before it changes any
        # state; flow.receive has moved the sequence past it on purpose, since
        # it did arrive in order and a NACK would only bring back octets the
        # store refuses again
        try:
            verbs = translate(self, packet, packet.body)
        except ValueError:
            self.report.reports_refused += 1
            return
        if verbs:
            self.collector.apply(verbs)
        self.report.reports_applied += 1


def _copies(tr: Translator, body) -> int:
    return min(body.redundancy, MAX_REDUNDANCY)  # a store refuses more, so no more is charged


def _pc_build(region: MemoryRegion, family: HashFamily, t: Topology, base: int) -> tuple:
    """The chunk store, and the cache that holds each flow's postcards until it emits."""
    codec = value_codec(t.hash_seed, 2 ** t.pc.value_bits, t.pc.cell_bits)
    store = postcarding.PostcardStore(region, t.pc.chunks, t.pc.hops, t.pc.cell_bits,
                                      codec, family=family, base=base)
    return store, postcarding.PostcardCache(t.pc.cache_slots, t.pc.hops, family,
                                            2 ** t.pc.value_bits)


def _postcard(tr: Translator, packet: wire.DtaPacket, body: wire.PostcardBody) -> list:
    store, cache = tr.state["pc"]
    verbs = []
    for chunk in postcarding.pc_ingest(cache, body.flow_id, body.hop, body.value,
                                       body.path_len):
        verbs += postcarding.pc_write(store, chunk, tr.topology.pc.redundancy)
    return verbs


def _pc_bodies(t: Topology, w: Workload, reporter_id: int, count: int,
               rng: random.Random) -> list:
    if w.path_len_fixed is not None and not 1 <= w.path_len_fixed <= t.pc.hops:
        raise ConfigError("workload.path_len_fixed", f"must be in [1, {t.pc.hops}] "
                          f"(topology.pc.hops), got {w.path_len_fixed}")
    universe = 2 ** t.pc.value_bits
    bodies: list = []
    flow = 0
    while len(bodies) < count:
        flow_id = (reporter_id << 40) | flow
        flow += 1
        path_len = w.path_len_fixed or rng.randint(1, t.pc.hops)
        for hop in range(path_len):
            if len(bodies) == count:
                break
            bodies.append(wire.PostcardBody(flow_id, hop, rng.randrange(universe), path_len))
    return bodies


def _append_build(region: MemoryRegion, family: HashFamily, t: Topology,
                  base: int) -> append_mod.AppendEngine:
    a = t.append
    if a.lists < 1:
        raise ValueError(f"lists must be >= 1, got {a.lists}")
    engine = append_mod.AppendEngine(a.batch_size)
    for i in range(a.lists):
        engine.add_list(append_mod.AppendList(i, base + i * a.capacity * a.entry_len,
                                              a.capacity, a.entry_len))
    return engine


def _sketch_merge(tr: Translator, packet: wire.DtaPacket, body: wire.SketchMergeBody) -> list:
    counters.sm_ingest_column(tr.state["sketch"], packet.reporter_id, body.col_index, body.values)
    return counters.sm_flush_completed(tr.state["sketch"])


class _Primitive(NamedTuple):
    section: str  # its topology section, which names it in config errors
    size: Callable  # (t) -> octets of its sub-region
    build: Callable  # (region, family, t, base) -> its store or staging state
    body: type  # its wire body type
    charge: Callable  # (tr, body) -> verbs the meter charges; None: a keepalive
    translate: Callable  # (tr, packet, body) -> its verbs
    bodies: Callable  # (t, w, reporter_id, count, rng) -> that kind's reports


# One record per primitive, in region order (WorkloadKind's: memory_sha256 depends
# on it).  ``build`` takes a region and family, so ``build_alone`` builds outside a run.
# The others take the translator, as bound methods held by it would make a reference
# cycle, and look each layer's function up per call, so a wrapper installed on one
# (keywrite.kw_write, say) sees every call.
_PRIMITIVES = {
    WorkloadKind.KW_FLOWS: _Primitive(
        "kw", lambda t: t.kw.buflen * ((t.kw.checksum_bits + 7) // 8 + t.kw.value_len),
        lambda region, family, t, base: keywrite.KwStore(
            region, t.kw.buflen, t.kw.checksum_bits, t.kw.value_len, family=family, base=base),
        wire.KeyWriteBody, _copies,
        lambda tr, packet, body: keywrite.kw_write(tr.state["kw"], body.key, body.value,
                                                   body.redundancy),
        lambda t, w, reporter_id, count, rng: [wire.KeyWriteBody(
            t.kw.redundancy, rng.randrange(w.key_space).to_bytes(8, "big"),
            rng.randbytes(t.kw.value_len)) for _ in range(count)]),
    WorkloadKind.POSTCARDS: _Primitive(
        "pc", lambda t: t.pc.chunks * postcarding._next_pow2(
            (t.pc.cell_bits + 7) // 8 * t.pc.hops), _pc_build,
        wire.PostcardBody, lambda tr, body: tr.topology.pc.redundancy, _postcard, _pc_bodies),
    WorkloadKind.APPEND_EVENTS: _Primitive(
        "append", lambda t: t.append.lists * t.append.capacity * t.append.entry_len,
        _append_build, wire.AppendBody,
        lambda tr, body: None if flowctl.is_keepalive(body) else 1,
        lambda tr, packet, body: tr.state["append"].ingest(body.list_id, body.entry),
        lambda t, w, reporter_id, count, rng: [wire.AppendBody(
            i % t.append.lists, rng.randbytes(t.append.entry_len)) for i in range(count)]),
    WorkloadKind.KI_COUNTERS: _Primitive(
        "ki", lambda t: t.ki.buflen * counters.COUNTER_LEN,
        lambda region, family, t, base: counters.KiStore(region, t.ki.buflen, family, base),
        wire.KeyIncrementBody, _copies,
        lambda tr, packet, body: counters.ki_increment(tr.state["ki"], body.key, body.delta,
                                                       body.redundancy),
        lambda t, w, reporter_id, count, rng: [wire.KeyIncrementBody(
            t.ki.redundancy, rng.randrange(w.key_space).to_bytes(8, "big"),
            rng.randint(0, w.max_delta)) for _ in range(count)]),
    WorkloadKind.SKETCH_COLUMNS: _Primitive(
        "sketch", lambda t: t.sketch.rows * t.sketch.cols * counters.COUNTER_LEN,
        lambda region, family, t, base: counters.SketchMergeState(
            t.sketch.rows, t.sketch.cols, t.sketch.merge_op, t.reporters, t.sketch.w_batch, base),
        wire.SketchMergeBody, lambda tr, body: 1, _sketch_merge,
        # every reporter ships its whole sketch, whatever its share of the reports
        lambda t, w, reporter_id, count, rng: [wire.SketchMergeBody(
            col, tuple(rng.randrange(1 << 20) for _ in range(t.sketch.rows)))
            for col in range(t.sketch.cols)]),
}
_ROUTES = {p.body: (p.charge, p.translate) for p in _PRIMITIVES.values()}  # by body type


def build_alone(kind: WorkloadKind, t: Topology) -> tuple:
    """One primitive's state at base 0 of a region of its own, and a Collector over it."""
    p = _PRIMITIVES[kind]
    region = MemoryRegion(p.size(t))
    return p.build(region, HashFamily(t.hash_seed), t, 0), Collector(region)


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
        with _section("backlog_capacity"):
            self.reporters = [flowctl.ReporterState(r, topology.backlog_capacity,
                                                    initial_rate=workload.reports_per_step)
                              for r in range(topology.reporters)]
        bodies = _PRIMITIVES[workload.kind].bodies
        per_reporter, extra = divmod(workload.reports, topology.reporters)
        for rep in self.reporters:
            share = per_reporter + (rep.reporter_id < extra)
            rep.pending.extend(bodies(topology, workload, rep.reporter_id, share,
                                      random.Random(f"{seed}:wl:{rep.reporter_id}")))
            self.report.reports_offered += len(rep.pending)

    def run(self) -> RunReport:
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
        applied = self.translator.applied_seqs.values()
        if any(len(set(seqs)) != len(seqs) for seqs in applied):
            return False
        # every reporter queue is empty once the run ends, so all offered
        # reports have been stamped, whatever their sequence numbers wrapped to
        return sum(map(len, applied)) + self.report.unrecoverable == self.report.reports_offered


def run(topology: Topology, workload: Workload, seed: int) -> RunReport:
    """Build and run one simulation; see Simulation for post-run inspection."""
    return Simulation(topology, workload, seed).run()


# JSON types a leaf takes, by the type of its field's default; any other type takes itself
_ACCEPTS = {"float": ("int", "float"), "NoneType": ("int", "null")}


def check_leaf(where: str, value, default) -> None:
    """Refuse a JSON leaf whose type is not its field's, read off the field's default.

    An int takes no bool; a list types each of its items by its default's first.
    """
    got = "null" if value is None else type(value).__name__
    accepts = _ACCEPTS.get(type(default).__name__, (type(default).__name__,))
    if got not in accepts:
        raise ConfigError(where, f"expected {' or '.join(accepts)}, got {got}")
    if got == "list":
        for i, item in enumerate(value):
            check_leaf(f"{where}[{i}]", item, default[0])


def _build(cls, data: dict, path: str):
    """``cls`` from its JSON object at ``path``, the dotted path from the config root."""
    if not isinstance(data, dict):
        raise ConfigError(path, f"expected an object, got {type(data).__name__}")
    declared = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}"
        if key not in declared:
            raise ConfigError(where, "unknown field")
        section, default = declared[key].default_factory, declared[key].default
        if is_dataclass(section):  # a nested section such as topology.link
            value = _build(section, value, where)
        elif default is not MISSING:  # the required workload.kind: Workload checks it
            check_leaf(where, value, default)
        kwargs[key] = value
    return cls(**kwargs)


def topology_from_dict(data: dict) -> Topology:
    """Build a Topology from parsed JSON, naming the offending field on error."""
    return _build(Topology, data, "topology")


def workload_from_dict(data: dict) -> Workload:
    """Build a Workload from parsed JSON, naming the offending field on error."""
    if isinstance(data, dict) and "kind" not in data:
        raise ConfigError("workload.kind", "required field missing")
    return _build(Workload, data, "workload")
