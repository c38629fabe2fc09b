import dataclasses
import gc
import random
import tracemalloc
import types
import typing
import weakref
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dta import sim, wire
from dta.counters import COUNTER_LEN
from dta.memstore import (
    PSN_MOD,
    FetchAdd,
    MemoryRegion,
    OutOfBoundsError,
    Outcome,
    Write,
    apply_verb,
    reset_qp,
)
from dta.keywrite import kw_query
from dta.postcarding import pc_query
from dta.sim import (
    Collector,
    ConfigError,
    LinkConfig,
    Simulation,
    Topology,
    TranslatorConfig,
    Workload,
    WorkloadKind,
    topology_from_dict,
    workload_from_dict,
)


def test_zero_loss_kw_run_applies_everything_and_answers_queries():
    topo = Topology(reporters=1)
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=100)
    s = Simulation(topo, wl, seed=1)
    bodies = list(s.reporters[0].pending)
    report = s.run()
    assert report.reports_applied == 100
    assert report.packets_lost == 0
    assert report.drained and report.exactly_once_ok
    assert report.qp_desyncs == 0
    for body in bodies:  # age-0 queries on a 64K store all succeed
        res = kw_query(s.translator.state["kw"], body.key, topo.kw.redundancy)
        assert res.outcome is Outcome.VALUE
        assert res.value == body.value


def test_same_seed_same_everything():
    topo = Topology(reporters=3, link=LinkConfig(0.02, 0.02))
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=500, reports_per_step=32)
    first, second = Simulation(topo, wl, seed=11), Simulation(topo, wl, seed=11)
    a, b = first.run(), second.run()
    assert a.to_dict() == b.to_dict()
    assert first.translator.region.snapshot() == second.translator.region.snapshot()
    c = sim.run(topo, wl, seed=12)
    assert c.memory_sha256 != a.memory_sha256


def test_lossy_append_run_is_exactly_once():
    topo = Topology(reporters=2, link=LinkConfig(0.01, 0.01))
    wl = Workload(kind=WorkloadKind.APPEND_EVENTS, reports=2000, reports_per_step=64)
    report = sim.run(topo, wl, seed=5)
    assert report.drained
    assert report.exactly_once_ok
    assert report.unrecoverable == 0
    assert report.retransmissions > 0
    assert report.qp_desyncs == 0


def test_conservation_of_reports():
    topo = Topology(reporters=2, link=LinkConfig(0.05, 0.05), backlog_capacity=8)
    wl = Workload(kind=WorkloadKind.APPEND_EVENTS, reports=1000, reports_per_step=200)
    s = Simulation(topo, wl, seed=9)
    report = s.run()
    assert report.drained
    # every offered essential report ends applied-once or counted unrecoverable
    seqs = s.translator.applied_seqs
    assert sum(len(applied) for applied in seqs.values()) + report.unrecoverable \
        == report.reports_offered
    assert all(len(set(applied)) == len(applied) for applied in seqs.values())
    assert report.unrecoverable > 0  # the audit covers the lost reports too


def test_applying_a_report_twice_breaks_the_audit():
    topo = Topology(reporters=1)
    wl = Workload(kind=WorkloadKind.KI_COUNTERS, reports=50)
    s = Simulation(topo, wl, seed=2)
    assert s.run().exactly_once_ok
    again = wire.decode(s.reporters[0].backlog[7])
    s.translator.apply(again)
    assert not s._exactly_once()
    s.translator.applied_seqs[0].remove(9)  # the count balances again; the duplicate stays
    assert not s._exactly_once()


def test_a_finished_run_is_freed_without_the_cyclic_collector():
    """Nothing a Simulation holds points back at it, so ``del`` frees it at once."""
    gc.disable()
    try:
        s = Simulation(Topology(reporters=2, link=LinkConfig(0.05, 0.05)),
                       Workload(kind=WorkloadKind.APPEND_EVENTS, reports=400,
                                reports_per_step=50), seed=3)
        s.run()
        translator = weakref.ref(s.translator)
        del s
        assert translator() is None
    finally:
        gc.enable()


def test_non_essential_loss_never_nacks():
    topo = Topology(reporters=2, link=LinkConfig(0.05, 0.05))
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=1000, essential=False,
                  reports_per_step=64)
    report = sim.run(topo, wl, seed=3)
    assert report.packets_lost > 0
    assert report.nacks_sent == 0
    assert report.retransmissions == 0


@pytest.mark.parametrize("rate", [16, float("inf")])  # inf: the whole run is one step
@pytest.mark.parametrize("loss", [0.0, 0.02])
@pytest.mark.parametrize("kind", [WorkloadKind.KW_FLOWS, WorkloadKind.APPEND_EVENTS],
                         ids=lambda k: k.value)
def test_non_essential_run_accounts_for_every_report(kind, loss, rate):
    """Each report is applied, refused, lost or dropped, the last step's included."""
    topo = Topology(reporters=2, link=LinkConfig(loss, loss),
                    translator=TranslatorConfig(meter_rate=8, meter_burst=8))
    wl = Workload(kind, reports=300, essential=False, reports_per_step=rate)
    report = sim.run(topo, wl, seed=5)
    assert report.drained and report.keepalives == 0
    assert report.packets_sent == report.reports_offered
    assert report.dropped_low_priority > 0 and (report.packets_lost > 0) == (loss > 0)
    assert (report.reports_applied + report.reports_refused + report.packets_lost
            + report.dropped_low_priority) == report.reports_offered


def test_fault_injection_desyncs_collector_qp():
    clean = Topology(reporters=1, link=LinkConfig(0.02, 0.02))
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=500, reports_per_step=64)
    assert sim.run(clean, wl, seed=4).qp_desyncs == 0

    faulty = Topology(reporters=1,
                      translator=TranslatorConfig(fault_drop_verbs=0.02))
    report = sim.run(faulty, wl, seed=4)
    assert report.verbs_faulted > 0
    assert report.qp_desyncs > 0


def test_collector_stamps_psns_across_the_24_bit_wrap():
    collector = Collector(MemoryRegion(8))
    collector.next_psn = PSN_MOD - 2
    reset_qp(collector.qp, PSN_MOD - 2)
    collector.apply([FetchAdd(0, 1)] * 4)
    assert collector.next_psn == 2
    assert (collector.verbs_applied, collector.qp_desyncs) == (4, 0)
    assert int.from_bytes(collector.region.read(0, 8), "little") == 4


def test_collector_resyncs_after_a_lost_verb():
    collector = Collector(MemoryRegion(8), fault_drop=0.3, fault_rng=random.Random(1))
    collector.apply([FetchAdd(0, 1)] * 200)
    assert collector.verbs_applied + collector.verbs_faulted == 200
    assert 0 < collector.qp_desyncs <= collector.verbs_faulted
    # every verb that was not lost reached memory, the retried ones included
    assert int.from_bytes(collector.region.read(0, 8), "little") == collector.verbs_applied


def reference_collector_apply(collector, verbs):
    """Collector.apply as the per-verb loop that updates its counters each verb."""
    region, qp = collector.region, collector.qp
    for verb in verbs:
        psn = collector.next_psn
        collector.next_psn = (psn + 1) % PSN_MOD
        if collector.fault_drop and collector.fault_rng.random() < collector.fault_drop:
            collector.verbs_faulted += 1
            continue
        if not apply_verb(region, qp, psn, verb):
            collector.qp_desyncs += 1
            reset_qp(qp, psn)
            apply_verb(region, qp, psn, verb)
        collector.verbs_applied += 1


_COLLECTOR_REGION = 32
_collector_verbs = st.lists(st.one_of(
    # 4 is misaligned and 32 out of bounds: both raise OutOfBoundsError
    st.builds(FetchAdd, st.sampled_from([0, 8, 24, 4, 32]), st.integers(0, (1 << 64) - 1)),
    st.builds(Write, st.integers(-1, _COLLECTOR_REGION), st.binary(max_size=3)),
), max_size=8)


@given(st.integers(1, 5), st.sampled_from([0, 0, 1]), st.sampled_from([0.0, 0.0, 0.5]),
       _collector_verbs)
@example(2, 0, 0.0, [FetchAdd(0, 1), FetchAdd(_COLLECTOR_REGION, 1), FetchAdd(8, 1)])
@example(2, 0, 0.5, [FetchAdd(0, 1), FetchAdd(8, 1), FetchAdd(_COLLECTOR_REGION, 1)])
def test_collector_apply_matches_the_per_verb_loop(before_wrap, offset, fault_drop, verbs):
    """Memory, PSNs across the 2**24 wrap, counters and fault draws, also when a verb raises.

    ``offset`` starts the queue pair off the collector's PSN, so the first verb desyncs it.
    """
    sides = []
    for apply in (Collector.apply, reference_collector_apply):
        collector = Collector(MemoryRegion(_COLLECTOR_REGION), fault_drop, random.Random(7))
        collector.next_psn = PSN_MOD - before_wrap
        reset_qp(collector.qp, collector.next_psn + offset)
        try:
            apply(collector, verbs)
            raised = None
        except (OutOfBoundsError, ValueError) as exc:
            raised = type(exc), str(exc)
        sides.append((raised, collector.region.snapshot(), collector.next_psn,
                      collector.verbs_applied, collector.verbs_faulted, collector.qp_desyncs,
                      collector.qp.desynced, collector.qp.expected_psn,
                      collector.fault_rng.getstate()))
    assert sides[0] == sides[1]


def test_postcard_run_aggregates_paths():
    topo = Topology(reporters=1)
    wl = Workload(kind=WorkloadKind.POSTCARDS, reports=200, path_len_fixed=5)
    s = Simulation(topo, wl, seed=8)
    bodies = list(s.reporters[0].pending)
    report = s.run()
    assert report.drained
    flows = {}
    for body in bodies:
        flows.setdefault(body.flow_id, []).append(body.value)
    complete = {f: vals for f, vals in flows.items() if len(vals) == 5}
    hits = sum(
        pc_query(s.translator.state["pc"][0], f, topo.pc.redundancy).value == tuple(vals)
        for f, vals in complete.items()
    )
    assert hits / len(complete) > 0.95  # rare chunk collisions may erase a path


def test_ki_run_never_underestimates():
    topo = Topology(reporters=2)
    wl = Workload(kind=WorkloadKind.KI_COUNTERS, reports=2000, key_space=64)
    s = Simulation(topo, wl, seed=6)
    exact = {}
    for rep in s.reporters:
        for body in rep.pending:
            exact[body.key] = exact.get(body.key, 0) + body.delta
    s.run()
    from dta.counters import ki_query

    for key, total in exact.items():
        assert ki_query(s.translator.state["ki"], key, topo.ki.redundancy) >= total


def test_sketch_run_completes_and_matches_oracle():
    topo = Topology(reporters=3)
    wl = Workload(kind=WorkloadKind.SKETCH_COLUMNS)
    s = Simulation(topo, wl, seed=2)
    per_reporter = [list(rep.pending) for rep in s.reporters]
    report = s.run()
    assert report.drained and report.exactly_once_ok
    state = s.translator.state["sketch"]
    assert state.complete_cols == topo.sketch.cols
    rows = topo.sketch.rows
    for col in range(topo.sketch.cols):
        expected = [sum(per_reporter[r][col].values[row] for r in range(3))
                    for row in range(rows)]
        assert state.sketch[col * rows:(col + 1) * rows] == expected
    # completed columns were shipped contiguously to collector memory
    raw = s.translator.region.read(state.base, rows * topo.sketch.cols * 8)
    oracle = b"".join(v.to_bytes(8, "little") for v in state.sketch)
    assert raw == oracle


def test_every_workload_kind_and_wire_body_has_one_primitive():
    """One record per kind, in WorkloadKind's order, which is the region's order."""
    assert list(sim._PRIMITIVES) == list(WorkloadKind)
    sections = [p.section for p in sim._PRIMITIVES.values()]
    assert len(set(sections)) == len(sections)
    assert all(hasattr(Topology(), section) for section in sections)
    bodies = [p.body for p in sim._PRIMITIVES.values()]
    assert sorted(bodies, key=str) == sorted(typing.get_args(wire.Body), key=str)
    assert set(sim._ROUTES) == set(bodies)


def _span(section: str, state) -> tuple[int, int]:
    """The octets [start, end) of the region a primitive's store or staging state addresses."""
    if section == "kw":
        return state.base, state.base + state.buflen * state.slot_len
    if section == "pc":
        store = state[0]
        return store.base, store.base + store.chunks * store.chunk_stride
    if section == "append":
        lists = list(state.lists.values())
        return lists[0].base, lists[-1].base + lists[-1].capacity * lists[-1].entry_len
    if section == "ki":
        return state.base, state.base + state.buflen * COUNTER_LEN
    return state.base, state.base + state.rows * state.cols * COUNTER_LEN


_SMALL_TOPOLOGIES = st.builds(
    Topology,
    reporters=st.integers(1, 3),
    kw=st.builds(sim.KwConfig, buflen=st.integers(1, 64), checksum_bits=st.integers(1, 64),
                 value_len=st.integers(1, 9)),
    pc=st.builds(sim.PcConfig, chunks=st.integers(1, 64), hops=st.integers(1, 9),
                 cache_slots=st.integers(1, 16)),
    append=st.integers(1, 4).flatmap(lambda batch: st.builds(
        sim.AppendConfig, lists=st.integers(1, 4), entry_len=st.integers(1, 9),
        capacity=st.integers(1, 8).map(lambda n: n * batch), batch_size=st.just(batch))),
    ki=st.builds(sim.KiConfig, buflen=st.integers(1, 64)),
    sketch=st.builds(sim.SketchConfig, rows=st.integers(1, 4), cols=st.integers(1, 16),
                     w_batch=st.integers(1, 4)),
)


@settings(max_examples=60, deadline=None)
@given(_SMALL_TOPOLOGIES)
def test_the_sub_regions_are_aligned_packed_in_table_order_and_fill_the_region(topo):
    tr = Simulation(topo, Workload(WorkloadKind.KW_FLOWS, reports=0), seed=1).translator
    end = 0
    for p in sim._PRIMITIVES.values():
        start, stop = _span(p.section, tr.state[p.section])
        assert start % 8 == 0, p.section
        assert end <= start < end + 8, p.section  # after the one before, padded to align only
        assert stop - start == p.size(topo), p.section
        assert stop <= tr.region.size, p.section
        end = stop
    assert tr.region.size == end


@pytest.mark.parametrize("kind", list(WorkloadKind), ids=lambda k: k.value)
@settings(max_examples=30, deadline=None)
@given(topo=_SMALL_TOPOLOGIES, hash_seed=st.integers(0, 2**64 - 1),
       reports=st.integers(0, 40), seed=st.integers(0, 2**16))
def test_a_primitive_built_alone_writes_what_it_writes_inside_a_translator(
        kind, topo, hash_seed, reports, seed):
    """What ``build_alone`` gives the engines is the translator's sub-region, moved to 0."""
    topo = dataclasses.replace(topo, hash_seed=hash_seed)
    p = sim._PRIMITIVES[kind]
    state, collector = sim.build_alone(kind, topo)
    assert collector.region.size == p.size(topo)
    tr = Simulation(topo, Workload(kind, reports=0), seed).translator
    alone = types.SimpleNamespace(state={p.section: state}, topology=topo)  # what translate reads
    rng = random.Random(seed)
    for reporter_id in range(topo.reporters):
        for body in p.bodies(topo, Workload(kind, key_space=64), reporter_id, reports, rng):
            packet = wire.DtaPacket(body, reporter_id, 0, 0)
            tr.apply(packet)
            collector.apply(p.translate(alone, packet, body))
    assert tr.report.reports_applied > 0 or reports == 0
    assert tr.report.reports_refused == 0
    base = _span(p.section, tr.state[p.section])[0]
    assert collector.region.snapshot() == tr.region.snapshot()[base:base + p.size(topo)]


def _build_peak(topology: Topology) -> int:
    """Octets a ``Simulation`` build peaks at, traced by ``tracemalloc``."""
    workload = Workload(kind=WorkloadKind.KW_FLOWS, reports=0)
    Simulation(topology, workload, seed=1)  # builds the shared value codec untraced
    tracemalloc.start()
    try:
        Simulation(topology, workload, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_translator_staging_state_costs_what_it_holds():
    """A sketch costs a few octets a counter; postcard cache rows cost nothing until held."""
    default = _build_peak(Topology())
    counters = 1 << 20
    sketch = _build_peak(Topology(sketch=sim.SketchConfig(rows=1, cols=counters)))
    # its sub-region, its flat counters and its per-column merge count: 8 octets each
    assert (sketch - default) / counters <= 32
    cache = _build_peak(Topology(pc=sim.PcConfig(cache_slots=1 << 24)))
    assert cache - default <= 64 << 10


def test_meter_saturation_diverts_and_drains():
    topo = Topology(reporters=1,
                    translator=TranslatorConfig(meter_rate=10, meter_burst=10))
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=100, reports_per_step=25)
    report = sim.run(topo, wl, seed=7)
    assert report.diverted > 0
    assert report.congestion_signals > 0
    assert report.drained and report.exactly_once_ok


def _slow_meter_run(meter_rate: float) -> sim.RunReport:
    topo = Topology(reporters=1,
                    translator=TranslatorConfig(meter_rate=meter_rate, meter_burst=2))
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=600, reports_per_step=600)
    return sim.run(topo, wl, seed=7)


def test_a_slow_meter_drains_past_the_drain_step_cap():
    """Steps that apply a deferred report do not count toward MAX_DRAIN_STEPS."""
    report = _slow_meter_run(0.1)
    assert report.steps == 11981 > Simulation.MAX_DRAIN_STEPS
    assert report.diverted == 599 and report.reports_applied == 600
    assert report.drained and report.exactly_once_ok


def test_a_stalled_meter_stops_at_the_drain_step_cap():
    report = _slow_meter_run(0.0)
    # step 1 applies the one report the burst admits; the cap's worth of
    # steps settles nothing after it, and the next step ends the run
    assert report.steps == Simulation.MAX_DRAIN_STEPS + 2
    assert report.reports_applied == 1 and report.diverted == 599
    assert not report.drained and not report.exactly_once_ok


def _sending(s: Simulation, bodies) -> Simulation:
    """``s`` with its first reporter sending exactly ``bodies``."""
    s.reporters[0].pending = deque(bodies)
    s.report.reports_offered = len(bodies)
    return s


def test_a_report_costlier_than_the_meter_burst_still_drains():
    """A full bucket admits a report whose verbs exceed the burst, refused or not."""
    topo = Topology(translator=TranslatorConfig(meter_rate=1, meter_burst=1))
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=20)
    s = Simulation(topo, wl, seed=3)
    bodies = list(s.reporters[0].pending)
    report = sim.run(topo, wl, seed=3)
    assert report.reports_applied == 20 and report.diverted > 0
    assert report.drained and report.exactly_once_ok
    clean_steps = report.steps
    # the meter charges a wire redundancy of 255 as MAX_REDUNDANCY verbs, so
    # the refused report holds up the valid ones behind it by a few steps only
    bodies.insert(7, wire.KeyWriteBody(255, bytes(8), bytes(4)))
    report = _sending(s, bodies).run()
    assert report.reports_applied == 20 and report.reports_refused == 1
    assert report.drained and report.exactly_once_ok
    assert report.steps <= clean_steps + 5


_KEY = bytes(8)
# Each body decodes cleanly but has one field its store refuses at the default Topology.
REFUSED_BODIES = {
    "kw-redundancy-7": wire.KeyWriteBody(7, _KEY, bytes(4)),
    "kw-2-byte-value": wire.KeyWriteBody(2, _KEY, bytes(2)),
    "append-list-9": wire.AppendBody(9, bytes(4)),
    "append-3-byte-entry": wire.AppendBody(0, bytes(3)),
    "ki-redundancy-0": wire.KeyIncrementBody(0, _KEY, 1),
    "ki-redundancy-5": wire.KeyIncrementBody(5, _KEY, 1),
    "postcard-hop-9": wire.PostcardBody(1, 9, 1, 5),
    "postcard-value-5000": wire.PostcardBody(1, 0, 5000, 5),
    "postcard-path-len-6": wire.PostcardBody(1, 0, 1, 6),
    "sketch-2-rows": wire.SketchMergeBody(0, (1, 2)),
    "sketch-first-column-5": wire.SketchMergeBody(5, (1, 2, 3, 4)),
    "sketch-first-column-99": wire.SketchMergeBody(99, (1, 2, 3, 4)),
}


@pytest.mark.parametrize("name", REFUSED_BODIES)
def test_a_report_its_store_refuses_is_counted_and_writes_nothing(name):
    s = Simulation(Topology(), Workload(WorkloadKind.KW_FLOWS, reports=0), seed=1)
    report = _sending(s, [REFUSED_BODIES[name]]).run()
    assert report.reports_refused == 1
    assert report.reports_applied == report.verbs_applied == 0
    assert report.drained and report.exactly_once_ok
    assert s.translator.region.snapshot() == bytes(s.translator.region.size)


_REDUNDANCY_OUT_OF_RANGE = st.one_of(st.just(0), st.integers(5, 255))
_OTHER_LENGTH = st.integers(0, 12).filter(lambda n: n != 4)  # every store here takes 4 octets
# Bodies with exactly one field out of range at the default Topology (4 lists,
# 5 hops, a 2**10 value universe, 4 x 16 sketch); no sketch column from 17 up
# is ever the next one a reporter owes.
_BAD_BODIES = {
    WorkloadKind.KW_FLOWS: st.one_of(
        _REDUNDANCY_OUT_OF_RANGE.map(lambda n: wire.KeyWriteBody(n, _KEY, bytes(4))),
        _OTHER_LENGTH.map(lambda n: wire.KeyWriteBody(2, _KEY, bytes(n)))),
    WorkloadKind.KI_COUNTERS: _REDUNDANCY_OUT_OF_RANGE.map(
        lambda n: wire.KeyIncrementBody(n, _KEY, 3)),
    WorkloadKind.APPEND_EVENTS: st.one_of(
        st.integers(4, 2**32 - 1).map(lambda i: wire.AppendBody(i, bytes(4))),
        _OTHER_LENGTH.map(lambda n: wire.AppendBody(1, bytes(n)))),
    WorkloadKind.POSTCARDS: st.one_of(
        st.integers(5, 255).map(lambda hop: wire.PostcardBody(1, hop, 7, 5)),
        st.integers(2**10, 2**32 - 1).map(lambda v: wire.PostcardBody(1, 0, v, 5)),
        st.integers(6, 255).map(lambda n: wire.PostcardBody(1, 0, 7, n))),
    WorkloadKind.SKETCH_COLUMNS: st.one_of(
        _OTHER_LENGTH.map(lambda n: wire.SketchMergeBody(0, (1,) * n)),
        st.integers(17, 2**16 - 1).map(lambda c: wire.SketchMergeBody(c, (1, 2, 3, 4)))),
}


@pytest.mark.parametrize("kind", list(WorkloadKind), ids=lambda k: k.value)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_refused_reports_leave_a_lossy_run_as_without_them(kind, data):
    """Bad bodies among a valid stream are each refused once; the rest is unchanged.

    One reporter, so the order the translator applies valid reports in, and
    with it the memory image, does not depend on which packets the link drops.
    """
    topo = Topology(link=LinkConfig(0.05, 0.05))
    wl = Workload(kind, reports=data.draw(st.integers(0, 40), label="reports"))
    seed = data.draw(st.integers(0, 2**16), label="seed")
    alone = Simulation(topo, wl, seed)
    bodies = list(alone.reporters[0].pending)
    bad = data.draw(st.lists(_BAD_BODIES[kind], min_size=1, max_size=6), label="bad")
    for body in bad:
        bodies.insert(data.draw(st.integers(0, len(bodies)), label="at"), body)
    mixed = _sending(Simulation(topo, wl, seed), bodies).run()
    expected = alone.run()
    assert mixed.drained and mixed.exactly_once_ok
    assert mixed.reports_refused == len(bad) and expected.reports_refused == 0
    for name in ("reports_applied", "verbs_applied", "memory_sha256"):
        assert getattr(mixed, name) == getattr(expected, name), name


@pytest.mark.parametrize("meter_rate, meter_burst, loss", [(2, 4, 0.2), (5, 5, 0.1), (1, 2, 0.3)])
def test_a_keepalive_is_never_metered(meter_rate, meter_burst, loss):
    """Every report is essential, so a tail keepalive behind a deferred one drops nothing."""
    topo = Topology(reporters=2, link=LinkConfig(loss, loss),
                    translator=TranslatorConfig(meter_rate=meter_rate, meter_burst=meter_burst))
    wl = Workload(WorkloadKind.KW_FLOWS, 100, reports_per_step=16)
    for seed in range(30):
        report = sim.run(topo, wl, seed)
        assert report.drained and report.exactly_once_ok, seed
        assert report.dropped_low_priority == 0, seed


def _translator_state(s: Simulation) -> tuple:
    """Every counter, sequence and octet a datagram at the translator could change."""
    tr, flow = s.translator, s.translator.flow
    counts = {name: value for name, value in vars(flow).items() if isinstance(value, int)}
    return (s.report.to_dict(), counts, dict(flow.last_applied), list(flow.controls),
            list(flow.deferred), {r: list(seqs) for r, seqs in tr.applied_seqs.items()},
            flow.meter.tokens, tr.region.snapshot(), tr.collector.next_psn)


@pytest.mark.parametrize("control", [wire.NackPacket(0, 1), wire.CongestionSignal(0)],
                         ids=["nack", "congestion-signal"])
def test_a_control_datagram_at_the_translator_is_ignored(control):
    """A NACK or congestion signal decodes but is no report: nothing changes."""
    s = Simulation(Topology(reporters=2, link=LinkConfig(0.05, 0.05)),
                   Workload(WorkloadKind.KI_COUNTERS, reports=200, reports_per_step=16), seed=4)
    s.run()
    before = _translator_state(s)
    s.translator.receive(wire.encode(control))
    assert _translator_state(s) == before


def _mid_run(kind: WorkloadKind, seed: int) -> tuple[Simulation, list[bytes]]:
    """A translator that has taken part of one step, with a gap left open, and the
    step's datagrams."""
    s = Simulation(Topology(reporters=2), Workload(kind, reports=40, reports_per_step=8), seed)
    sent = [raw for rep in s.reporters for raw in rep.emit(wire.make_flags(essential=True))]
    for raw in sent[:3] + sent[4:6]:
        s.translator.receive(raw)
    return s, sent


def _damaged(raw: bytes) -> st.SearchStrategy:
    """``raw`` cut short or with one bit flipped, or random octets in its place."""
    return st.one_of(
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n]),
        st.integers(0, 8 * len(raw) - 1).map(
            lambda bit: raw[:bit // 8] + bytes([raw[bit // 8] ^ 1 << bit % 8]) + raw[bit // 8 + 1:]),
        st.binary(max_size=80))


def _names_a_reporter(raw: bytes, reporters: int) -> bool:
    """Whether ``raw`` decodes to a packet whose reporter is one of ``reporters``."""
    try:
        return wire.decode(raw).reporter_id < reporters
    except wire.WireError:
        return False


def test_a_truncated_report_is_counted_malformed_and_changes_nothing_else():
    s, sent = _mid_run(WorkloadKind.KW_FLOWS, seed=2)
    assert len(sent[6]) == 30
    before = _translator_state(s)
    s.translator.receive(sent[6][:27])  # decode: "length: declares 30 octets, got 27"
    assert s.report.malformed == 1
    s.report.malformed = 0
    assert _translator_state(s) == before


@pytest.mark.parametrize("kind", list(WorkloadKind), ids=lambda k: k.value)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_translator_survives_any_datagram(kind, data):
    """A datagram that fails to decode, or names no reporter of the topology, is counted
    in ``malformed`` and changes no other state; any other is taken as the report or
    control it reads as."""
    s, sent = _mid_run(kind, data.draw(st.integers(0, 2**16), label="seed"))
    raw = data.draw(st.sampled_from(sent).flatmap(_damaged), label="raw")
    before = _translator_state(s)
    s.translator.receive(raw)
    if _names_a_reporter(raw, s.topology.reporters):
        assert s.report.malformed == 0
    else:
        assert s.report.malformed == 1
        s.report.malformed = 0
        assert _translator_state(s) == before


_KW_BODY = wire.KeyWriteBody(2, b"k" * 8, b"v" * 4)


@pytest.mark.parametrize("packet", [
    wire.DtaPacket(_KW_BODY, 5, 1, wire.make_flags(essential=True)),
    wire.DtaPacket(_KW_BODY, 5, 3, wire.make_flags(essential=True)),
    wire.SeqResetPacket(2, 9),
], ids=["report-in-order", "report-out-of-order", "seq-reset"])
def test_a_packet_from_no_reporter_of_the_topology_is_counted_malformed(packet):
    """A packet naming a reporter the topology lacks decodes, but no reporter sent it.
    In order, such a report was once applied and entered the exactly-once audit; out of
    order, its NACK made ``_deliver`` raise ``IndexError``."""
    s = Simulation(Topology(reporters=2), Workload(WorkloadKind.KW_FLOWS, reports=40), seed=1)
    before = _translator_state(s)
    s._deliver([wire.encode(packet)])
    assert s.report.malformed == 1
    s.report.malformed = 0
    assert _translator_state(s) == before
    assert s.run().exactly_once_ok


def test_reporters_past_the_cap_are_refused_before_anything_is_built():
    """Each reporter costs about 2 KB at build, so their number has a ceiling."""
    cap = sim.MAX_REPORTERS
    assert cap == 2**16
    for reporters in (cap + 1, 2**64):
        with pytest.raises(ConfigError) as err:
            topology_from_dict({"reporters": reporters})
        assert err.value.path == "topology.reporters"
        assert str(err.value) == f"topology.reporters: must be in [1, {cap}], got {reporters}"
    assert Topology(reporters=cap).reporters == cap  # only the topology: no run is built


def test_insufficient_backlog_counts_unrecoverable_but_terminates():
    topo = Topology(reporters=1, link=LinkConfig(0.2, 0.0), backlog_capacity=2)
    wl = Workload(kind=WorkloadKind.APPEND_EVENTS, reports=500, reports_per_step=100)
    report = sim.run(topo, wl, seed=13)
    assert report.drained
    assert report.unrecoverable > 0
    assert report.exactly_once_ok  # applied-once still holds for the rest


def test_config_error_paths():
    with pytest.raises(ConfigError) as err:
        topology_from_dict({"reporters": 0})
    assert "reporters" in str(err.value)
    assert err.value.path == "topology.reporters"
    with pytest.raises(ConfigError) as err:
        topology_from_dict({"link": {"loss_to_translator": 1.5}})
    assert "loss_to_translator" in str(err.value)
    assert err.value.path == "topology.link.loss_to_translator"
    with pytest.raises(ConfigError) as err:
        topology_from_dict({"translator": {"fault_drop_verbs": 1}})
    assert err.value.path == "topology.translator.fault_drop_verbs"
    with pytest.raises(ConfigError) as err:
        topology_from_dict({"kw": {"redundancy": 0}})
    assert err.value.path == "topology.kw.redundancy"
    with pytest.raises(ConfigError) as err:
        topology_from_dict({"nonsense": 1})
    assert "nonsense" in str(err.value)
    with pytest.raises(ConfigError) as err:
        topology_from_dict({"link": 5})
    assert err.value.path == "topology.link"
    with pytest.raises(ConfigError) as err:
        topology_from_dict({"kw": {"bogus": 1}})
    assert err.value.path == "topology.kw.bogus"
    with pytest.raises(ConfigError) as err:
        workload_from_dict({"kind": "bogus"})
    assert "workload.kind" in str(err.value)
    with pytest.raises(ConfigError):
        workload_from_dict({})


def test_workload_coerces_and_checks_its_own_kind():
    assert Workload("postcards").kind is WorkloadKind.POSTCARDS
    assert Workload(WorkloadKind.POSTCARDS).kind is WorkloadKind.POSTCARDS
    for bad in ("bogus", 3, None, []):
        with pytest.raises(ConfigError, match="must be one of: kw-flows, postcards") as err:
            Workload(bad)
        assert err.value.path == "workload.kind"


@pytest.mark.parametrize("rate", [0.5, 0, float("nan")])
def test_sub_one_offered_rate_is_refused(rate):
    """Below one report per step a reporter never sends, so the run would never end."""
    with pytest.raises(ConfigError) as err:
        Workload(WorkloadKind.KW_FLOWS, reports=5, reports_per_step=rate)
    assert err.value.path == "workload.reports_per_step"


def test_config_roundtrip_build():
    topo = topology_from_dict({
        "reporters": 2,
        "link": {"loss_to_translator": 0.01},
        "kw": {"buflen": 1024},
    })
    assert topo.reporters == 2
    assert topo.kw.buflen == 1024
    wl = workload_from_dict({"kind": "append-events", "reports": 10})
    assert wl.kind is WorkloadKind.APPEND_EVENTS


# Counters every loss-free, fault-free run shares; each pinned case below
# gives the fields its run changes.
_CLEAN = dict(packets_lost=0, malformed=0, retransmissions=0, nacks_sent=0, nacks_lost=0,
              duplicates_suppressed=0, congestion_signals=0, diverted=0,
              dropped_low_priority=0, unrecoverable=0, verbs_faulted=0, qp_desyncs=0,
              reports_refused=0, drained=True, exactly_once_ok=True)

PINNED_RUNS = {
    "kw-flows": (
        Topology(reporters=2), Workload(WorkloadKind.KW_FLOWS, 300, reports_per_step=64),
        dict(workload_kind="kw-flows", steps=4, reports_offered=300, packets_sent=302,
             reports_applied=300, keepalives=2, verbs_applied=600,
             memory_sha256="d4247da25c907d7193ed9c420f699ba2765d08b582b3cbe7f18ec849c34f6005"),
    ),
    "postcards": (
        Topology(reporters=2), Workload(WorkloadKind.POSTCARDS, 300, reports_per_step=64),
        dict(workload_kind="postcards", steps=4, reports_offered=300, packets_sent=302,
             reports_applied=300, keepalives=2, verbs_applied=182,
             memory_sha256="d4ff0aacc7d882fb644dc104dcb962a2289b2ede1a9a5430456784243b6b4b2f"),
    ),
    "append-events": (
        Topology(reporters=2),
        Workload(WorkloadKind.APPEND_EVENTS, 300, reports_per_step=64),
        dict(workload_kind="append-events", steps=4, reports_offered=300, packets_sent=302,
             reports_applied=300, keepalives=2, verbs_applied=74,
             memory_sha256="083b45fe21bbe9f966fd1787f365b8ac79fce4fa2f8b2418102dc8aadbfa84a0"),
    ),
    "ki-counters": (
        Topology(reporters=2), Workload(WorkloadKind.KI_COUNTERS, 300, reports_per_step=64),
        dict(workload_kind="ki-counters", steps=4, reports_offered=300, packets_sent=302,
             reports_applied=300, keepalives=2, verbs_applied=600,
             memory_sha256="2831c486a4e2ddb2e3b5397a9107abddad1eda113c0900976a46993628d12f27"),
    ),
    "sketch-columns": (
        Topology(reporters=3), Workload(WorkloadKind.SKETCH_COLUMNS),
        dict(workload_kind="sketch-columns", steps=2, reports_offered=48, packets_sent=51,
             reports_applied=48, keepalives=3, verbs_applied=4,
             memory_sha256="4b679e6f45cdc5c507983ef24a0213d2b2ea54209b9047df824e0425a1e12077"),
    ),
    "ki-counters-lossy": (
        Topology(reporters=4, link=LinkConfig(0.01, 0.01)),
        Workload(WorkloadKind.KI_COUNTERS, 2000, reports_per_step=64),
        dict(workload_kind="ki-counters", steps=15, reports_offered=2000, packets_sent=2985,
             packets_lost=35, reports_applied=2000, retransmissions=984, keepalives=1,
             nacks_sent=29, nacks_lost=1, duplicates_suppressed=44, verbs_applied=4000,
             memory_sha256="9a80232a28d4b3a23e3cf150d2dfcc337442916b3d123f211f64e47526e9c1b6"),
    ),
    "kw-flows-faulty": (
        Topology(reporters=1, translator=TranslatorConfig(fault_drop_verbs=0.02)),
        Workload(WorkloadKind.KW_FLOWS, 500, reports_per_step=64),
        dict(workload_kind="kw-flows", steps=9, reports_offered=500, packets_sent=501,
             reports_applied=500, keepalives=1, verbs_applied=976, verbs_faulted=24,
             qp_desyncs=24,
             memory_sha256="e2a2663eccba28748b268887151966d6b1505f167f2af4e8177c0ccf701f1e14"),
    ),
    # a meter below the offered load over lossy links: diversion, congestion
    # signals and NACKs share the reverse link
    "kw-flows-metered-lossy": (
        Topology(reporters=3, link=LinkConfig(0.05, 0.05),
                 translator=TranslatorConfig(meter_rate=20, meter_burst=40)),
        Workload(WorkloadKind.KW_FLOWS, 600, reports_per_step=32),
        dict(workload_kind="kw-flows", steps=65, reports_offered=600, packets_sent=823,
             packets_lost=36, reports_applied=600, retransmissions=222, keepalives=1,
             nacks_sent=30, nacks_lost=1, congestion_signals=82, diverted=267,
             verbs_applied=1200,
             memory_sha256="6be9dea14622064b160460cc46ddb43c769785f4f5c0b6bc8535689ae0a4e832"),
    ),
    # non-essential reports: the meter drops what it cannot take, nothing is resent
    "append-events-non-essential": (
        Topology(reporters=2, link=LinkConfig(0.02, 0.02),
                 translator=TranslatorConfig(meter_rate=8, meter_burst=8)),
        Workload(WorkloadKind.APPEND_EVENTS, 400, essential=False, reports_per_step=16),
        dict(workload_kind="append-events", steps=48, reports_offered=400, packets_sent=400,
             packets_lost=8, reports_applied=323, keepalives=0, congestion_signals=25,
             dropped_low_priority=69, verbs_applied=78,
             memory_sha256="f894699d53e5b30581b69bb32122f967c57e49384bb37e3cba66ef2e7ebaca7e"),
    ),
}


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_run_report_is_pinned(name):
    """Every counter and the memory image of a seeded run stay byte-for-byte."""
    topo, wl, expected = PINNED_RUNS[name]
    assert sim.run(topo, wl, seed=17).to_dict() == {**_CLEAN, **expected}


_WRAP_START = 2**32 - 700


@pytest.mark.parametrize("link, backlog", [
    (LinkConfig(0.0, 0.0), 256),
    (LinkConfig(0.05, 0.05), 256),
    (LinkConfig(0.2, 0.2), 4),  # evictions force sequence resets across the wrap
])
def test_sequence_wrap_leaves_the_run_unchanged(link, backlog):
    """Essential sequences that cross 2**32 mid-run give the same report as from 0."""
    topo = Topology(reporters=2, link=link, backlog_capacity=backlog)
    wl = Workload(kind=WorkloadKind.APPEND_EVENTS, reports=3000, reports_per_step=50)
    from_zero = sim.run(topo, wl, seed=29).to_dict()
    wrapping = Simulation(topo, wl, seed=29)
    for rep in wrapping.reporters:
        rep.essential_seq = _WRAP_START
        wrapping.translator.flow.last_applied[rep.reporter_id] = _WRAP_START
    assert wrapping.run().to_dict() == from_zero
    assert from_zero["drained"] and from_zero["exactly_once_ok"]
    assert (from_zero["unrecoverable"] > 0) == (backlog == 4)
