import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dta import sim, wire
from dta.memstore import PSN_MOD, FetchAdd, MemoryRegion, reset_qp
from dta.keywrite import QueryOutcome, kw_query
from dta.postcarding import PathOutcome, pc_query
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
    bodies = list(s.reporters[0].pending_bodies)
    report = s.run()
    assert report.reports_applied == 100
    assert report.packets_lost == 0
    assert report.drained and report.exactly_once_ok
    assert report.qp_desyncs == 0
    for body in bodies:  # age-0 queries on a 64K store all succeed
        res = kw_query(s.translator.kw_store, body.key, topo.kw.redundancy)
        assert res.outcome is QueryOutcome.VALUE
        assert res.value == body.value


def test_same_seed_same_everything(tmp_path):
    topo = Topology(reporters=3, link=LinkConfig(0.02, 0.02))
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=500, reports_per_step=32)
    a = sim.run(topo, wl, seed=11, dump_path=tmp_path / "a.bin")
    b = sim.run(topo, wl, seed=11, dump_path=tmp_path / "b.bin")
    assert a.to_dict() == b.to_dict()
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
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
    applied = len(s.translator.applied_essential)
    assert applied + report.unrecoverable == report.reports_offered
    assert all(c == 1 for c in s.translator.applied_essential.values())


def test_non_essential_loss_never_nacks():
    topo = Topology(reporters=2, link=LinkConfig(0.05, 0.05))
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=1000, essential=False,
                  reports_per_step=64)
    report = sim.run(topo, wl, seed=3)
    assert report.packets_lost > 0
    assert report.nacks_sent == 0
    assert report.retransmissions == 0


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


def test_postcard_run_aggregates_paths():
    topo = Topology(reporters=1)
    wl = Workload(kind=WorkloadKind.POSTCARDS, reports=200, path_len_fixed=5)
    s = Simulation(topo, wl, seed=8)
    bodies = list(s.reporters[0].pending_bodies)
    report = s.run()
    assert report.drained
    flows = {}
    for body in bodies:
        flows.setdefault(body.flow_id, []).append(body.value)
    complete = {f: vals for f, vals in flows.items() if len(vals) == 5}
    hits = sum(
        pc_query(s.translator.pc_store, f, topo.pc.redundancy).values == tuple(vals)
        for f, vals in complete.items()
    )
    assert hits / len(complete) > 0.95  # rare chunk collisions may erase a path


def test_ki_run_never_underestimates():
    topo = Topology(reporters=2)
    wl = Workload(kind=WorkloadKind.KI_COUNTERS, reports=2000, key_space=64)
    s = Simulation(topo, wl, seed=6)
    exact = {}
    for rep in s.reporters:
        for body in rep.pending_bodies:
            exact[body.key] = exact.get(body.key, 0) + body.delta
    s.run()
    from dta.counters import ki_query

    for key, total in exact.items():
        assert ki_query(s.translator.ki_store, key, topo.ki.redundancy) >= total


def test_sketch_run_completes_and_matches_oracle():
    topo = Topology(reporters=3)
    wl = Workload(kind=WorkloadKind.SKETCH_COLUMNS)
    s = Simulation(topo, wl, seed=2)
    per_reporter = [list(rep.pending_bodies) for rep in s.reporters]
    report = s.run()
    assert report.drained and report.exactly_once_ok
    state = s.translator.sketch_state
    assert state.complete_cols == topo.sketch.cols
    for col in range(topo.sketch.cols):
        expected = [sum(per_reporter[r][col].values[row] for r in range(3))
                    for row in range(topo.sketch.rows)]
        assert state.columns[col] == expected
    # completed columns were shipped contiguously to collector memory
    base = s.translator.sketch_base
    raw = s.translator.region.read(base, topo.sketch.rows * topo.sketch.cols * 8)
    oracle = b"".join(v.to_bytes(8, "little") for col in state.columns for v in col)
    assert raw == oracle


def test_meter_saturation_diverts_and_drains():
    topo = Topology(reporters=1,
                    translator=TranslatorConfig(meter_rate=10, meter_burst=10))
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=100, reports_per_step=25)
    report = sim.run(topo, wl, seed=7)
    assert report.diverted > 0
    assert report.congestion_signals > 0
    assert report.drained and report.exactly_once_ok


def _sending(s: Simulation, bodies) -> Simulation:
    """``s`` with its first reporter sending exactly ``bodies``."""
    s.reporters[0].pending_bodies = deque(bodies)
    s.report.reports_offered = len(bodies)
    return s


def test_a_report_costlier_than_the_meter_burst_still_drains():
    """A full bucket admits a report whose verbs exceed the burst, refused or not."""
    topo = Topology(translator=TranslatorConfig(meter_rate=1, meter_burst=1))
    wl = Workload(kind=WorkloadKind.KW_FLOWS, reports=20)
    s = Simulation(topo, wl, seed=3)
    bodies = list(s.reporters[0].pending_bodies)
    report = sim.run(topo, wl, seed=3)
    assert report.reports_applied == 20 and report.diverted > 0
    assert report.drained and report.exactly_once_ok
    # a refused report is charged its wire redundancy first, here 255 verbs
    bodies.insert(7, wire.KeyWriteBody(255, bytes(8), bytes(4)))
    report = _sending(s, bodies).run()
    assert report.reports_applied == 20 and report.reports_refused == 1
    assert report.drained and report.exactly_once_ok


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
    bodies = list(alone.reporters[0].pending_bodies)
    bad = data.draw(st.lists(_BAD_BODIES[kind], min_size=1, max_size=6), label="bad")
    for body in bad:
        bodies.insert(data.draw(st.integers(0, len(bodies)), label="at"), body)
    mixed = _sending(Simulation(topo, wl, seed), bodies).run()
    expected = alone.run()
    assert mixed.drained and mixed.exactly_once_ok
    assert mixed.reports_refused == len(bad) and expected.reports_refused == 0
    for name in ("reports_applied", "verbs_applied", "memory_sha256"):
        assert getattr(mixed, name) == getattr(expected, name), name


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
    with pytest.raises(ConfigError) as err:
        topology_from_dict({"link": {"loss_to_translator": 1.5}})
    assert "loss_to_translator" in str(err.value)
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
_CLEAN = dict(packets_lost=0, retransmissions=0, nacks_sent=0, nacks_lost=0,
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
             memory_sha256="7c9bd787037ac21b6e99dd161ac1a1f9c21158bc8e5eb309bb0e31a848a79cc7"),
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
        rep.state.essential_seq = _WRAP_START
        wrapping.translator.flow.last_applied[rep.state.reporter_id] = _WRAP_START
    assert wrapping.run().to_dict() == from_zero
    assert from_zero["drained"] and from_zero["exactly_once_ok"]
    assert (from_zero["unrecoverable"] > 0) == (backlog == 4)
