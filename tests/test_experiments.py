import hashlib
import io
import math

import pytest

from dta import analysis, experiments, sim
from dta.experiments import (
    McStats,
    SuiteResult,
    default_params,
    experiment_suite,
    kw_monte_carlo,
    pc_monte_carlo,
    read_csv,
    suite_names,
    tally,
    write_csv,
)
from dta.hashing import HashFamily, ValueCodec, value_codec
from dta.keywrite import KwStore, QueryPolicy, kw_query, kw_write
from dta.memstore import MemoryRegion, Outcome, QueryResult, Write
from dta.postcarding import EmissionReason, EmittedChunk, PostcardStore, pc_query, pc_write

EXPECTED_SUITES = {
    "kw-redundancy", "kw-longevity", "postcarding-cache", "postcarding-accuracy",
    "append-bench", "ki-accuracy", "flowctl-loss", "bounds",
}


def test_registry_names():
    assert set(suite_names()) == EXPECTED_SUITES


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match=r"^unknown suite 'nope'; choices: append-bench, "):
        experiment_suite("nope")
    with pytest.raises(ValueError,
                       match=r"^unknown parameter 'not_a_param' for suite 'bounds'$"):
        experiment_suite("bounds", {"not_a_param": 1})


def test_empty_grid_is_rejected():
    with pytest.raises(ValueError, match="bounds"):
        experiment_suite("bounds", {"alphas": []})


def test_read_csv_skips_blank_lines():
    buf = io.StringIO("# suite=x\na,b\n1,2\n\n3,4\n")
    meta, rows = read_csv(buf)
    assert meta == {"suite": "x"}
    assert rows == [{"a": "1", "b": "2"}, {"a": "3", "b": "4"}]


def test_default_params_are_copies():
    params = default_params("bounds")
    params["alphas"].append(99)
    assert 99 not in default_params("bounds")["alphas"]


SMALL_PARAMS = {
    "kw-redundancy": {"buflen": 2048, "queries": 500, "alphas": [0.1],
                      "redundancies": [1, 2]},
    "kw-longevity": {"buflen": 2048, "n_keys": 1000, "ages": [0, 500],
                     "window": 100},
    "postcarding-cache": {"cache_slots": [32], "concurrent_flows": [8, 64],
                          "rounds": 2},
    "postcarding-accuracy": {"chunks": 1024, "queries": 500, "alphas": [0.1],
                             "value_bits": 10},
    "append-bench": {"cases": 10},
    "ki-accuracy": {"stream_len": 2000, "redundancies": [2]},
    "flowctl-loss": {"loss_rates": [0.01], "reports": 500},
    "bounds": {"alphas": [0.1]},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_SUITES))
def test_every_suite_runs_and_roundtrips_csv(name):
    result = experiment_suite(name, SMALL_PARAMS[name], seed=5)
    assert result.rows
    for row in result.rows:
        assert set(row) == set(result.fieldnames)
    buf = io.StringIO()
    write_csv(buf, result)
    buf.seek(0)
    meta, rows = read_csv(buf)
    assert meta["suite"] == name
    assert meta["config_hash"] == result.config_hash
    assert len(rows) == len(result.rows)
    # nothing lost: every value survives the round trip as its string form
    for original, parsed in zip(result.rows, rows):
        assert {k: str(v) for k, v in original.items()} == parsed


# sha256 of each suite's CSV at SMALL_PARAMS and seed 5
PINNED_CSV_SHA256 = {
    "append-bench": "67a9cbb866d6b418ff3e42b321fb0760adf3ac6524efcbf4ad600ed6931582f9",
    "bounds": "6d259db559920bf6ac9c2797547a30d59364475c7cc6d074b0eb6c2a44f363a9",
    "flowctl-loss": "d17562f2d34a7970cf6beaa9d273f3b39a758534c59d7f7d98ffa1472b22b03b",
    "ki-accuracy": "139e334e5306250547c5faa60b278428b5269b22231aaf41fa1321ab4d393afd",
    "kw-longevity": "fedf91d24139fd131b1288d14aeac246231cd82a32f9f117074a1fb8761c08f7",
    "kw-redundancy": "7889a1c9b94874752ef2f0e1999913dd130bfab78d4ce860ec7f94d41d36dbee",
    "postcarding-accuracy": "dec67e99662a5fb841dbb1b44d8d34fe07d54d4298f3056a0f875af9a5b3d3ac",
    "postcarding-cache": "9ba5afc48d1ece398af5ab8dfa64f51f72e49589e05853fe224301d2a3330fbd",
}


@pytest.mark.parametrize("name", sorted(EXPECTED_SUITES))
def test_suite_csv_is_pinned(name):
    buf = io.StringIO()
    write_csv(buf, experiment_suite(name, SMALL_PARAMS[name], seed=5))
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PINNED_CSV_SHA256[name]


def test_append_bench_all_cases_verify():
    result = experiment_suite("append-bench", {"cases": 30}, seed=1)
    assert all(row["verify_ok"] for row in result.rows)


def test_flowctl_suite_reports_exactly_once():
    result = experiment_suite("flowctl-loss",
                              {"loss_rates": [0.02], "reports": 1000}, seed=2)
    row = result.rows[0]
    assert row["exactly_once_ok"] is True
    assert row["unrecoverable"] == 0
    assert row["qp_desyncs"] == 0


def test_kw_monte_carlo_zero_load_is_perfect():
    stats = kw_monte_carlo(buflen=1024, checksum_bits=32, value_len=4,
                           redundancy=2, alpha=0.0, queries=500, seed=3)
    assert stats.success_rate == 1.0
    assert stats.wrong == 0


def test_wrong_output_rarity_over_one_million_trials():
    """At N=2, b=32, alpha=0.1 the wrong-output bound is 1.5e-11: a million
    queries must observe zero."""
    stats = kw_monte_carlo(buflen=1 << 16, checksum_bits=32, value_len=4,
                           redundancy=2, alpha=0.1, queries=1_000_000, seed=8,
                           policy=QueryPolicy.SINGLE_VALUE)
    assert stats.wrong == 0


def test_pc_monte_carlo_inside_bracket_at_full_universe():
    """Chunk-store failure rate sits in the closed-form bracket at |V|=2^18."""
    queries = 20_000
    stats = pc_monte_carlo(chunks=1 << 14, hops=5, cell_bits=32, value_bits=18,
                           redundancy=2, alpha=0.1, queries=queries, seed=9)
    model = analysis.PcModel(2, 32, 0.1, hops=5, value_bits=18)
    bound = analysis.pc_fail_bound(model)
    sigma = math.sqrt(bound.upper * (1 - bound.upper) / queries)
    assert bound.lower - 3 * sigma <= stats.fail_rate <= bound.upper + 3 * sigma
    assert stats.fail_rate <= 0.033 + 3 * sigma
    assert stats.wrong_rate == 0.0


def test_pc_monte_carlo_shares_one_codec_and_matches_a_fresh_one(monkeypatch):
    args = (1024, 5, 8, 10, 2, 1.0, 500, 11)
    value_codec.cache_clear()
    first = pc_monte_carlo(*args)  # builds the codec
    again = pc_monte_carlo(*args)
    assert value_codec.cache_info().hits == 1
    assert first == again
    monkeypatch.setattr(sim, "value_codec",
                        lambda seed, size, bits: ValueCodec(HashFamily(seed), size, bits))
    assert pc_monte_carlo(*args) == first


def test_config_hash_tracks_params():
    a = experiment_suite("bounds", {"alphas": [0.1]}, seed=1)
    b = experiment_suite("bounds", {"alphas": [0.2]}, seed=1)
    assert a.config_hash != b.config_hash
    again = experiment_suite("bounds", {"alphas": [0.1]}, seed=2)
    assert a.config_hash == again.config_hash  # hash covers params, not seed


# (trials, correct, empty, ambiguous, wrong) at settings where every outcome occurs
PINNED_ENGINE_COUNTS = [
    (lambda: kw_monte_carlo(1024, 4, 4, 2, 1.0, 2000, 7, policy=QueryPolicy.SINGLE_VALUE),
     (2000, 479, 1327, 35, 159)),
    (lambda: kw_monte_carlo(1024, 4, 4, 3, 1.0, 2000, 7, policy=QueryPolicy.PLURALITY),
     (2000, 258, 1425, 50, 267)),
    (lambda: pc_monte_carlo(1024, 5, 8, 6, 2, 1.0, 2000, 7), (2000, 503, 1496, 0, 1)),
    (lambda: pc_monte_carlo(1024, 5, 6, 6, 2, 1.0, 2000, 7), (2000, 463, 1165, 58, 314)),
]


@pytest.mark.parametrize("run,expected", PINNED_ENGINE_COUNTS,
                         ids=["kw-single-value", "kw-plurality", "pc-b8", "pc-b6"])
def test_engine_counters_are_pinned(run, expected):
    stats = run()
    assert (stats.trials, stats.correct, stats.empty, stats.ambiguous, stats.wrong) == expected


def _pc_monte_carlo_recomputing(chunks, hops, cell_bits, value_bits, redundancy, alpha,
                                queries, seed):
    """``pc_monte_carlo`` with an oracle that recomputes each written path from
    ``pc_stream_values`` instead of keeping it."""
    t = sim.Topology(pc=sim.PcConfig(chunks, hops, cell_bits, value_bits), hash_seed=seed)
    (store, _), collector = sim.build_alone(sim.WorkloadKind.POSTCARDS, t)
    family, codec, universe = store.family, store.codec, 2 ** value_bits

    def write(flow):
        cells = tuple(experiments.pc_stream_values(family, flow, hops, universe))
        collector.apply(pc_write(store, EmittedChunk(flow, cells, EmissionReason.COMPLETE),
                                 redundancy))

    def canonical(flow):
        return tuple(codec.decode(codec.encode(v))
                     for v in experiments.pc_stream_values(family, flow, hops, universe))

    return experiments.exact_age(write, lambda flow: pc_query(store, flow, redundancy),
                                 canonical, round(alpha * chunks), queries)


@pytest.mark.parametrize("args", [
    (64, 5, 8, 6, 2, 0.0, 300, 3),     # age 0: a ring of one entry
    (8, 5, 8, 6, 2, 0.25, 400, 4),     # age 2
    (4, 5, 6, 6, 1, 0.75, 400, 5),     # age 3
    (64, 5, 6, 6, 2, 1.5, 400, 6),     # alpha >= 1: age 96
    (128, 7, 8, 6, 2, 0.5, 400, 7),    # B + N = 9: two digest blocks per flow
    (32, 3, 6, 5, 1, 1.0, 400, 8),     # B = 3, N = 1
], ids=["age0", "age2", "age3", "alpha1.5", "hops7-n2", "hops3-n1"])
def test_pc_oracle_ring_matches_recomputed_paths(args, monkeypatch):
    """The engine keeps each written path in a ring of age + 1 entries; a path still has
    its entry when it is checked, so the counts equal those of an oracle that hashes it
    again.  Its oracle re-decodes only a path holding a flagged value: every case checks
    paths with such a value and paths without, so both branches run."""
    holds_flagged = []
    canonical = ValueCodec.canonical

    def spy(codec, values):
        holds_flagged.append(any(codec._flags[v >> 3] >> (v & 7) & 1 for v in values))
        return canonical(codec, values)

    monkeypatch.setattr(ValueCodec, "canonical", spy)
    assert pc_monte_carlo(*args) == _pc_monte_carlo_recomputing(*args)
    assert any(holds_flagged) and not all(holds_flagged)


def _kw_monte_carlo_recomputing(buflen, checksum_bits, value_len, redundancy, alpha, queries,
                                seed, policy):
    """``kw_monte_carlo`` with a query and an oracle that derive each key and value from
    its stream position again instead of reading them from the writer's ring."""
    store = experiments._kw_store(buflen, checksum_bits, value_len, seed)
    return experiments.exact_age(experiments._kw_writer(store, redundancy, seed, [None]),
                                 *experiments._kw_probes(store, redundancy, seed, policy),
                                 round(alpha * buflen), queries)


@pytest.mark.parametrize("args", [
    (64, 32, 4, 2, 0.0, 300, 3),      # age 0: a ring of one entry
    (8, 8, 4, 2, 0.25, 400, 4),       # age 2
    (4, 4, 4, 1, 0.75, 400, 5),       # age 3
    (64, 4, 4, 3, 1.5, 400, 6),       # alpha >= 1: age 96
    (1024, 4, 4, 2, 1.0, 2000, 7),    # the pinned counts' settings: every outcome occurs
    (256, 16, 8, 4, 0.5, 400, 8),     # N = 4, 8-octet values
], ids=["age0", "age2", "age3", "alpha1.5", "pinned", "n4"])
@pytest.mark.parametrize("policy", list(QueryPolicy), ids=lambda p: p.value)
def test_kw_oracle_ring_matches_recomputed_keys(args, policy):
    """The writer keeps each written key and value in a ring of age + 1 entries; a key
    still has its entry when it is queried, so the counts equal those of a query and an
    oracle that derive it again."""
    assert (kw_monte_carlo(*args, policy=policy)
            == _kw_monte_carlo_recomputing(*args, policy=policy))


@pytest.mark.parametrize("engine", [
    lambda: kw_monte_carlo(64, 32, 4, 2, -0.5, 10, 1),
    lambda: pc_monte_carlo(64, 5, 8, 6, 2, -0.5, 10, 1),
    lambda: experiments.exact_age(pytest.fail, pytest.fail, pytest.fail, -1, 10),
], ids=["kw", "pc", "exact_age"])
def test_negative_age_is_refused_before_any_write(engine):
    with pytest.raises(ValueError, match=r"^age must be >= 0, got -(32|1)$"):
        engine()


def _kw_answers():
    """Key-Write answers for a key written once, one never written, and one whose copies
    disagree; and the value written."""
    store = KwStore(MemoryRegion(4096 * 8), 4096, 32, 4, family=HashFamily(3))
    collector = sim.Collector(store.region)
    collector.apply(kw_write(store, b"value", b"AAAA", 2))
    first, second = kw_write(store, b"ambiguous", b"AAAA", 2)
    assert first.address != second.address
    collector.apply([first, Write(second.address, second.payload[:-4] + b"BBBB")])
    return [kw_query(store, key, 2) for key in (b"value", b"empty", b"ambiguous")], b"AAAA"


def _pc_answers():
    """Postcarding answers for a flow written once, one never written, and one whose
    chunk copies hold different paths; and the path written."""
    family = HashFamily(3)
    store = PostcardStore(MemoryRegion(4096 * 32), 4096, 5, 32, ValueCodec(family, 16, 32),
                          family=family)
    collector = sim.Collector(store.region)

    def chunk(flow, path):
        return EmittedChunk(flow, path + (None,) * (5 - len(path)), EmissionReason.COMPLETE)

    collector.apply(pc_write(store, chunk(1, (1, 2, 3)), 2))
    first, _ = pc_write(store, chunk(3, (1, 2, 3)), 2)
    _, second = pc_write(store, chunk(3, (4, 5)), 2)
    assert first.address != second.address
    collector.apply([first, second])
    return [pc_query(store, flow, 2) for flow in (1, 2, 3)], (1, 2, 3)


@pytest.mark.parametrize("answers", [_kw_answers, _pc_answers], ids=["kw", "pc"])
def test_stores_answer_one_query_result_that_tally_classifies(answers):
    results, written = answers()
    assert all(type(res) is QueryResult for res in results)
    assert [res.outcome for res in results] == [Outcome.VALUE, Outcome.EMPTY, Outcome.AMBIGUOUS]
    assert results[0].value == written
    results.append(results[0])  # the written value again, where another one is expected
    expected = [written, None, None, "another"]
    stats = tally(range(4), results.__getitem__, expected.__getitem__)
    assert stats == McStats(trials=4, correct=1, empty=1, ambiguous=1, wrong=1)
