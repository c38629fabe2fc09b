import hashlib
import io
import math

import pytest

from dta import analysis, experiments
from dta.experiments import (
    SuiteResult,
    UnknownSuite,
    default_params,
    experiment_suite,
    kw_monte_carlo,
    pc_monte_carlo,
    read_csv,
    suite_names,
    write_csv,
)
from dta.hashing import HashFamily, ValueCodec, value_codec
from dta.keywrite import QueryPolicy

EXPECTED_SUITES = {
    "kw-redundancy", "kw-longevity", "postcarding-cache", "postcarding-accuracy",
    "append-bench", "ki-accuracy", "flowctl-loss", "bounds",
}


def test_registry_names():
    assert set(suite_names()) == EXPECTED_SUITES


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        experiment_suite("nope")
    with pytest.raises(KeyError):
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
    "append-bench": "416a09468a0e6cf4f8c32e90628be45e08811cf39c7b638a7e7c7c1625da8715",
    "bounds": "5165ea19326fa8b1b5d0f13277aa34ed4ccd122caab0617affb7a26a3ea34a2f",
    "flowctl-loss": "f3b3fd1c885ec6041320ae86544eae931131a75dca8d9a12abeaa83f3a4ac270",
    "ki-accuracy": "84f258215e933aec6faa8e79da9cf2855630e54cfca367db94810fedf0b9478f",
    "kw-longevity": "fcae755df7e16109ecc09b75de4cd5da354e34c2ad555bd72491723dbb923d58",
    "kw-redundancy": "ecc87d657977727c2e357a3a093b5372b963fda69e3de502e39cf6100441707d",
    "postcarding-accuracy": "b2a79326a619e15b952aac33ec1623353b77ee337d8c719d77c86ea71ace503e",
    "postcarding-cache": "0584ac13fdbe6b6e69f5dbeb90d79688d2d6eb3e080725e1242dd9faae433fa9",
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
    monkeypatch.setattr(experiments, "value_codec",
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
    (lambda: kw_monte_carlo(1024, 4, 4, 3, 1.0, 2000, 7, policy=QueryPolicy.PLURALITY,
                            threshold=2),
     (2000, 11, 1425, 560, 4)),
    (lambda: pc_monte_carlo(1024, 5, 8, 6, 2, 1.0, 2000, 7), (2000, 484, 1514, 0, 2)),
    (lambda: pc_monte_carlo(1024, 5, 6, 6, 2, 1.0, 2000, 7), (2000, 428, 1151, 81, 340)),
]


@pytest.mark.parametrize("run,expected", PINNED_ENGINE_COUNTS,
                         ids=["kw-single-value", "kw-plurality", "pc-b8", "pc-b6"])
def test_engine_counters_are_pinned(run, expected):
    stats = run()
    assert (stats.trials, stats.correct, stats.empty, stats.ambiguous, stats.wrong) == expected
