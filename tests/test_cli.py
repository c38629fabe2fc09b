import contextlib
import copy
import io
import json
import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dta import sim
from dta.cli import main
from dta.experiments import read_csv
from dta.memstore import MAX_REGION_SIZE


def run_cli(*argv):
    return main(list(argv))


def test_bounds_prints_reference_point(capsys):
    assert run_cli("bounds", "--N", "2", "--b", "32", "--alpha", "0.1") == 0
    out = capsys.readouterr().out
    assert "no_output: 0.0328585" in out
    assert "wrong_output: 1.53009e-11" in out


def test_bounds_json_postcard_model(capsys):
    assert run_cli("bounds", "--N", "2", "--b", "32", "--alpha", "0.1",
                   "--hops", "5", "--value-bits", "18", "--json") == 0
    table = json.loads(capsys.readouterr().out)
    assert table["model"] == "postcarding"
    assert table["no_output"] <= 0.033
    assert table["wrong_output"] < 1e-22


@pytest.mark.parametrize("extra", [["--hops", "0"], ["--hops", "5", "--value-bits", "-1"],
                                   ["--exact-m", "0"], ["--hops", "5", "--exact-m", "8"]],
                         ids=["hops", "value-bits", "exact-m", "hops-exact-m"])
def test_bounds_refuses_a_bad_model_without_a_traceback(capsys, extra):
    assert run_cli("bounds", "--N", "2", "--b", "32", "--alpha", "0.1", *extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_suite_writes_reparseable_csv(tmp_path, capsys):
    out = tmp_path / "longevity.csv"
    code = run_cli("suite", "kw-longevity", "--seed", "3", "--out", str(out),
                   "--set", "buflen=4096", "--set", "n_keys=2000",
                   "--set", "ages=[0,500,1000]", "--set", "window=500")
    assert code == 0
    with open(out) as fh:
        meta, rows = read_csv(fh)
    assert meta["suite"] == "kw-longevity"
    assert meta["seed"] == "3"
    assert "config_hash" in meta and "algorithm" in meta
    assert len(rows) == 3
    rates = [float(r["success_rate"]) for r in rows]
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[0] > 0.97
    assert run_cli("validate", str(out)) == 0


def test_suite_json_mirror(capsys):
    code = run_cli("suite", "bounds", "--json",
                   "--set", "alphas=[0.1]", "--set", "redundancies=[2]",
                   "--set", "checksum_bits=[32]")
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    kw_rows = [r for r in rows if r["model"] == "kw"]
    assert float(kw_rows[0]["no_output"]) == pytest.approx(0.0329, abs=0.0001)


def test_suite_unknown_name_and_param(capsys):
    assert run_cli("suite", "no-such-suite") == 1
    assert "choices" in capsys.readouterr().err
    assert run_cli("suite", "bounds", "--set", "bogus=1") == 1
    capsys.readouterr()
    assert run_cli("suite", "bounds", "--set", "alphas=[]") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "bounds" in captured.err
    # a suite with no trials refuses its parameter, where it used to divide by zero
    for suite, param in [("kw-redundancy", "queries"), ("postcarding-accuracy", "queries"),
                         ("ki-accuracy", "stream_len")]:
        assert run_cli("suite", suite, "--set", f"{param}=0") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.splitlines() == [f"error: {param} must be >= 1, got 0"]


@pytest.mark.parametrize("suite, age", [("kw-redundancy", -32768),
                                        ("postcarding-accuracy", -8192)])
def test_suite_refuses_a_negative_load_factor(capsys, suite, age):
    """A negative alpha is a negative write-distance: one error line, where it used to
    end in a struct.error or OverflowError traceback."""
    assert run_cli("suite", suite, "--set", "alphas=[-0.5]") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: age must be >= 0, got {age}"]


def test_run_and_diff_and_dump(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "topology": {"reporters": 2, "link": {"loss_to_translator": 0.01,
                                              "loss_to_reporter": 0.01}},
        "workload": {"kind": "append-events", "reports": 300,
                     "reports_per_step": 50},
    }))
    dump_a = tmp_path / "a.bin"
    dump_b = tmp_path / "b.bin"
    report_path = tmp_path / "report.json"
    assert run_cli("run", "--config", str(config), "--seed", "5",
                   "--dump", str(dump_a), "--out", str(report_path)) == 0
    assert run_cli("run", "--config", str(config), "--seed", "5",
                   "--dump", str(dump_b)) == 0
    report = json.loads(report_path.read_text())
    assert report["exactly_once_ok"] is True
    assert report["seed"] == 5

    assert run_cli("diff", str(dump_a), str(dump_b)) == 0
    mutated = bytearray(dump_b.read_bytes())
    mutated[0] ^= 0xFF
    dump_b.write_bytes(bytes(mutated))
    capsys.readouterr()
    assert run_cli("diff", str(dump_a), str(dump_b)) == 2
    assert "first at offset" in capsys.readouterr().out

    assert run_cli("dump", str(dump_a), "--length", "32") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("00000000")


def test_validate_config(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"workload": {"kind": "kw-flows"}}))
    assert run_cli("validate", str(good)) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"topology": {"reporters": -1},
                               "workload": {"kind": "kw-flows"}}))
    assert run_cli("validate", str(bad)) == 1
    assert "reporters" in capsys.readouterr().err

    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[]")
    for argv in (["validate", str(not_an_object)], ["run", "--config", str(not_an_object)]):
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith("error: config must be a JSON object")


def test_validate_rejects_malformed_csv(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("# suite=x\na,b\n1,2,3\n")
    assert run_cli("validate", str(path)) == 1
    path.write_text("# suite=x\na,b\n1,2\n1\n")
    assert run_cli("validate", str(path)) == 1
    path.write_text("# suite=x\na,b\n" + "x" * 200000 + ",1\n")  # past csv's field limit
    assert run_cli("validate", str(path)) == 1


def test_config_error_exit_code(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"topology": {"reporters": "many"},
                                  "workload": {"kind": "kw-flows"}}))
    assert run_cli("run", "--config", str(config)) == 1


def test_unknown_flag_exits_one(capsys):
    assert run_cli("bounds", "--N", "2", "--b", "32", "--alpha", "0.1",
                   "--frobnicate") == 1


def test_seed_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DTA_SEED", "77")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"workload": {"kind": "kw-flows", "reports": 5}}))
    assert run_cli("run", "--config", str(config)) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 77


@pytest.mark.parametrize("topology", [
    {"kw": {"buflen": 0}},
    {"append": {"capacity": 4097}},
    {"sketch": {"merge_op": "min"}},
    {"translator": {"meter_rate": -1}},
    {"backlog_capacity": 0},
    {"pc": {"hops": 0}},
], ids=["kw-buflen", "append-capacity", "sketch-merge-op", "meter-rate",
        "backlog-capacity", "pc-hops"])
def test_config_the_stores_refuse_fails_run_and_validate(tmp_path, capsys, topology):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"topology": topology,
                                  "workload": {"kind": "kw-flows", "reports": 5}}))
    for argv in (["run", "--config", str(config)], ["validate", str(config)]):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


@pytest.mark.parametrize("section, fields, message", [
    ("kw", {"buflen": 0}, "buflen must be >= 1, got 0"),
    ("ki", {"buflen": 0}, "buflen must be >= 1, got 0"),
    ("append", {"batch_size": 0}, "batch_size must be >= 1, got 0"),
])
def test_config_a_store_refuses_at_build_names_its_section(tmp_path, capsys, section, fields,
                                                          message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"topology": {section: fields},
                                "workload": {"kind": "kw-flows", "reports": 5}}))
    for argv in (["run", "--config", str(path)], ["validate", str(path)]):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: topology.{section}: {message}\n"


@pytest.mark.parametrize("config, field", [
    ({"topology": {"kw": {"redundancy": 5}}, "workload": {"kind": "kw-flows"}},
     "topology.kw.redundancy"),
    ({"topology": {"pc": {"redundancy": 0}}, "workload": {"kind": "postcards"}},
     "topology.pc.redundancy"),
    ({"topology": {"ki": {"redundancy": 7}}, "workload": {"kind": "ki-counters"}},
     "topology.ki.redundancy"),
    ({"topology": {"sketch": {"w_batch": 0}}, "workload": {"kind": "sketch-columns"}},
     "topology.sketch.w_batch"),
    ({"workload": {"kind": "postcards", "path_len_fixed": 9}}, "workload.path_len_fixed"),
    ({"workload": {"kind": "postcards", "path_len_fixed": -1}}, "workload.path_len_fixed"),
], ids=["kw-redundancy", "pc-redundancy", "ki-redundancy", "sketch-w-batch",
        "path-len-above-hops", "path-len-negative"])
def test_config_a_store_would_refuse_per_report_fails_run_and_validate(tmp_path, capsys,
                                                                        config, field):
    """Values that reach a store only with each report are refused when the run is built."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    for argv in (["run", "--config", str(path)], ["validate", str(path)]):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("pc, field", [
    ({"value_bits": 2.5}, "topology.pc.value_bits"),
    ({"value_bits": 40}, "topology.pc.value_bits"),
    ({"value_bits": -1}, "topology.pc.value_bits"),
    ({"cell_bits": 0}, "topology.pc.cell_bits"),
    ({"cell_bits": 65}, "topology.pc.cell_bits"),
], ids=["value-bits-fraction", "value-bits-40", "value-bits-negative", "cell-bits-0",
        "cell-bits-65"])
def test_codec_the_run_cannot_build_fails_run_and_validate(tmp_path, capsys, pc, field):
    """The value codec is built with every run, whatever its workload: 2^40 values would
    never finish building."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"topology": {"pc": pc},
                                "workload": {"kind": "kw-flows", "reports": 5}}))
    for argv in (["run", "--config", str(path)], ["validate", str(path)]):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: ")


def test_suite_refuses_a_value_universe_too_wide_to_build(capsys):
    assert run_cli("suite", "postcarding-accuracy", "--set", "value_bits=40") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: topology.pc.value_bits: must be an int in [0, 24], got 40")


@pytest.mark.parametrize("rate", [0.5, 0, float("nan")])
def test_validate_refuses_sub_one_offered_rate(tmp_path, capsys, rate):
    """Only ``validate``: a run at such a rate would never end if the check were gone."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"workload": {"kind": "kw-flows", "reports": 5,
                                             "reports_per_step": rate}}))
    assert run_cli("validate", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: workload.reports_per_step: ")


@pytest.mark.parametrize("flag", ["--offset", "--length"])
def test_dump_rejects_negative_offset_and_length(tmp_path, capsys, flag):
    dump = tmp_path / "memory.bin"
    dump.write_bytes(bytes(64))
    assert run_cli("dump", str(dump), flag, "-5") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_readme_run_config_example_drains_exactly_once(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"A `run` config is JSON.*?```json\n(.*?)```", readme, re.S)
    config = tmp_path / "cfg.json"
    config.write_text(block.group(1))
    assert run_cli("run", "--config", str(config), "--seed", "7") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["drained"] is True
    assert report["exactly_once_ok"] is True


def test_unwritable_out_and_dump_are_errors_not_tracebacks(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"workload": {"kind": "kw-flows", "reports": 5}}))
    missing = tmp_path / "missing"
    for argv in (["run", "--config", str(config), "--out", str(missing / "r.json")],
                 ["run", "--config", str(config), "--dump", str(missing / "m.bin")],
                 ["suite", "bounds", "--set", "alphas=[0.1]", "--out", str(missing / "b.csv")]):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] No such file or directory")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("flag", ["--out", "--dump"])
def test_unwritable_run_output_is_refused_before_the_run(tmp_path, capsys, monkeypatch, flag):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"workload": {"kind": "kw-flows", "reports": 5}}))
    runs = []
    monkeypatch.setattr(sim.Simulation, "run", lambda self, *a: runs.append(self))
    assert run_cli("run", "--config", str(config), flag, str(tmp_path / "missing" / "x")) == 1
    assert runs == []
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


@pytest.mark.parametrize("config, message", [
    ({"topology": {"kw": {"buflen": "x"}}}, "topology.kw.buflen: expected int, got str"),
    ({"topology": {"kw": {"buflen": 2.5}}}, "topology.kw.buflen: expected int, got float"),
    ({"topology": {"pc": {"hops": 2.5}}}, "topology.pc.hops: expected int, got float"),
    ({"topology": {"reporters": "2"}}, "topology.reporters: expected int, got str"),
    ({"topology": {"kw": {"redundancy": True}}},
     "topology.kw.redundancy: expected int, got bool"),
    ({"topology": {"link": {"loss_to_reporter": None}}},
     "topology.link.loss_to_reporter: expected int or float, got null"),
    ({"topology": {"sketch": {"merge_op": 1}}}, "topology.sketch.merge_op: expected str, got int"),
    ({"topology": {"backlog_capacity": 0}},
     "topology.backlog_capacity: backlog_capacity must be >= 1, got 0"),
    ({"topology": {"kw": {"buflen": -100000}}}, "topology.kw: buflen must be >= 1, got -100000"),
    ({"topology": {"kw": {"checksum_bits": -1000}}},
     "topology.kw: checksum_bits must be in [1, 64], got -1000"),
    ({"topology": {"append": {"lists": 0}}}, "topology.append: lists must be >= 1, got 0"),
    ({"topology": {"kw": {"buflen": 1 << 28}}},
     "topology.kw: the region would reach 2147483648 octets, above the ceiling of 1073741824"),
    ({"topology": {"ki": {"buflen": 1 << 27}}},
     "topology.ki: the region would reach 1074593792 octets, above the ceiling of 1073741824"),
    ({"topology": {"translator": {"meter_burst": float("nan")}}},
     "topology.translator: need rate >= 0 and burst > 0, got inf/nan"),
    ({"workload": {"kind": "ki-counters", "max_delta": -1}},
     "workload.max_delta: must be >= 0, got -1"),
    ({"workload": {"kind": "postcards", "path_len_fixed": 2.5}},
     "workload.path_len_fixed: expected int or null, got float"),
    ({"workload": {"kind": "kw-flows", "essential": "no"}},
     "workload.essential: expected bool, got str"),
    ({"workload": 5}, "workload: expected an object, got int"),
    ({"topolgy": {"reporters": 4}}, "topolgy: unknown field"),
], ids=["kw-buflen-str", "kw-buflen-float", "pc-hops-float", "reporters-str",
        "kw-redundancy-bool", "loss-null", "merge-op-int", "backlog-capacity-0",
        "kw-buflen-negative", "kw-checksum-bits-negative", "append-lists-0",
        "kw-region-past-ceiling", "ki-region-past-ceiling", "meter-burst-nan",
        "max-delta-negative", "path-len-float", "essential-str", "workload-int",
        "misspelt-section"])
def test_bad_config_is_one_error_line_naming_its_path(tmp_path, capsys, config, message):
    config = {"workload": {"kind": "append-events", "reports": 5}, **config}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    for argv in (["run", "--config", str(path)], ["validate", str(path)]):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_well_typed_leaves_are_accepted(tmp_path, capsys):
    """A float field takes an int, and a ``None`` default takes null or an int."""
    path = tmp_path / "cfg.json"
    for config in ({"topology": {"link": {"loss_to_translator": 0}}, "workload": {
                       "kind": "postcards", "path_len_fixed": None, "reports_per_step": 2}},
                   {"workload": {"kind": "postcards", "path_len_fixed": 3}}):
        path.write_text(json.dumps(config))
        assert run_cli("validate", str(path)) == 0
        assert capsys.readouterr().out == "ok: config valid\n"


@pytest.mark.parametrize("setting, message", [
    ("alphas=5", "alphas: expected list, got int"),
    ('alphas=["x"]', "alphas[0]: expected int or float, got str"),
    ("queries=x", "queries: expected int, got str"),
    ("redundancies=[1,true]", "redundancies[1]: expected int, got bool"),
    ("policy=3", "policy: expected str, got int"),
])
def test_suite_override_of_the_wrong_type_names_it(capsys, setting, message):
    assert run_cli("suite", "kw-redundancy", "--set", setting) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_real_valued_suite_overrides_take_a_float(capsys):
    assert run_cli("suite", "bounds", "--json", "--set", "alphas=[0.1]",
                   "--set", "redundancies=[2]", "--set", "pc_value_bits=17.5") == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["V_bits"] for r in rows if r["model"] == "postcarding"} == {17.5}
    assert run_cli("suite", "flowctl-loss", "--set", "loss_rates=[0.01]",
                   "--set", "reports=40", "--set", "reports_per_step=1.5") == 0


def test_a_bad_seed_is_an_error(monkeypatch, capsys):
    monkeypatch.setenv("DTA_SEED", "x")
    assert run_cli("suite", "bounds") == 1
    assert capsys.readouterr().err == "error: DTA_SEED='x' is not an integer\n"


def _declared(cls, path):
    """Dotted paths of every leaf and nested section ``cls`` declares under ``path``."""
    leaves, sections = [], []
    for f in fields(cls):
        where = f"{path}.{f.name}"
        if is_dataclass(f.default_factory):
            sections.append(where)
            more_leaves, more_sections = _declared(f.default_factory, where)
            leaves += more_leaves
            sections += more_sections
        else:
            leaves.append(where)
    return leaves, sections


_TOPOLOGY_LEAVES, _TOPOLOGY_SECTIONS = _declared(sim.Topology, "topology")
_WORKLOAD_LEAVES, _ = _declared(sim.Workload, "workload")
_TARGETS = _TOPOLOGY_LEAVES + _TOPOLOGY_SECTIONS + _WORKLOAD_LEAVES
_UNKNOWN_KEY = "zz_unknown"

# every store small, so no mutation below allocates much or generates many bodies
_SMALL_TOPOLOGY = {
    "reporters": 2, "kw": {"buflen": 64}, "pc": {"chunks": 64, "cache_slots": 16},
    "append": {"lists": 2, "capacity": 16}, "ki": {"buflen": 64}, "sketch": {"cols": 4},
}
_BASES = [{"topology": _SMALL_TOPOLOGY, "workload": {"kind": kind, "reports": 6}}
          for kind in ("kw-flows", "postcards", "append-events", "ki-counters",
                       "sketch-columns")]
_POOL = st.sampled_from([None, True, False, "x", [], {}, 2.5, math.nan, math.inf, -math.inf])


# the leaves that size the collector region: each of these past MAX_REGION_SIZE on its own
# takes the region past it, which is refused before anything is allocated; pc.cell_bits is
# refused first by its own range check, [1, 64]
_REGION_LEAVES = {"topology.kw.buflen", "topology.kw.checksum_bits", "topology.kw.value_len",
                  "topology.pc.chunks", "topology.pc.hops", "topology.pc.cell_bits",
                  "topology.append.lists", "topology.append.capacity",
                  "topology.append.entry_len", "topology.ki.buflen", "topology.sketch.rows",
                  "topology.sketch.cols"}


def _values(target):
    """The bounded pool; ``pc.value_bits`` skips the ints whose codec takes long to build.

    ``reporters`` past ``MAX_REPORTERS`` is refused before any reporter is built.
    """
    if target == "topology.reporters":
        return _POOL | st.integers(-3, 40) | st.integers(sim.MAX_REPORTERS + 1, 1 << 64)
    if target == "topology.pc.value_bits":
        return _POOL | st.integers(-3, 12) | st.integers(25, 40)
    if target in _REGION_LEAVES:
        return _POOL | st.integers(-3, 40) | st.integers(MAX_REGION_SIZE + 1, 1 << 64)
    return _POOL | st.integers(-3, 40)


@st.composite
def _mutated_configs(draw):
    """A small valid config with 1-3 leaves or sections replaced or unknown keys added."""
    config = copy.deepcopy(draw(st.sampled_from(_BASES)))
    unknown = set()
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)) == 0:
            parent = draw(st.sampled_from(["", "topology.", "workload."]
                                          + [f"{section}." for section in _TOPOLOGY_SECTIONS]))
            path, value = f"{parent}{_UNKNOWN_KEY}", 1
            unknown.add(path)
        else:
            path = draw(st.sampled_from(_TARGETS))
            value = draw(_values(path))
        *parents, leaf = path.split(".")
        node = config
        for name in parents:
            if not isinstance(node.get(name), dict):
                node[name] = {}
            node = node[name]
        node[leaf] = copy.deepcopy(value)  # the pool's [] and {} are shared
    return config, unknown


@settings(max_examples=500, deadline=None)
@given(_mutated_configs())
@example(({"topology": {**_SMALL_TOPOLOGY, "reporters": sim.MAX_REPORTERS + 1},
           "workload": {"kind": "kw-flows", "reports": 6}}, set()))
def test_validate_fuzz_is_ok_or_one_error_naming_a_declared_path(tmp_path_factory, case):
    """Whatever the leaves hold, ``validate`` prints ``ok`` or ``error: <path>:``."""
    config, unknown = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    if code == 0:
        assert (out.getvalue(), err.getvalue()) == ("ok: config valid\n", "")
        return
    assert code == 1 and out.getvalue() == ""
    match = re.fullmatch(r"error: ([\w.]+): [^\n]*\n", err.getvalue())
    assert match, err.getvalue()
    assert match.group(1) in set(_TARGETS) | unknown
