import json
import re
from pathlib import Path

import pytest

from dta.cli import main
from dta.experiments import read_csv


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
    assert captured.err.startswith("error: universe_size must be an int in [1, 2^24]")


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
