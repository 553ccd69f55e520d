import csv
import json
import math
import re
from pathlib import Path

import pytest

from errbounds import (
    ConfigError,
    default_suite_config,
    emit,
    parse_config,
    read_report,
    run,
)
from errbounds.cli import main
from errbounds.runner import RunReport

MINIMAL = {
    "cases": [{"kind": "RD", "lower": [0.0], "upper": [1.0],
               "solution": "sin(pi*x)"}],
    "approximations": [{"level": "conforming_mixed", "epsilon": 0.1,
                        "seed": 0}],
    "estimators": [{"name": "rd_equality"}],
}


def config_text(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


# --------------------------------------------------------------------------
# config parsing
# --------------------------------------------------------------------------

def test_parse_minimal_config():
    cfg = parse_config(config_text())
    assert cfg.cases[0].kind == "RD"
    assert cfg.estimators[0].name == "rd_equality"
    assert cfg.space_order == 12 and cfg.equality_rel == 1e-8


def test_parse_error_reports_position():
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        parse_config('{"cases": [,]}')


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(config_text(tyops=1))
    doc = json.loads(config_text())
    doc["cases"][0]["solutoin"] = "typo"
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(json.dumps(doc))


def test_kind_estimator_mismatch_named():
    doc = json.loads(config_text())
    doc["cases"][0] = {"kind": "Heat", "lower": [0.0], "upper": [1.0],
                       "solution": "exp(-t)*sin(pi*x)", "T": 1.0}
    with pytest.raises(ConfigError, match="rd_equality"):
        parse_config(json.dumps(doc))


def test_level_estimator_mismatch_named():
    doc = json.loads(config_text())
    doc["approximations"] = [{"level": "non_conforming", "epsilon": 0.1,
                              "seed": 0}]
    with pytest.raises(ConfigError, match="rd_equality"):
        parse_config(json.dumps(doc))


def test_negative_gamma_rejected():
    doc = json.loads(config_text())
    doc["estimators"] = [{"name": "rd_equality", "gamma": -1.0}]
    with pytest.raises(ConfigError, match="gamma must be positive"):
        parse_config(json.dumps(doc))


def test_time_horizon_agrees_with_kind():
    doc = json.loads(config_text())
    doc["cases"][0]["T"] = 1.0
    with pytest.raises(ConfigError, match="must not set T"):
        parse_config(json.dumps(doc))
    doc2 = json.loads(config_text())
    doc2["cases"][0] = {"kind": "TRD", "lower": [0.0], "upper": [1.0],
                        "solution": "exp(-t)*sin(pi*x)"}
    doc2["estimators"] = [{"name": "trd_equality"}]
    with pytest.raises(ConfigError, match="requires a time horizon"):
        parse_config(json.dumps(doc2))


def test_unknown_estimator_and_format():
    doc = json.loads(config_text())
    doc["estimators"] = [{"name": "rd_eqality"}]
    with pytest.raises(ConfigError, match="unknown estimator"):
        parse_config(json.dumps(doc))
    doc["estimators"] = [{"name": ["rd_equality"]}]
    with pytest.raises(ConfigError, match="unknown estimator"):
        parse_config(json.dumps(doc))
    with pytest.raises(ConfigError, match="unknown output format"):
        parse_config(config_text(output={"formats": ["yaml"]}))
    for formats in ("json", 5):
        with pytest.raises(ConfigError, match="'formats' must be a list"):
            parse_config(config_text(output={"formats": formats}))


def test_readme_configs_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        parse_config(block)


# --------------------------------------------------------------------------
# run semantics
# --------------------------------------------------------------------------

def test_run_exact_approximations_pass():
    doc = json.loads(config_text())
    doc["approximations"] = [{"level": "conforming_mixed", "epsilon": 0.0,
                              "seed": 0}]
    report = run(parse_config(json.dumps(doc)))
    assert report.exit_code == 0
    assert all(r["passed"] for r in report.records)


def test_run_default_suite_passes():
    report = run(default_suite_config(n_seeds=2))
    assert report.exit_code == 0
    assert len(report.records) > 0


def test_run_detects_corrupted_source():
    report = run(default_suite_config(f_scale=1.01, n_seeds=1))
    assert report.exit_code == 1
    residuals = [r.get("rel_residual", 0.0) for r in report.records
                 if r["status"] == "ok" and r.get("rel_residual") is not None]
    assert max(residuals) > 1e-4


def test_run_captures_record_errors(monkeypatch):
    # an estimator blowing up must not abort the batch
    import errbounds.runner as runner_mod

    def boom(*a, **k):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(runner_mod, "rd_equality", boom)
    report = run(parse_config(config_text()))
    assert len(report.records) == 1
    assert report.records[0]["status"] == "error"
    assert "synthetic failure" in report.records[0]["error"]
    assert report.exit_code == 1


@pytest.mark.parametrize("fields", [
    {"rel_residual": math.nan},
    {"true_total": math.nan, "lower_bound": 0.0, "upper_bound": 1.0},
    {"true_total": 0.5, "lower_bound": math.nan, "upper_bound": 1.0},
    {"true_total": 0.5, "lower_bound": 0.0, "upper_bound": math.nan},
    {"true_total": 0.5, "upper_bound": math.nan},
])
def test_run_fails_nan_records(monkeypatch, fields):
    import errbounds.runner as runner_mod

    entry = runner_mod.ESTIMATORS["rd_equality"]
    monkeypatch.setitem(runner_mod.ESTIMATORS, "rd_equality", entry._replace(
        record=lambda case, spec, approx, rule: dict(fields)))
    report = run(parse_config(config_text()))
    assert [r["passed"] for r in report.records] == [False]
    assert report.exit_code == 1


def test_records_carry_wall_time_in_memory():
    report = run(parse_config(config_text()))
    assert all("wall_time_s" in r for r in report.records)


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

def test_emit_json_round_trip(tmp_path):
    report = run(parse_config(config_text()))
    (path,) = emit(report, ["json"], tmp_path)
    loaded = read_report(path)
    assert loaded.schema_version == report.schema_version
    cleaned = [{k: v for k, v in r.items() if k != "wall_time_s"}
               for r in report.records]
    assert loaded.records == cleaned


def test_emit_csv_matches_json(tmp_path):
    report = run(default_suite_config(n_seeds=1))
    emit(report, ["json", "csv"], tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(doc["records"])
    for row, rec in zip(rows, doc["records"]):
        for key, value in rec.items():
            if isinstance(value, float):
                assert float(row[key]) == value
            elif isinstance(value, bool):
                assert row[key] == str(value)


def test_emit_empty_report(tmp_path):
    report = RunReport(records=[])
    paths = emit(report, ["json", "csv", "plotdata"], tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["records"] == []
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(csv_lines) == 1  # header only
    assert all(p.exists() for p in paths)


def test_emit_plotdata_columns(tmp_path):
    report = run(default_suite_config(n_seeds=1))
    emit(report, ["plotdata"], tmp_path)
    path = tmp_path / "plot_heat_two_sided.dat"
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# epsilon true lower upper efficiency")
    assert all(len(line.split()) == 5 for line in lines[1:])


def test_emit_byte_identical(tmp_path):
    cfg = default_suite_config(n_seeds=2)
    emit(run(cfg), ["json"], tmp_path / "a")
    emit(run(cfg), ["json"], tmp_path / "b")
    assert ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())


# --------------------------------------------------------------------------
# command-line entry point
# --------------------------------------------------------------------------

def test_cli_suite(tmp_path, capsys):
    code = main(["suite", "--out", str(tmp_path), "--format", "json",
                 "--format", "csv"])
    assert code == 0
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.csv").exists()
    assert "0 failing" in capsys.readouterr().out


def test_cli_verify_equality_with_config(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(config_text())
    code = main(["verify-equality", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 0


def test_cli_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"cases": }')
    code = main(["suite", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_bounds_needs_bound_estimator(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(config_text())  # only rd_equality declared
    code = main(["verify-bounds", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_friedrichs(tmp_path):
    code = main(["friedrichs", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert all(r["estimator"] == "friedrichs" for r in doc["records"])
    assert any("cf" in r for r in doc["records"])


def test_cli_optimize_majorant(tmp_path):
    code = main(["optimize-majorant", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert all(r["estimator"] == "optimize_majorant" for r in doc["records"])
    assert any("majorant" in r for r in doc["records"])


def test_cli_defect_detected(tmp_path):
    cfg_path = tmp_path / "run.json"
    doc = json.loads(config_text())
    doc["cases"][0]["f_scale"] = 1.01
    cfg_path.write_text(json.dumps(doc))
    code = main(["verify-equality", "--config", str(cfg_path),
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_cli_quad_order_flag(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(config_text())
    code = main(["verify-equality", "--config", str(cfg_path),
                 "--quad-order", "8", "--out", str(tmp_path / "out")])
    assert code == 0


def test_cli_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("ERRBOUNDS_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    code = main(["suite"])
    assert code == 0
    assert (tmp_path / "envout" / "report.json").exists()


# --------------------------------------------------------------------------
# estimator options are validated when the config is read
# --------------------------------------------------------------------------

NONCONFORMING = {
    "cases": [{"kind": "RD", "lower": [0.0], "upper": [1.0],
               "solution": "sin(pi*x)"},
              {"kind": "Poisson", "lower": [0.0], "upper": [1.0],
               "solution": "sin(pi*x)"}],
    "approximations": [{"level": "non_conforming", "epsilon": 0.1,
                        "seed": 0}],
}


@pytest.mark.parametrize("command, estimator, key, expected", [
    ("verify-bounds", {"name": "rd_nonconforming_bounds", "which": "iv"},
     "'which'", "('i', 'ii', 'iii')"),
    ("verify-bounds", {"name": "rd_nonconforming_bounds", "which": "mixed-i"},
     "'which'", "('i', 'ii', 'iii')"),
    ("verify-bounds", {"name": "poisson_nonconforming", "which": "iii"},
     "'which'", "('i', 'ii', 'mixed-i', 'mixed-ii')"),
    ("suite", {"name": "friedrichs", "which": "i"},
     "'which'", "takes no 'which'"),
    ("verify-bounds", {"name": "rd_nonconforming_bounds",
                       "free_strategy": "exactly"},
     "'free_strategy'", "('exact', 'coarse', 'basis')"),
    ("verify-bounds", {"name": "poisson_nonconforming", "free_strategy": 1},
     "'free_strategy'", "('exact', 'coarse', 'basis')"),
    ("optimize-majorant", {"name": "friedrichs", "basis_size": "x"},
     "'basis_size'", "positive integer"),
    ("optimize-majorant", {"name": "friedrichs", "basis_size": 0},
     "'basis_size'", "positive integer"),
    ("optimize-majorant", {"name": "friedrichs", "basis_size": -3},
     "'basis_size'", "positive integer"),
    ("optimize-majorant", {"name": "friedrichs", "basis_size": 2.5},
     "'basis_size'", "positive integer"),
    ("optimize-majorant", {"name": "friedrichs", "basis_size": True},
     "'basis_size'", "positive integer"),
])
def test_cli_rejects_bad_estimator_options(tmp_path, capsys, command,
                                           estimator, key, expected):
    _assert_rejected(tmp_path, capsys, [command],
                     dict(NONCONFORMING, estimators=[estimator]),
                     "estimators[0]", key, expected)


def _assert_rejected(tmp_path, capsys, argv, doc, where, key, expected):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(argv + ["--config", str(cfg_path),
                        "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}")
    assert key in err and expected in err
    assert not (tmp_path / "out").exists()


def _malformed(section, updates):
    """MINIMAL with the first entry of ``section`` (or the ``section``
    object) updated by ``updates``."""
    doc = json.loads(config_text())
    if isinstance(doc.get(section), list):
        doc[section][0].update(updates)
    else:
        doc[section] = updates
    return doc


@pytest.mark.parametrize("section, updates, where, expected", [
    ("cases", {"lower": ["a"]}, "cases[0]", "'lower'[0] must be a finite number"),
    ("cases", {"lower": 5}, "cases[0]", "'lower' must be a list of numbers"),
    ("cases", {"upper": [0.0]}, "cases[0]", "'upper'[0] = 0.0 must exceed"),
    ("cases", {"upper": [-1.0]}, "cases[0]", "'upper'[0] = -1.0 must exceed"),
    ("cases", {"lower": [0.0] * 4, "upper": [1.0] * 4}, "cases[0]",
     "'lower' and 'upper' must be lists of equal length 1, 2 or 3"),
    ("cases", {"lower": [0.0, 0.0]}, "cases[0]",
     "'lower' and 'upper' must be lists of equal length 1, 2 or 3"),
    ("cases", {"f_scale": math.nan}, "cases[0]", "'f_scale' must be a finite"),
    ("cases", {"f_scale": math.inf}, "cases[0]", "'f_scale' must be a finite"),
    ("cases", {"T": math.nan}, "cases[0]", "'T' must be a finite"),
    ("cases", {"T": "1"}, "cases[0]", "'T' must be a finite"),
    ("approximations", {"seed": "x"}, "approximations[0]",
     "'seed' must be a nonnegative integer"),
    ("approximations", {"seed": -1}, "approximations[0]",
     "'seed' must be a nonnegative integer"),
    ("approximations", {"epsilon": math.nan}, "approximations[0]",
     "'epsilon' must be a finite"),
    ("approximations", {"epsilon": "0.1"}, "approximations[0]",
     "'epsilon' must be a finite"),
    ("estimators", {"gamma": math.nan}, "estimators[0]",
     "'gamma' must be a finite"),
    ("estimators", {"gamma": math.inf}, "estimators[0]",
     "'gamma' must be a finite"),
    ("quadrature", {"space_order": 0}, "quadrature",
     "'space_order' must be a positive integer"),
    ("quadrature", {"time_order": "x"}, "quadrature",
     "'time_order' must be a positive integer"),
    ("tolerances", {"equality_rel": math.nan}, "tolerances",
     "'equality_rel' must be a finite"),
    ("tolerances", {"bound_slack": math.inf}, "tolerances",
     "'bound_slack' must be a finite"),
])
def test_cli_rejects_malformed_config(tmp_path, capsys, section, updates,
                                      where, expected):
    key = repr(next(iter(updates)))
    _assert_rejected(tmp_path, capsys, ["verify-equality"],
                     _malformed(section, updates), where, key, expected)


@pytest.mark.parametrize("flag, value", [("--quad-order", "0"),
                                         ("--quad-order", "-2"),
                                         ("--seed", "-1")])
def test_cli_rejects_bad_overrides(tmp_path, capsys, flag, value):
    code = main(["suite", flag, value, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be") and value in err
    assert not (tmp_path / "out").exists()


def test_valid_estimator_options_parse():
    doc = dict(NONCONFORMING, estimators=[
        {"name": "rd_nonconforming_bounds", "which": "ii",
         "free_strategy": "coarse"},
        {"name": "poisson_nonconforming", "which": "mixed-ii",
         "free_strategy": "basis"},
        {"name": "friedrichs", "basis_size": 9},
    ])
    ests = parse_config(json.dumps(doc)).estimators
    assert [(e.which, e.free_strategy, e.basis_size) for e in ests] == [
        ("ii", "coarse", 4), ("mixed-ii", "basis", 4), (None, "exact", 9)]
