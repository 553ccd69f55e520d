import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import errbounds
from errbounds import (
    ConfigError,
    default_suite_config,
    emit,
    parse_config,
    read_report,
    run,
)
from errbounds.cli import main
from errbounds.runner import SCHEMA_VERSION, RunReport
from test_symbolic import REJECTED

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


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def test_per_case_records_equal_direct_checks():
    import errbounds.runner as runner_mod
    from errbounds import make_case
    from errbounds.parabolic import heat_isometry_check, trd_isometry_check

    assert {n for n, e in runner_mod.ESTIMATORS.items() if e.per_case} == {
        "trd_isometry_check", "heat_isometry_check", "friedrichs"}
    config = default_suite_config(n_seeds=2)
    rule = runner_mod.QuadratureRule(config.space_order, config.time_order)
    checks = {"trd_isometry_check": trd_isometry_check,
              "heat_isometry_check": heat_isometry_check}
    direct = {}
    for cs in config.cases:
        case = make_case(cs.kind, cs.domain(), cs.solution, cs.f_scale)
        for name, check in checks.items():
            if cs.kind in runner_mod.ESTIMATORS[name].kinds:
                direct[cs.label, name] = check(case, rule).to_record()
    shared = [r for r in run(config).records if r["estimator"] in checks]
    assert len(shared) == 12
    for rec in shared:
        fields = direct[rec["case"], rec["estimator"]]
        assert list(rec)[8:-2] == list(fields)
        assert {k: _hex(rec[k]) for k in fields} == {
            k: _hex(v) for k, v in fields.items()}
        assert rec["status"] == "ok" and rec["passed"]


def test_per_case_estimator_error_is_shared(monkeypatch):
    # a per-case estimator that raises runs once per case, and each of its
    # records carries that one error
    import errbounds.runner as runner_mod

    calls = []

    def boom(case, spec, approx, rule):
        calls.append(case.kind)
        raise RuntimeError(f"synthetic failure {len(calls)}")

    for name in ("trd_isometry_check", "friedrichs"):
        entry = runner_mod.ESTIMATORS[name]
        monkeypatch.setitem(runner_mod.ESTIMATORS, name,
                            entry._replace(record=boom))
    doc = json.loads(json.dumps(MINIMAL))
    doc["cases"].append({"kind": "TRD", "lower": [0.0], "upper": [1.0],
                         "T": 1.0, "solution": "exp(-t)*sin(pi*x)"})
    doc["approximations"] = [{"level": "conforming_mixed", "epsilon": eps,
                              "seed": seed} for eps in (0.1, 1.0)
                             for seed in (0, 1)]
    doc["estimators"] = [{"name": "friedrichs"}, {"name": "rd_equality"},
                         {"name": "trd_isometry_check"}]
    report = run(parse_config(json.dumps(doc)))
    assert calls == ["RD", "TRD", "TRD"]
    errors = {}
    for rec in report.records:
        if rec["estimator"] == "rd_equality":
            assert rec["status"] == "ok"
            continue
        assert rec["status"] == "error" and not rec["passed"]
        assert "wall_time_s" in rec
        errors.setdefault((rec["kind"], rec["estimator"]), set()).add(
            rec["error"])
    assert errors == {
        ("RD", "friedrichs"): {"RuntimeError: synthetic failure 1"},
        ("TRD", "friedrichs"): {"RuntimeError: synthetic failure 2"},
        ("TRD", "trd_isometry_check"): {"RuntimeError: synthetic failure 3"}}
    assert len(report.records) == 4 * 4


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


def test_emit_csv_writes_each_cell_type_exactly(tmp_path):
    records = [{"case": 'a, "b"', "kind": "RD", "level": None,
                "epsilon": 0.1, "seed": 3, "estimator": "e", "status": "ok",
                "error": None, "nan": math.nan, "pos": math.inf,
                "neg": -math.inf, "passed": True, "third": 1 / 3,
                "wall_time_s": 1.0},
               {"case": "c", "passed": False}]
    emit(RunReport(records=records), ["csv"], tmp_path)
    assert (tmp_path / "report.csv").read_bytes() == (
        b'case,kind,level,epsilon,seed,estimator,status,error,'
        b'nan,neg,passed,pos,third\n'
        b'"a, ""b""",RD,,0.1,3,e,ok,,nan,-inf,True,inf,0.3333333333333333\n'
        b'c,,,,,,,,,,False,,\n')


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


def _canonical(records):
    """The report.json of ``records`` as ``json.dumps(indent=2)`` writes it."""
    doc = {"schema_version": SCHEMA_VERSION,
           "records": [{k: v for k, v in r.items() if k != "wall_time_s"}
                       for r in records]}
    return json.dumps(doc, indent=2) + "\n"


def test_emit_json_is_the_canonical_encoding_of_the_default_suite(tmp_path):
    report = run(default_suite_config())
    (path,) = emit(report, ["json"], tmp_path)
    assert path.read_bytes() == _canonical(report.records).encode()


@pytest.mark.parametrize("records", [
    [],
    [{"case": "Lösung ünïcødé ☃ 解", "epsilon": 0.1}],
    [{"a": math.nan, "b": math.inf, "c": -math.inf, "d": None}],
    [{"status": "error", "error": 'a "quoted" \x00 NUL\nand a newline'},
     {"status": "ok", "error": None, "flag": True, "n": 3}],
    [{"a": "}", "b": "{"}, {"c": "}\x00,{", "d": ": "}],
    [{"case": "a", "values": [1.0, {"x": []}]}, {}, {"case": "b"}],
], ids=["empty", "non-ascii", "nan-inf", "error-string", "braces", "nested"])
def test_emit_json_is_the_canonical_encoding(records, tmp_path):
    (path,) = emit(RunReport(records=records), ["json"], tmp_path)
    assert path.read_bytes() == _canonical(records).encode()


MAJORANT = {
    "cases": [{"kind": kind, "lower": [0.0, 0.0], "upper": [1.0, 1.0],
               "solution": solution} for kind, solution in
              (("RD", "sin(pi*x)*sin(pi*y) + sin(3*pi*x)*sin(pi*y)/3"),
               ("Poisson", "sin(pi*x)*sin(2*pi*y)"))],
    "approximations": [{"level": "conforming_mixed", "epsilon": 0.1,
                        "seed": 5}],
    "estimators": [{"name": "optimize_majorant", "basis_size": n}
                   for n in (4, 16)],
}


@pytest.mark.parametrize("name", ["suite", "majorant"])
def test_warm_and_cold_runs_emit_the_same_bytes(tmp_path, name):
    # the memos of this process are warm after one run; a fresh
    # interpreter starts with every memo empty
    argv = ["suite", "--format", "json", "--format", "csv",
            "--format", "plotdata"]
    if name == "majorant":
        (tmp_path / "run.json").write_text(json.dumps(MAJORANT))
        argv += ["--config", str(tmp_path / "run.json")]
    assert main(argv + ["--out", str(tmp_path / "first")]) == 0
    assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
    src = Path(errbounds.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c", "import sys; from errbounds.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv,
         "--out", str(tmp_path / "cold")],
        env={**os.environ, "PYTHONPATH": str(src)}, check=True,
        capture_output=True)
    warm = sorted((tmp_path / "warm").iterdir())
    cold = sorted((tmp_path / "cold").iterdir())
    assert [p.name for p in warm] == [p.name for p in cold]
    assert {p.name for p in warm} >= {"report.json", "report.csv"}
    assert any(p.name.startswith("plot_") for p in warm)
    for a, b in zip(warm, cold):
        assert a.read_bytes() == b.read_bytes(), a.name


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


def test_cli_builds_its_parser_once(tmp_path, capsys):
    import errbounds.cli
    errbounds.cli._build_parser.cache_clear()
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(config_text())
    for out in ("first", "second"):
        assert main(["verify-equality", "--config", str(cfg_path),
                     "--out", str(tmp_path / out)]) == 0
    info = errbounds.cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert ((tmp_path / "first" / "report.json").read_bytes()
            == (tmp_path / "second" / "report.json").read_bytes())
    # the kept parser still rejects a bad flag with exit status 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-equality", "--no-such-flag"])
    assert exc.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err


def test_cli_reads_and_writes_utf8_under_the_c_locale(tmp_path):
    # where the locale's encoding is ASCII, a UTF-8 config is still read
    # and the reports are still written as UTF-8
    label = "rd-ε"
    doc = json.loads(config_text())
    doc["cases"][0]["label"] = label
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    out = tmp_path / "out"
    src = Path(errbounds.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from errbounds.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "verify-equality",
         "--config", str(cfg_path), "--out", str(out),
         "--format", "json", "--format", "csv"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert label in (out / "report.csv").read_text(encoding="utf-8")
    assert [r["case"] for r in read_report(out / "report.json").records] == [
        label]


def test_cli_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("ERRBOUNDS_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    code = main(["suite"])
    assert code == 0
    assert (tmp_path / "envout" / "report.json").exists()


def test_cli_output_dir_that_cannot_be_made_fails_before_the_run(
        tmp_path, capsys, monkeypatch):
    import errbounds.cli

    def no_run(config):
        raise AssertionError("ran records with nowhere to write them")

    monkeypatch.setattr(errbounds.cli, "run", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["suite", "--out", str(blocker / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker / "sub") in err
    assert "Traceback" not in err


def test_cli_case_rejected_in_the_run_leaves_no_output_dir(tmp_path, capsys):
    # the directories are made before the run and removed when it rejects
    # a case, down to the first that was there
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_malformed("cases",
                                              {"solution": "cos(pi*x)"})))
    code = main(["verify-equality", "--config", str(cfg_path),
                 "--out", str(tmp_path / "a" / "b" / "c")])
    assert code == 2
    assert "must vanish on the boundary" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("failure", ["path", "unnamed"])
def test_cli_output_that_cannot_be_written_is_an_error(tmp_path, capsys,
                                                      monkeypatch, failure):
    import errbounds.cli

    out = tmp_path / "out"
    if failure == "path":
        # report.json is a directory, so writing it raises IsADirectoryError
        (out / "report.json").mkdir(parents=True)
        named = out / "report.json"
    else:
        def full(report, formats, outdir):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(errbounds.cli, "emit", full)
        named = out
    code = main(["friedrichs", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err
    assert "Traceback" not in err


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
    ("tolerances", {"equality_rel": 0.0}, "tolerances",
     "'equality_rel' must be positive, got 0.0"),
    ("tolerances", {"bound_slack": -1e-9}, "tolerances",
     "'bound_slack' must be nonnegative, got -1e-09"),
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


# --------------------------------------------------------------------------
# manufactured solutions are checked before any record runs
# --------------------------------------------------------------------------

@pytest.mark.parametrize("solution, expected", [
    *REJECTED, ("cos(pi*x)", "must vanish on the boundary")])
def test_cli_rejects_bad_solution(tmp_path, capsys, solution, expected):
    _assert_rejected(tmp_path, capsys, ["verify-equality"],
                     _malformed("cases", {"solution": solution}),
                     "cases[0]", "'solution'", expected)


@pytest.mark.parametrize("solution, kind, expected", [
    ("sin(pi*x)*y", "RD", "unknown names ['y']"),
    ("t*sin(pi*x)", "Poisson", "unknown names ['t']"),
    ([1], "RD", "is not an expression"),
    *((text, "RD", part) for text, part in REJECTED),
])
def test_solution_checked_at_parse_time(solution, kind, expected):
    doc = _malformed("cases", {"solution": solution, "kind": kind})
    doc["estimators"] = [{"name": "friedrichs"}]
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert str(info.value).startswith("cases[0]: 'solution'")
    assert expected in str(info.value)


def test_parabolic_solution_may_use_t():
    doc = _malformed("cases", {"kind": "Heat", "T": 1.0,
                               "solution": "(1+t)*sin(pi*x)*sin(pi*y)",
                               "lower": [0.0, 0.0], "upper": [1.0, 1.0]})
    doc["estimators"] = [{"name": "heat_isometry_check"}]
    assert parse_config(json.dumps(doc)).cases[0].solution \
        == "(1+t)*sin(pi*x)*sin(pi*y)"


@pytest.mark.parametrize("estimator, kind", [
    ("poisson_two_sided", "Poisson"), ("heat_two_sided", "Heat")])
@pytest.mark.parametrize("gamma", [1.0, 0.5])
def test_cli_rejects_two_sided_gamma_at_most_one(tmp_path, capsys, estimator,
                                                 kind, gamma):
    case = {"kind": kind, "lower": [0.0], "upper": [1.0],
            "solution": "(1+t)*sin(pi*x)" if kind == "Heat" else "sin(pi*x)"}
    if kind == "Heat":
        case["T"] = 1.0
    doc = dict(MINIMAL, cases=[case],
               estimators=[{"name": estimator, "gamma": gamma}])
    _assert_rejected(tmp_path, capsys, ["verify-bounds"], doc,
                     "estimators[0]", "'gamma'", f"must exceed 1 for {estimator}")


def test_plotdata_efficiency_is_the_records(tmp_path):
    # a true error at or below the residual floor has no efficiency index
    rec = {"case": "c", "kind": "Poisson", "level": "conforming_mixed",
           "epsilon": 0.0, "seed": 0, "estimator": "poisson_two_sided",
           "status": "ok", "error": "", "true_total": 1e-16,
           "lower_bound": 0.0, "upper_bound": 4e-16,
           "efficiency_upper": None, "passed": True}
    done = dict(rec, epsilon=0.1, true_total=2.0, upper_bound=3.0,
                efficiency_upper=1.5)
    emit(RunReport(records=[rec, done]), ["plotdata"], tmp_path)
    rows = (tmp_path / "plot_poisson_two_sided.dat").read_text().splitlines()
    assert rows[1].split()[4] == "nan"
    assert rows[2].split()[4] == "1.5"
