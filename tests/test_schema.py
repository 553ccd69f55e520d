"""The estimator registry and the schema of the records it produces."""
import dataclasses
import json

import pytest

from errbounds import LEVELS, emit, parse_config, read_report, run
from errbounds.cli import _filter_estimators
from errbounds.config import EstimatorSpec
from errbounds.runner import ESTIMATORS, SCHEMA_VERSION, RunReport

DOTTED_PREFIXES = ("lhs.", "rhs.", "true.", "lower.", "check.")

# every registered estimator over every kind and every level it accepts
ALL_ESTIMATORS = {
    "cases": [
        {"kind": "RD", "lower": [0.0], "upper": [1.0],
         "solution": "sin(pi*x)"},
        {"kind": "Poisson", "lower": [0.0], "upper": [1.0],
         "solution": "sin(pi*x) + sin(2*pi*x)/4"},
        {"kind": "TRD", "lower": [0.0], "upper": [1.0], "T": 1.0,
         "solution": "exp(-t)*sin(pi*x)"},
        {"kind": "Heat", "lower": [0.0], "upper": [1.0], "T": 1.0,
         "solution": "(1+t)*sin(pi*x)"},
    ],
    "approximations": [{"level": level, "epsilon": 0.1, "seed": 0}
                       for level in LEVELS],
    "estimators": [{"name": name} for name in ESTIMATORS],
    "quadrature": {"space_order": 6, "time_order": 6},
}


@pytest.fixture(scope="module")
def all_records():
    return run(parse_config(json.dumps(ALL_ESTIMATORS))).records


def test_every_registered_combination_runs(all_records):
    ran = {(r["estimator"], r["kind"], r["level"]) for r in all_records}
    expected = {(name, kind, level) for name, e in ESTIMATORS.items()
                for kind in e.kinds for level in e.levels}
    assert ran == expected
    assert all(r["status"] == "ok" for r in all_records), [
        r["error"] for r in all_records if r["status"] != "ok"]


def test_dotted_keys_use_the_schema_families(all_records):
    for rec in all_records:
        dotted = [k for k in rec if "." in k]
        assert all(k.startswith(DOTTED_PREFIXES) for k in dotted), (
            rec["estimator"], dotted)


def test_bound_records_carry_efficiency_and_ordering(all_records):
    bounds = [r for r in all_records
              if ESTIMATORS[r["estimator"]].family in ("verify-bounds",
                                                       "optimize-majorant")]
    assert {r["estimator"] for r in bounds} == {
        "poisson_two_sided", "rd_semiconforming_bounds",
        "rd_nonconforming_bounds", "poisson_nonconforming", "heat_two_sided",
        "optimize_majorant"}
    for rec in bounds:
        assert rec["efficiency_upper"] is not None, rec["estimator"]
        assert rec["ordering_ok"] is True, rec["estimator"]
        assert rec["true.total"] == rec["true_total"]


def test_equality_records_carry_both_sides(all_records):
    for rec in all_records:
        if ESTIMATORS[rec["estimator"]].family == "verify-equality":
            assert any(k.startswith("lhs.") for k in rec), rec["estimator"]
            assert any(k.startswith("rhs.") for k in rec), rec["estimator"]
            assert "rel_residual" in rec


def test_emitted_schema_version(all_records, tmp_path):
    (path,) = emit(RunReport(records=all_records), ["json"], tmp_path)
    assert SCHEMA_VERSION == 2
    assert json.loads(path.read_text())["schema_version"] == 2


def test_cli_commands_select_estimators():
    config = dataclasses.replace(
        parse_config(json.dumps(ALL_ESTIMATORS)),
        estimators=tuple(EstimatorSpec(name=n) for n in ESTIMATORS))

    def selected(command):
        return sorted(e.name for e in
                      _filter_estimators(config, command).estimators)

    assert selected("verify-equality") == sorted([
        "rd_equality", "rd_very_conforming_equality",
        "poisson_very_conforming_equality", "trd_equality",
        "trd_very_conforming_equality", "heat_very_conforming_equality",
        "trd_isometry_check", "heat_isometry_check"])
    assert selected("verify-bounds") == sorted([
        "poisson_two_sided", "rd_semiconforming_bounds",
        "rd_nonconforming_bounds", "poisson_nonconforming",
        "heat_two_sided"])
    assert selected("optimize-majorant") == ["optimize_majorant"]
    assert selected("friedrichs") == ["friedrichs"]
    assert selected("suite") == sorted(ESTIMATORS)


def test_read_report_rejects_schema_1(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema_version": 1, "records": [
        {"case": "trd-decay", "estimator": "trd_equality",
         "lhs_total": 1.0, "rhs_total": 1.0, "rel_residual": 0.0,
         "component.lhs.err_l2_sq": 1.0, "component.rhs.residual_sq": 1.0,
         "passed": True}]}))
    with pytest.raises(ValueError, match=r"schema_version 1\b.*2"):
        read_report(path)
