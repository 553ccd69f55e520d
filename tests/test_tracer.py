"""The benchmark's tracer, installed around the library from outside.

``bench/tracer.py`` wraps module-level names and the ``value`` method of
each field class; these tests keep that contract in the fast suite.
"""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import errbounds
from errbounds import ScalarField, VectorField, default_suite_config

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("errbounds_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "errbounds" or name.startswith("errbounds.")}


# the default suite's cases moved to the unit square, with solutions that
# do not split into 1-D factors, so every norm is taken on the grid
_UNSPLIT = "sin(pi*x*y)*x*(1-x)*y*(1-y)"
_TIME_FACTORS = {"RD": "", "Poisson": "", "TRD": "exp(-t)*", "Heat": "(1+t)*"}


def _unsplit_suite_config():
    config = default_suite_config(n_seeds=1, space_order=4, time_order=4)
    return dataclasses.replace(config, cases=tuple(
        dataclasses.replace(cs, lower=(0.0, 0.0), upper=(1.0, 1.0),
                            solution=_TIME_FACTORS[cs.kind] + _UNSPLIT)
        for cs in config.cases))


def test_tracer_counts_evaluations_per_record_and_restores():
    before = _namespaces()
    values = {cls: cls.__dict__["value"] for cls in (ScalarField, VectorField)}
    tr = _load_tracer().Tracer()
    tr.install()
    try:
        assert all(cls.__dict__["value"] is not values[cls] for cls in values)
        report = errbounds.runner.run(_unsplit_suite_config())
        evals = [r for name, r in zip(tr.names, tr.records)
                 if name == "fields.eval"]
        metrics = tr.metrics()
    finally:
        tr.restore()
    n = len(report.records)
    assert n == 18 and all(r["passed"] for r in report.records)
    # a per-case estimator runs once per case and spec, so the traced
    # record ids count estimator calls: 18 records minus the 4 that reuse
    # an isometry check of their case
    per_case = [(r["case"], r["estimator"]) for r in report.records
                if errbounds.runner.ESTIMATORS[r["estimator"]].per_case]
    calls = n - (len(per_case) - len(set(per_case)))
    assert calls == 14 == n - 4
    assert set(range(calls)) <= set(evals) and max(evals) == calls - 1
    assert metrics["fields.eval.calls"] == len(evals) >= n
    assert metrics["symbolic.fields.calls"] > 0
    assert all(cls.__dict__["value"] is values[cls] for cls in values)
    after = _namespaces()
    for name, namespace in before.items():
        assert all(after[name][attr] is obj
                   for attr, obj in namespace.items()), name


def test_default_suite_evaluates_no_field_on_the_grid():
    # every field of the default suite splits into 1-D factors, so its
    # norms never evaluate a field at the nodes of the grid
    tr = _load_tracer().Tracer()
    tr.install()
    try:
        report = errbounds.runner.run(default_suite_config(n_seeds=1))
        metrics = tr.metrics()
    finally:
        tr.restore()
    assert len(report.records) == 18
    assert all(r["passed"] for r in report.records)
    assert metrics["fields.eval.calls"] == 0 and "fields.eval" not in tr.names
