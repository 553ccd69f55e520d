"""The benchmark's tracer, installed around the library from outside.

``bench/tracer.py`` wraps module-level names and the ``value`` method of
each field class; these tests keep that contract in the fast suite.
"""
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


def test_tracer_counts_evaluations_per_record_and_restores():
    before = _namespaces()
    values = {cls: cls.__dict__["value"] for cls in (ScalarField, VectorField)}
    tr = _load_tracer().Tracer()
    tr.install()
    try:
        assert all(cls.__dict__["value"] is not values[cls] for cls in values)
        report = errbounds.runner.run(default_suite_config(n_seeds=1))
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
