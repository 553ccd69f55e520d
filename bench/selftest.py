"""Self-checks of the benchmark (not part of the library's test suite).

    python3 -m pytest -q bench/selftest.py

They run the benchmark in subprocesses from the checkout's root, with the
shortest runs it allows (a warm-up pass plus one timed pass), and take a few
minutes in all.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("suite", "volume", "majorant")

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


def _run(workload, *extra, seed=0, trace=0, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_tracer():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] \
        == list(tracer.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    result = _result(_run(workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_data_defect_is_caught(workload):
    proc = _run(workload, "--f-scale", "1.01")
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] > 0
    fail_frac = float(proc.stdout.split("fail_frac=")[1].split()[0])
    assert fail_frac > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(workload, seed=3, trace=1)) for _ in range(2))
    names = [n for n, _, _ in tracer.PER_LAYER]
    assert list(first["metrics"]) == names
    counts = tracer.COUNT_METRICS
    assert {n: first["metrics"][n]["value"] for n in counts} \
        == {n: second["metrics"][n]["value"] for n in counts}
    assert first["metrics"]["fields.eval.calls"]["value"] > 0


def test_tracer_restores_every_original():
    sys.path.insert(0, str(ROOT / "src"))
    import errbounds
    from errbounds import fields, quadrature, runner

    before = (quadrature.norm_sq, runner.run, errbounds.norm_sq,
              fields.ScalarField.value)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert quadrature.norm_sq is not before[0]
        assert quadrature.norm_sq.__wrapped__ is before[0]
    finally:
        tr.restore()
    assert (quadrature.norm_sq, runner.run, errbounds.norm_sq,
            fields.ScalarField.value) == before


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run("suite", cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
