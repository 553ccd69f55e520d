"""errbounds benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload suite|volume|majorant --seed N \
        --seconds S --trace 0|1 [--f-scale F]

Run it from the root of a checkout; it imports ``errbounds`` from ``src/``
there and exits non-zero without a result when that is missing.

A pass is everything after set-up: config parsing, ``make_case`` and
``perturb`` inside the runner, the estimators, pass/fail and ``emit`` of
json, csv and plotdata (see ``workloads.py``). After the quadrature node sets
and ``make_case`` have been primed in-process, timed passes run until
``--seconds`` have gone by. Every pass goes through the correctness gate,
and its ``report.json`` must be byte-identical to the first pass's.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of importing errbounds,
  parsing the workload's config and ``make_case`` of each case;
* ``records_per_s``: verified records per second, median over timed passes;
* ``peak_rss_mb``: peak resident memory of this process;
* ``pass_frac``: verified records over attempted records. Its complement,
  ``fail_frac``, is printed on the summary line; it is 0 on a correct
  program, which a metric compared by ratio cannot be.

Times are in reference seconds: the speed of a shared host drifts by up to
+-20% over tens of seconds, so a fixed calibration kernel runs between
passes, and the wall times of the passes and of the set-up runs are scaled
by ``CAL_REFERENCE_S`` over the kernel's median wall time in the same run.
The conditions line records the scale and the raw set-up times.

``--trace 1`` spends half the time on untraced passes and half on passes
traced by ``tracer.Tracer``, and prints the per-layer metrics of one pass:
counts from the first traced pass, times as medians over traced passes (in
wall seconds; ``trace.overhead_frac`` compares reference seconds).
The spans of the first traced pass are written to ``bench/_work/``.

``--f-scale`` rescales every case's source term; 1.01 injects a data defect
that the gate must catch.

The last line of standard output is the JSON result; the line before it
records the run's conditions.
"""
from __future__ import annotations

import os

# Pin BLAS before numpy loads, so np.linalg.solve runs single-threaded.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# Median wall time of _calibrate on the machine the benchmark was defined on
# (2-core Intel Xeon at 2.0 GHz); it only sets the unit of reference seconds.
CAL_REFERENCE_S = 0.06
CAL_SHARE = 0.1

import tracer  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--f-scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if not (SRC / "errbounds" / "__init__.py").is_file():
        print(f"error: no errbounds package under {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, conditions = _measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("conditions: " + json.dumps(conditions, sort_keys=True))
    print(json.dumps(result))
    return 0


def _measure(args, run_dir: Path):
    seeds = workloads.pass_seeds(args.workload, args.seed)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(
        workloads.config_doc(args.workload, seeds, args.f_scale), indent=2))

    setup = [] if args.trace else _setup_runs(config_path)
    errbounds = _import_errbounds()
    config = errbounds.config.parse_config(config_path.read_text())
    reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
    gate = _Gate(args.workload, config_path, run_dir, reference, config)

    _prime(errbounds, config)
    if args.trace:
        plain = gate.timed_passes(args.seconds / 2.0)
        timing, layers = _traced_passes(gate, args)
        layers["trace.overhead_frac"] = timing.pass_s / plain.pass_s - 1.0
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracer.PER_LAYER}
    else:
        timing = gate.timed_passes(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup) * timing.scale,
                        "unit": "s"},
            "records_per_s": {"value": timing.records_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "pass_frac": {"value": (gate.attempted - gate.failed) / gate.attempted,
                          "unit": "frac"},
        }

    for key, reason in gate.failures[:10]:
        print(f"FAIL {key}: {reason}", file=sys.stderr)
    print(f"{args.workload}: {gate.passes} passes, {gate.attempted} records, "
          f"fail_frac={gate.failed / gate.attempted!r}")
    conditions = _conditions(args, errbounds, config, gate, setup, timing)
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics}
    return result, conditions


def _prime(errbounds, config):
    """Warm the in-process caches so that every timed pass is a warm pass:
    the quadrature node sets and sympy's caches behind ``make_case``."""
    workloads.nodes_per_integral(config)
    for cs in config.cases:
        errbounds.make_case(cs.kind, cs.domain(), cs.solution, f_factor=cs.f_scale)


def _traced_passes(gate, args):
    """Traced passes for half of ``--seconds``: per-layer counts of the first
    pass and per-layer times as medians over all of them."""
    tr = tracer.Tracer()
    per_pass = []

    def collect():
        per_pass.append(tr.metrics())
        if len(per_pass) == 1:
            tr.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
        tr.reset()

    tr.install()
    try:
        timing = gate.timed_passes(args.seconds / 2.0, after_pass=collect)
    finally:
        tr.restore()
    layers = dict(per_pass[0])
    for name, unit, _ in tracer.PER_LAYER:
        if unit == "s":
            layers[name] = statistics.median(m[name] for m in per_pass)
    return timing, layers


class _Gate:
    """Runs passes and checks every record of each against the gate."""

    def __init__(self, workload, config_path, run_dir, reference, config):
        self.workload = workload
        self.config_path = config_path
        self.run_dir = run_dir
        self.reference = reference
        self.equality_rel = config.equality_rel
        self.bound_slack = config.bound_slack
        self.first_bytes = None
        self.records_per_pass = 0
        self.passes = self.attempted = self.failed = 0
        self.failures = []

    def run_pass(self):
        """One pass; returns (seconds, verified records)."""
        p = workloads.Pass(self.workload, self.config_path,
                           self.run_dir / f"out{self.passes}")
        self.passes += 1
        t0 = time.perf_counter()
        try:
            p.run()
        except Exception as exc:  # a raising pass fails all of its records
            dt = time.perf_counter() - t0
            n = max(self.records_per_pass, 1)
            self._count(n, [("pass", f"{type(exc).__name__}: {exc}")] * n)
            return dt, 0
        dt = time.perf_counter() - t0
        records = p.records()
        fails = workloads.failed_records(records, self.reference,
                                         self.equality_rel, self.bound_slack)
        data = p.report_bytes()
        if self.first_bytes is None:
            self.first_bytes = data
            self.records_per_pass = len(records)
        elif data != self.first_bytes:
            fails = [(workloads.record_key(r), "report.json differs from the "
                      "first pass") for r in records]
        shutil.rmtree(p.outdir, ignore_errors=True)
        self._count(len(records), fails)
        return dt, len(records) - len(fails)

    def _count(self, n, fails):
        self.attempted += n
        self.failed += len(fails)
        self.failures.extend(fails)

    def timed_passes(self, seconds, after_pass=None) -> "_Timing":
        """Passes until ``seconds`` have gone by, at least two, so that every
        run compares two ``report.json`` files. The calibration kernel runs
        before the first pass and after each, for at least CAL_SHARE of the
        pass's time, so that long passes get as many samples of host speed."""
        passes, kernel = [], [_calibrate()]
        start = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            passes.append(self.run_pass())
            if after_pass is not None:
                after_pass()
            spent = 0.0
            while spent < CAL_SHARE * passes[-1][0] or not spent:
                kernel.append(_calibrate())
                spent += kernel[-1]
        return _Timing(passes, kernel)


class _Timing:
    """Timed passes in reference seconds. The kernel's drift follows the
    passes' over tens of seconds; pass-to-pass noise does not correlate with
    it and is left to the median over passes."""

    def __init__(self, passes, kernel):
        self.kernel_s = statistics.median(kernel)
        self.scale = _scale(kernel)
        self.pass_s = statistics.median(dt for dt, _ in passes) * self.scale
        self.records_per_s = statistics.median(ok / dt for dt, ok in passes) / self.scale


def _scale(kernel) -> float:
    """Reference seconds per wall second, from the kernel's wall times."""
    return CAL_REFERENCE_S / statistics.median(kernel)


_CAL_X = np.linspace(0.0, 1.0, 1 << 14)


def _calibrate() -> float:
    """Wall time of a fixed kernel shaped like the workloads: an interpreted
    loop, vector trig, and ``fsum`` over lists, in blocks small enough not to
    raise the peak resident memory the benchmark reports."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    for k in range(24):
        y = np.sin((3.0 + k % 6) * _CAL_X) * np.cos(5.0 * _CAL_X)
        math.fsum(y.tolist())
    return time.perf_counter() - t0


def _setup_runs(config_path: Path):
    """Wall times of cold set-up in SETUP_REPEATS fresh interpreters."""
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(config_path)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        runs.append(float(proc.stdout.strip().splitlines()[-1]))
    return runs


def _import_errbounds():
    sys.path.insert(0, str(SRC))
    import errbounds
    import errbounds.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(errbounds.__file__).resolve().parent != (SRC / "errbounds").resolve():
        raise RuntimeError(f"imported errbounds from {errbounds.__file__}, not {SRC}")
    return errbounds


def _conditions(args, errbounds, config, gate, setup, timing) -> dict:
    import sympy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "f_scale": args.f_scale,
        "perturbation_seeds": workloads.pass_seeds(args.workload, args.seed),
        "records_per_pass": gate.records_per_pass, "passes": gate.passes,
        "nodes_per_integral": workloads.nodes_per_integral(config),
        "setup_runs_wall_s": setup,
        "calibration_kernel_s": timing.kernel_s,
        "reference_s_per_wall_s": timing.scale,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "caches": _caches(),
        "python": platform.python_version(), "numpy": np.__version__,
        "sympy": sympy.__version__, "errbounds": errbounds.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


if __name__ == "__main__":
    sys.exit(main())
