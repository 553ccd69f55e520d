"""The benchmark's workloads: seeded configs, one timed pass each, and the
correctness gate every record of a pass goes through.

Every workload draws its perturbation seeds from a fixed pool, so the totals
of every record any ``--seed`` can produce are in ``reference.json``
(written by ``make_reference.py`` at the commit that defined the benchmark).

* ``suite``: ``errbounds suite`` through ``cli.main`` with all three output
  formats: 180 one-dimensional records at 72 spatial or 1,728 space-time
  nodes per integral. Many small calls on arrays that fit in L1/L2, so
  per-call overhead in the estimators, runner, emit and the closure tree
  shows here.
* ``volume``: ``runner.run`` plus ``emit`` on a 3-D reaction-diffusion box
  (373,248 nodes per integral) and a 2-D heat cylinder (124,416 nodes).
  Few calls on arrays larger than L2: field evaluation and ``fsum`` over
  long lists dominate, and memory peaks here.
* ``majorant``: ``optimize_majorant`` through ``runner.run`` on 2-D RD and
  Poisson at basis sizes 4, 16 and 36 (5,184 nodes per integral), plus
  ``improve_bound`` with budget 8 on a non-conforming RD pair. The Gram
  assembly re-evaluates the same basis fields many times.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

FORMATS = ("json", "csv", "plotdata")
TOTALS = ("lhs_total", "rhs_total", "true_total", "upper_bound", "majorant")
IMPROVE_BUDGET = 8
IMPROVE_EPSILON = 0.3


def _suite_doc(seeds, f_scale):
    cases = [
        ("RD", None, "sin(pi*x)", "rd-sine"),
        ("Poisson", None, "sin(pi*x) + sin(2*pi*x)/4", "poisson-sines"),
        ("TRD", 1.0, "exp(-t)*sin(pi*x)", "trd-decay"),
        ("Heat", 1.0, "(1+t)*sin(pi*x)", "heat-growth"),
    ]
    return {
        "cases": [_case(kind, [0.0], [1.0], sol, label, f_scale, T)
                  for kind, T, sol, label in cases],
        "approximations": [{"level": "conforming_mixed", "epsilon": eps, "seed": s}
                           for eps in (0.01, 0.1, 1.0) for s in seeds],
        "estimators": [
            {"name": "rd_equality"},
            {"name": "poisson_two_sided", "gamma": 2.0},
            {"name": "trd_equality"},
            {"name": "heat_two_sided", "gamma": 2.0},
            {"name": "trd_isometry_check"},
            {"name": "heat_isometry_check"},
        ],
    }


def _volume_doc(seeds, f_scale):
    return {
        "cases": [
            _case("RD", [0.0, 0.0, 0.0], [1.0, 2.0, 0.5],
                  "sin(pi*x)*sin(pi*y/2)*sin(2*pi*z)", "rd-box3", f_scale),
            _case("Heat", [0.0, 0.0], [1.0, 1.0],
                  "(1+t)*sin(pi*x)*sin(pi*y)", "heat-square", f_scale, 1.0),
        ],
        "approximations": [{"level": "conforming_mixed", "epsilon": 0.1, "seed": s}
                           for s in seeds],
        "estimators": [{"name": "rd_equality"},
                       {"name": "heat_two_sided", "gamma": 2.0}],
    }


def _majorant_doc(seeds, f_scale):
    return {
        "cases": [
            _case("RD", [0.0, 0.0], [1.0, 1.0],
                  "sin(pi*x)*sin(pi*y) + sin(3*pi*x)*sin(pi*y)/3",
                  "rd-square", f_scale),
            _case("Poisson", [0.0, 0.0], [1.0, 1.0],
                  "sin(pi*x)*sin(2*pi*y)", "poisson-square", f_scale),
        ],
        "approximations": [{"level": "conforming_mixed", "epsilon": 0.1, "seed": s}
                           for s in seeds],
        "estimators": [{"name": "optimize_majorant", "basis_size": n}
                       for n in (4, 16, 36)],
    }


def _case(kind, lower, upper, solution, label, f_scale, T=None):
    case = {"kind": kind, "lower": lower, "upper": upper,
            "solution": solution, "label": label, "f_scale": f_scale}
    if T is not None:
        case["T"] = T
    return case


# name -> (config builder, seed pool size, perturbation seeds per pass)
WORKLOADS = {
    "suite": (_suite_doc, 64, 10),
    "volume": (_volume_doc, 16, 1),
    "majorant": (_majorant_doc, 16, 1),
}


def pass_seeds(workload: str, seed: int):
    """The perturbation seeds one benchmark seed selects from the pool."""
    _, pool, per_pass = WORKLOADS[workload]
    return random.Random(seed).sample(range(pool), per_pass)


def config_doc(workload: str, seeds, f_scale: float = 1.0) -> dict:
    return WORKLOADS[workload][0](list(seeds), f_scale)


def record_key(rec: dict) -> str:
    basis = rec.get("basis_size", rec.get("step", ""))
    return "|".join(str(rec.get(k, "")) for k in
                    ("case", "level", "epsilon", "seed", "estimator")) + f"|{basis}"


class Pass:
    """One timed pass of a workload inside an output directory."""

    def __init__(self, workload: str, config_path: Path, outdir: Path):
        self.workload = workload
        self.config_path = config_path
        self.outdir = outdir
        self.improve_records = []

    def run(self):
        """The timed work. Returns the CLI exit code (0 for library passes)."""
        import errbounds.cli
        import errbounds.config
        import errbounds.runner

        if self.workload == "suite":
            argv = ["suite", "--config", str(self.config_path),
                    "--out", str(self.outdir)]
            for fmt in FORMATS:
                argv += ["--format", fmt]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return errbounds.cli.main(argv)
        config = errbounds.config.parse_config(self.config_path.read_text())
        report = errbounds.runner.run(config)
        errbounds.runner.emit(report, FORMATS, self.outdir)
        if self.workload == "majorant":
            self.improve_records = _improve(config)
        return 0

    def report_bytes(self) -> bytes:
        return (self.outdir / "report.json").read_bytes()

    def records(self):
        doc = json.loads(self.report_bytes())
        return doc["records"] + self.improve_records


def _improve(config):
    """``improve_bound`` on a non-conforming pair of the first (RD) case."""
    from errbounds import manufactured, optimize, quadrature

    cs = config.cases[0]
    rule = quadrature.QuadratureRule(space_order=config.space_order,
                                     time_order=config.time_order)
    case = manufactured.make_case(cs.kind, cs.domain(), cs.solution,
                                  f_factor=cs.f_scale)
    seed = config.approximations[0].seed
    approx = manufactured.perturb(case, "non_conforming", IMPROVE_EPSILON, seed)
    phi, _ = manufactured.free_fields(case, "coarse")
    records = []
    for step, rep in enumerate(optimize.improve_bound(
            case, approx, phi, rule, budget=IMPROVE_BUDGET)):
        rec = rep.to_record()
        rec.update({"case": cs.label, "level": "non_conforming",
                    "epsilon": IMPROVE_EPSILON, "seed": seed,
                    "estimator": "improve_bound", "step": step,
                    "passed": bool(rep.ordering_ok)})
        records.append(rec)
    return records


def failed_records(records, reference: dict, equality_rel: float,
                   bound_slack: float):
    """Records that fail the gate, as (key, reason) pairs.

    A record fails when the library marks it failed or it raised, when a
    total differs from the reference by more than ``equality_rel``
    (relative), or when an ``improve_bound`` upper bound increases.
    """
    failures = []
    prev_upper = None
    for rec in records:
        key = record_key(rec)
        reason = _failure(rec, reference.get(key), equality_rel)
        if rec.get("estimator") == "improve_bound":
            upper = rec.get("upper_bound")
            if (not reason and prev_upper is not None
                    and upper > prev_upper + bound_slack):
                reason = "upper bound increased"
            prev_upper = upper
        if reason:
            failures.append((key, reason))
    return failures


def _failure(rec, ref, equality_rel):
    if not rec.get("passed", False) or rec.get("status", "ok") != "ok":
        return rec.get("error") or "record failed"
    if ref is None:
        return "no reference value"
    bad = [t for t in TOTALS if t in ref and not _close(rec.get(t), ref[t],
                                                        equality_rel)]
    if bad:
        return f"totals differ from reference: {bad}"
    return ""


def _close(value, ref, rel):
    if not isinstance(value, (int, float)):
        return False
    return abs(value - ref) <= rel * max(abs(value), abs(ref))


def reference_totals(records) -> dict:
    return {record_key(r): {t: r[t] for t in TOTALS if r.get(t) is not None}
            for r in records}


def nodes_per_integral(config) -> dict:
    """Quadrature nodes per integral for each case of a parsed config."""
    from errbounds import quadrature

    rule = quadrature.QuadratureRule(space_order=config.space_order,
                                     time_order=config.time_order)
    out = {}
    for cs in config.cases:
        dom = cs.domain()
        weights = (quadrature.spacetime_nodes(dom, rule)[2] if dom.is_parabolic
                   else quadrature.space_nodes(dom, rule)[1])
        out[cs.label] = len(weights)
    return out
