"""Batch execution of estimator suites and report serialization."""
from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Tuple

from .elliptic import (POISSON_NONCONFORMING_WHICH, RD_NONCONFORMING_WHICH,
                       cftwo_check, friedrichs_constant, friedrichs_margin,
                       poisson_nonconforming, poisson_two_sided,
                       poisson_very_conforming_equality, rd_equality,
                       rd_nonconforming_bounds, rd_semiconforming_bounds,
                       rd_very_conforming_equality)
from .fields import ConformityError
from .manufactured import (KINDS, LEVELS, ProblemCase, flux_basis,
                           free_fields, make_case, perturb)
from .optimize import minimize_flux_majorant
from .parabolic import (heat_isometry_check, heat_two_sided,
                        heat_very_conforming_equality, trd_equality,
                        trd_isometry_check, trd_very_conforming_equality)
from .quadrature import QuadratureRule

if TYPE_CHECKING:  # config imports the registry from here
    from .config import CaseSpec, RunConfig

SCHEMA_VERSION = 2

# keys kept in memory but stripped from serialized reports so that repeated
# runs of one configuration produce byte-identical files
_VOLATILE_KEYS = ("wall_time_s",)

_META_COLUMNS = ("case", "kind", "level", "epsilon", "seed", "estimator",
                 "status", "error")


@dataclasses.dataclass
class RunReport:
    """Ordered collection of per-(case, approximation, estimator) records."""

    records: List[dict]
    schema_version: int = SCHEMA_VERSION

    @property
    def exit_code(self) -> int:
        return 0 if all(r.get("passed", True) for r in self.records) else 1


class Estimator(NamedTuple):
    """Registry entry. ``levels`` are the conformity levels the estimator's
    hypotheses admit, ``family`` is the CLI command that selects it,
    ``record(case, spec, approx, rule)`` returns the record's fields,
    ``which`` lists the values its spec's ``which`` may take (none if empty)
    and its spec's ``gamma`` must exceed ``gamma_above``. A ``per_case``
    estimator ignores the approximation, so the runner computes its fields
    once per case and spec and gives them to each of its records."""

    kinds: Tuple[str, ...]
    levels: Tuple[str, ...]
    family: str
    record: Callable[..., dict]
    which: Tuple[str, ...] = ()
    gamma_above: float = 0.0
    per_case: bool = False


def _cf(case: ProblemCase) -> float:
    return friedrichs_constant(case.dom.spatial()).value


def _semiconforming(case, spec, approx, rule) -> dict:
    phi, flux = free_fields(case, spec.free_strategy)
    free = flux if approx.level == "semi_conforming_primal" else phi
    return rd_semiconforming_bounds(case, approx, free, gamma=spec.gamma,
                                    rule=rule).to_record()


def _rd_nonconforming(case, spec, approx, rule) -> dict:
    phi, flux = free_fields(case, spec.free_strategy)
    return rd_nonconforming_bounds(case, approx, phi, flux, gamma=spec.gamma,
                                   which=spec.which or "iii",
                                   rule=rule).to_record()


def _poisson_nonconforming(case, spec, approx, rule) -> dict:
    phi, flux = free_fields(case, spec.free_strategy)
    return poisson_nonconforming(case, approx.u_tilde, approx.p_tilde, phi,
                                 flux, _cf(case), spec.which or "i",
                                 rule).to_record()


def _friedrichs(case, spec, approx, rule) -> dict:
    dom = case.dom.spatial()
    cf = friedrichs_constant(dom)
    w = case.exact_u if not case.dom.is_parabolic else case.u0
    rec = {"cf": cf.value, "provenance": cf.provenance}
    if w is not None and w.vanishes_on_boundary:
        rec["margin"] = friedrichs_margin(w, cf.value, dom, rule)
        if w.has_laplacian:
            rec["margin_second"] = cftwo_check(w, cf.value, dom, rule)
    return rec


def _optimize_majorant(case, spec, approx, rule) -> dict:
    basis = flux_basis(case.dom.spatial(), spec.basis_size)
    _, report, coeffs = minimize_flux_majorant(case, approx.u_tilde, basis, rule)
    terms = report.checks
    # "majorant" is the minimized functional, a bound for RD only
    return {**report.to_record(),
            "majorant": terms["residual_sq"] + terms["gap_sq"],
            "basis_size": len(basis),
            "coeff_norm": float(math.fsum(c * c for c in coeffs)) ** 0.5}


# The one declaration of every estimator. Adapters look the estimator
# functions up as module globals at call time, so rebinding them (for
# monkeypatching or tracing) reaches the runner. Isometry checks and the
# Friedrichs record take no approximation and accept any level.
_ALL_LEVELS = tuple(LEVELS)
_CONFORMING = ("very_conforming", "conforming_mixed")
_EQ, _BOUNDS = "verify-equality", "verify-bounds"
ESTIMATORS: Dict[str, Estimator] = {
    "rd_equality": Estimator(
        ("RD",), _CONFORMING, _EQ,
        lambda case, spec, approx, rule:
            rd_equality(case, approx, rule).to_record()),
    "rd_very_conforming_equality": Estimator(
        ("RD",), ("very_conforming",), _EQ,
        lambda case, spec, approx, rule: rd_very_conforming_equality(
            case, approx.u_tilde, rule).to_record()),
    "poisson_very_conforming_equality": Estimator(
        ("Poisson",), ("very_conforming",), _EQ,
        lambda case, spec, approx, rule: poisson_very_conforming_equality(
            case, approx.u_tilde, rule).to_record()),
    "poisson_two_sided": Estimator(
        ("Poisson",), _CONFORMING, _BOUNDS,
        lambda case, spec, approx, rule: poisson_two_sided(
            case, approx, _cf(case), rule, gamma=spec.gamma).to_record(),
        gamma_above=1.0),
    "rd_semiconforming_bounds": Estimator(
        ("RD",), ("semi_conforming_primal", "semi_conforming_dual"), _BOUNDS,
        _semiconforming),
    "rd_nonconforming_bounds": Estimator(
        ("RD",), _ALL_LEVELS, _BOUNDS, _rd_nonconforming,
        RD_NONCONFORMING_WHICH),
    "poisson_nonconforming": Estimator(
        ("Poisson",), _ALL_LEVELS, _BOUNDS, _poisson_nonconforming,
        POISSON_NONCONFORMING_WHICH),
    "trd_equality": Estimator(
        ("TRD",), _CONFORMING, _EQ,
        lambda case, spec, approx, rule:
            trd_equality(case, approx, rule).to_record()),
    "trd_very_conforming_equality": Estimator(
        ("TRD",), ("very_conforming",), _EQ,
        lambda case, spec, approx, rule: trd_very_conforming_equality(
            case, approx.u_tilde, rule).to_record()),
    "heat_very_conforming_equality": Estimator(
        ("Heat",), ("very_conforming",), _EQ,
        lambda case, spec, approx, rule: heat_very_conforming_equality(
            case, approx.u_tilde, rule).to_record()),
    "heat_two_sided": Estimator(
        ("Heat",), _CONFORMING, _BOUNDS,
        lambda case, spec, approx, rule: heat_two_sided(
            case, approx, _cf(case), rule, gamma=spec.gamma).to_record(),
        gamma_above=1.0),
    "trd_isometry_check": Estimator(
        ("TRD",), _ALL_LEVELS, _EQ,
        lambda case, spec, approx, rule:
            trd_isometry_check(case, rule).to_record(), per_case=True),
    "heat_isometry_check": Estimator(
        ("Heat",), _ALL_LEVELS, _EQ,
        lambda case, spec, approx, rule:
            heat_isometry_check(case, rule).to_record(), per_case=True),
    "friedrichs": Estimator(KINDS, _ALL_LEVELS, "friedrichs", _friedrichs,
                            per_case=True),
    "optimize_majorant": Estimator(
        ("RD", "Poisson"), _CONFORMING, "optimize-majorant",
        _optimize_majorant),
}


def run(config: RunConfig) -> RunReport:
    """Execute every compatible (case, approximation, estimator) combination.

    Failures of individual records are captured in place; the batch always
    completes. A record "passes" when its equality residual is within
    config.equality_rel and any bound ordering holds within config.bound_slack.
    A case that ``make_case`` rejects raises ConfigError before any record.
    Cases, directions and flux bases come from the bounded process-wide
    memos of :mod:`errbounds.manufactured`, which no run clears. A run
    computes all of its records, a ``per_case`` estimator's once per case
    and spec.
    """
    rule = QuadratureRule(space_order=config.space_order,
                          time_order=config.time_order)
    records: List[dict] = []
    cases: List[Tuple[CaseSpec, ProblemCase]] = []
    for i, cs in enumerate(config.cases):
        try:
            cases.append((cs, make_case(cs.kind, cs.domain(), cs.solution,
                                        f_factor=cs.f_scale)))
        except (ValueError, TypeError, ConformityError) as exc:
            from .config import ConfigError  # config imports this module
            raise ConfigError(f"cases[{i}] ({cs.label}): 'solution' "
                              f"{cs.solution!r} rejected: {exc}") from exc
    for cs, case in cases:
        per_case: Dict[int, dict] = {}  # estimator index -> its fields
        for ap in config.approximations:
            approx = perturb(case, ap.level, ap.epsilon, ap.seed)
            for i, est in enumerate(config.estimators):
                entry = ESTIMATORS[est.name]
                if cs.kind not in entry.kinds or ap.level not in entry.levels:
                    continue
                rec = {"case": cs.label, "kind": cs.kind, "level": ap.level,
                       "epsilon": ap.epsilon, "seed": ap.seed,
                       "estimator": est.name, "status": "ok", "error": ""}
                t0 = time.perf_counter()
                if not entry.per_case:
                    rec.update(_fields(entry, case, est, approx, rule))
                else:
                    if i not in per_case:
                        per_case[i] = _fields(entry, case, est, approx, rule)
                    rec.update(per_case[i])
                rec["wall_time_s"] = time.perf_counter() - t0
                rec["passed"] = _record_passes(rec, config)
                records.append(rec)
    return RunReport(records=records)


def _fields(entry: Estimator, case, spec, approx, rule) -> dict:
    """The fields the estimator gives its record; an exception becomes the
    record's status and error, and the batch continues."""
    try:
        return entry.record(case, spec, approx, rule)
    except Exception as exc:
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def _record_passes(rec: dict, config: RunConfig) -> bool:
    # each check is stated affirmatively, so NaN in a residual, a total or a
    # bound fails it
    if rec["status"] != "ok":
        return False
    rel = rec.get("rel_residual")
    true = rec.get("true_total")
    slack = config.bound_slack
    return bool((rel is None or rel <= config.equality_rel)
                and (true is None
                     or (rec.get("lower_bound", 0.0) <= true + slack
                         and true <= rec.get("upper_bound", math.inf) + slack)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _clean(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k not in _VOLATILE_KEYS}


# what the C encoder writes between items, and after keys as the indented
# form does: it escapes every control character inside a string, so a raw
# NUL is only ever part of an item separator
_SEPARATORS = ("\x00,", ": ")
# the types whose values the C encoder writes as one token
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _scalars(values) -> bool:
    return set(map(type, values)) <= _SCALARS


def _indented(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, at nesting ``depth``,
    with the C encoder. A container of scalars, and a list of nonempty
    dicts of scalars (the records of a report), is encoded in one call with
    :data:`_SEPARATORS`, whose item separators are then expanded to the
    indented ones; any other container (with string keys) is laid out item
    by item."""
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    end = "\n" + "  " * depth
    pad = end + "  "
    if _scalars(obj.values() if isinstance(obj, dict) else obj):
        text = json.dumps(obj, separators=_SEPARATORS)[1:-1]
        body = text.replace("\x00,", "," + pad)
    elif (isinstance(obj, list) and all(type(v) is dict and v for v in obj)
          and _scalars(itertools.chain.from_iterable(map(dict.values, obj)))):
        # only between two of the dicts does a separator follow a "}"
        inner = pad + "  "
        text = json.dumps(obj, separators=_SEPARATORS)[2:-2].replace(
            "}\x00,{", pad + "}," + pad + "{" + inner)
        body = "{" + inner + text.replace("\x00,", "," + inner) + pad + "}"
    elif isinstance(obj, dict):
        body = ("," + pad).join(f"{json.dumps(k)}: {_indented(v, depth + 1)}"
                                for k, v in obj.items())
    else:
        body = ("," + pad).join(_indented(v, depth + 1) for v in obj)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return brackets[0] + pad + body + end + brackets[1]


def _csv_columns(records: List[dict]) -> List[str]:
    extra = sorted({k for r in records for k in r} - set(_META_COLUMNS)
                   - set(_VOLATILE_KEYS))
    return list(_META_COLUMNS) + extra


def emit(report: RunReport, formats, outdir) -> List[Path]:
    """Write the report in each requested format; returns the file paths.

    json: full records; csv: one flat row per record with a stable column
    order; plotdata: per-estimator whitespace-separated columns
    (epsilon, true, lower, upper, efficiency) for external plotting.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for fmt in formats:
        if fmt == "json":
            path = outdir / "report.json"
            doc = {"schema_version": report.schema_version,
                   "records": [_clean(r) for r in report.records]}
            path.write_text(_indented(doc) + "\n", encoding="utf-8")
            written.append(path)
        elif fmt == "csv":
            path = outdir / "report.csv"
            cols = _csv_columns(report.records)
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(cols)
            # csv writes None as an empty cell and a float as its repr
            writer.writerows([rec.get(c) for c in cols]
                             for rec in report.records)
            path.write_text(buf.getvalue(), encoding="utf-8")
            written.append(path)
        elif fmt == "plotdata":
            written.extend(_emit_plotdata(report, outdir))
        else:
            raise ValueError(f"unknown output format {fmt!r}")
    return written


def _emit_plotdata(report: RunReport, outdir: Path) -> List[Path]:
    names = sorted({r["estimator"] for r in report.records})
    written = []
    for name in names:
        path = outdir / f"plot_{name}.dat"
        lines = ["# epsilon true lower upper efficiency"]
        for rec in report.records:
            if rec["estimator"] != name or rec["status"] != "ok":
                continue
            true = rec.get("true_total", rec.get("lhs_total", math.nan))
            lower = rec.get("lower_bound", math.nan)
            upper = rec.get("upper_bound", math.nan)
            eff = rec.get("efficiency_upper")
            if eff is None:
                eff = math.nan
            lines.append(" ".join(repr(float(v)) for v in
                                  (rec["epsilon"], true, lower, upper, eff)))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written


def read_report(path) -> RunReport:
    """Inverse of the json emitter; a report of another schema raises."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path} has schema_version {version!r}; this "
                         f"errbounds reads schema_version {SCHEMA_VERSION}")
    return RunReport(records=doc["records"])


def default_output_dir() -> Path:
    return Path(os.environ.get("ERRBOUNDS_OUT", "errbounds_out"))
