"""Run configuration: strict JSON parsing and semantic validation."""
from __future__ import annotations

import dataclasses
import json
from typing import Optional, Tuple

from .fields import BoxDomain
from .manufactured import FREE_STRATEGIES, KINDS, LEVELS, PARABOLIC_KINDS
from .runner import ESTIMATORS


class ConfigError(ValueError):
    """Raised for malformed or semantically invalid run configurations."""


@dataclasses.dataclass(frozen=True)
class CaseSpec:
    kind: str
    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    solution: str
    T: Optional[float] = None
    f_scale: float = 1.0
    label: str = ""

    def domain(self) -> BoxDomain:
        return BoxDomain(self.lower, self.upper, time_horizon=self.T)


@dataclasses.dataclass(frozen=True)
class ApproxSpec:
    level: str
    epsilon: float
    seed: int


@dataclasses.dataclass(frozen=True)
class EstimatorSpec:
    name: str
    gamma: float = 2.0
    which: Optional[str] = None
    free_strategy: str = "exact"
    basis_size: int = 4


@dataclasses.dataclass(frozen=True)
class RunConfig:
    cases: Tuple[CaseSpec, ...]
    approximations: Tuple[ApproxSpec, ...]
    estimators: Tuple[EstimatorSpec, ...]
    space_order: int = 12
    time_order: int = 12
    equality_rel: float = 1e-8
    bound_slack: float = 1e-9
    formats: Tuple[str, ...] = ("json",)


def _only_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _parse_case(obj: dict, idx: int) -> CaseSpec:
    where = f"cases[{idx}]"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _only_keys(obj, {"kind", "lower", "upper", "solution", "T", "f_scale",
                     "label"}, where)
    for key in ("kind", "lower", "upper", "solution"):
        if key not in obj:
            raise ConfigError(f"{where} is missing required key {key!r}")
    kind = obj["kind"]
    if kind not in KINDS:
        raise ConfigError(f"{where}: unknown kind {kind!r}; expected one of {KINDS}")
    lower = tuple(float(v) for v in obj["lower"])
    upper = tuple(float(v) for v in obj["upper"])
    if len(lower) != len(upper) or not lower:
        raise ConfigError(f"{where}: lower/upper must be equal-length nonempty lists")
    T = obj.get("T")
    if kind in PARABOLIC_KINDS:
        if T is None:
            raise ConfigError(f"{where}: kind {kind} requires a time horizon T")
        T = float(T)
        if T <= 0:
            raise ConfigError(f"{where}: T must be positive")
    elif T is not None:
        raise ConfigError(f"{where}: kind {kind} must not set T")
    return CaseSpec(kind=kind, lower=lower, upper=upper,
                    solution=str(obj["solution"]), T=T,
                    f_scale=float(obj.get("f_scale", 1.0)),
                    label=str(obj.get("label", f"case{idx}")))


def _parse_approx(obj: dict, idx: int) -> ApproxSpec:
    where = f"approximations[{idx}]"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _only_keys(obj, {"level", "epsilon", "seed"}, where)
    level = obj.get("level")
    if level not in LEVELS:
        raise ConfigError(f"{where}: unknown level {level!r}; expected one of {LEVELS}")
    if "epsilon" not in obj:
        raise ConfigError(f"{where} is missing required key 'epsilon'")
    eps = float(obj["epsilon"])
    if eps < 0:
        raise ConfigError(f"{where}: epsilon must be nonnegative")
    return ApproxSpec(level=level, epsilon=eps, seed=int(obj.get("seed", 0)))


def _parse_estimator(obj: dict, idx: int) -> EstimatorSpec:
    where = f"estimators[{idx}]"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    _only_keys(obj, {"name", "gamma", "which", "free_strategy", "basis_size"}, where)
    name = obj.get("name")
    if name not in ESTIMATORS:
        raise ConfigError(
            f"{where}: unknown estimator {name!r}; expected one of "
            f"{sorted(ESTIMATORS)}")
    gamma = float(obj.get("gamma", 2.0))
    if gamma <= 0:
        raise ConfigError(f"{where}: gamma must be positive")
    which = obj.get("which")
    allowed = ESTIMATORS[name].which
    if which is not None and which not in allowed:
        raise ConfigError(
            f"{where}: unknown 'which' {which!r} for {name}; "
            + (f"expected one of {allowed}" if allowed
               else "this estimator takes no 'which'"))
    free_strategy = obj.get("free_strategy", "exact")
    if free_strategy not in FREE_STRATEGIES:
        raise ConfigError(
            f"{where}: unknown 'free_strategy' {free_strategy!r}; expected "
            f"one of {FREE_STRATEGIES}")
    basis_size = obj.get("basis_size", 4)
    if type(basis_size) is not int or basis_size < 1:
        raise ConfigError(
            f"{where}: 'basis_size' must be a positive integer, got "
            f"{basis_size!r}")
    return EstimatorSpec(name=name, gamma=gamma, which=which,
                         free_strategy=free_strategy, basis_size=basis_size)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration (strict: unknown keys
    are rejected, and every estimator must apply to at least one declared
    case and approximation)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _only_keys(doc, {"cases", "approximations", "estimators", "quadrature",
                     "tolerances", "output"}, "config root")
    for key in ("cases", "approximations", "estimators"):
        if key not in doc or not isinstance(doc[key], list) or not doc[key]:
            raise ConfigError(f"config needs a nonempty list {key!r}")
    cases = tuple(_parse_case(c, i) for i, c in enumerate(doc["cases"]))
    approxs = tuple(_parse_approx(a, i)
                    for i, a in enumerate(doc["approximations"]))
    ests = tuple(_parse_estimator(e, i) for i, e in enumerate(doc["estimators"]))

    quad = doc.get("quadrature", {})
    _only_keys(quad, {"space_order", "time_order"}, "quadrature")
    space_order = int(quad.get("space_order", 12))
    time_order = int(quad.get("time_order", 12))
    if space_order < 1 or time_order < 1:
        raise ConfigError("quadrature orders must be positive")
    tol = doc.get("tolerances", {})
    _only_keys(tol, {"equality_rel", "bound_slack"}, "tolerances")
    equality_rel = float(tol.get("equality_rel", 1e-8))
    bound_slack = float(tol.get("bound_slack", 1e-9))
    if equality_rel <= 0 or bound_slack < 0:
        raise ConfigError("tolerances must be positive")
    out = doc.get("output", {})
    _only_keys(out, {"formats"}, "output")
    formats = tuple(out.get("formats", ["json"]))
    for fmt in formats:
        if fmt not in ("json", "csv", "plotdata"):
            raise ConfigError(f"unknown output format {fmt!r}")

    # cross validation: every estimator must match at least one
    # (case kind, approximation level) pair actually declared
    kinds = {c.kind for c in cases}
    levels = {a.level for a in approxs}
    for i, est in enumerate(ests):
        entry = ESTIMATORS[est.name]
        if not kinds & set(entry.kinds):
            raise ConfigError(
                f"estimators[{i}] ({est.name}) applies to kinds {entry.kinds} "
                f"but the config declares only {sorted(kinds)}")
        if not levels & set(entry.levels):
            raise ConfigError(
                f"estimators[{i}] ({est.name}) needs approximation levels "
                f"{entry.levels} but the config declares only {sorted(levels)}")
    return RunConfig(cases=cases, approximations=approxs, estimators=ests,
                     space_order=space_order, time_order=time_order,
                     equality_rel=equality_rel, bound_slack=bound_slack,
                     formats=formats)


def default_suite_config(space_order: int = 12, time_order: int = 12,
                         base_seed: int = 0, f_scale: float = 1.0,
                         n_seeds: int = 10) -> RunConfig:
    """The default verification suite: one 1-D case per problem kind,
    conforming perturbations over three magnitudes and several seeds."""
    doc = {
        "cases": [
            {"kind": "RD", "lower": [0.0], "upper": [1.0],
             "solution": "sin(pi*x)", "f_scale": f_scale, "label": "rd-sine"},
            {"kind": "Poisson", "lower": [0.0], "upper": [1.0],
             "solution": "sin(pi*x) + sin(2*pi*x)/4", "f_scale": f_scale,
             "label": "poisson-sines"},
            {"kind": "TRD", "lower": [0.0], "upper": [1.0], "T": 1.0,
             "solution": "exp(-t)*sin(pi*x)", "f_scale": f_scale,
             "label": "trd-decay"},
            {"kind": "Heat", "lower": [0.0], "upper": [1.0], "T": 1.0,
             "solution": "(1+t)*sin(pi*x)", "f_scale": f_scale,
             "label": "heat-growth"},
        ],
        "approximations": [
            {"level": "conforming_mixed", "epsilon": eps,
             "seed": base_seed + s}
            for eps in (0.01, 0.1, 1.0) for s in range(n_seeds)
        ],
        "estimators": [
            {"name": "rd_equality"},
            {"name": "poisson_two_sided", "gamma": 2.0},
            {"name": "trd_equality"},
            {"name": "heat_two_sided", "gamma": 2.0},
            {"name": "trd_isometry_check"},
            {"name": "heat_isometry_check"},
        ],
        "quadrature": {"space_order": space_order, "time_order": time_order},
    }
    return parse_config(json.dumps(doc))
