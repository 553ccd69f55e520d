"""Run configuration: strict JSON parsing and semantic validation."""
from __future__ import annotations

import dataclasses
import json
import math
from typing import Optional, Tuple

from .fields import BoxDomain
from .manufactured import FREE_STRATEGIES, KINDS, LEVELS, PARABOLIC_KINDS
from .runner import ESTIMATORS
from .symbolic import SolutionError, parse


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
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}")


def _number(value, what: str) -> float:
    """A finite JSON number (NaN and infinities are not), else ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, what: str, positive: bool = True) -> int:
    """A positive (else nonnegative) JSON integer, else ConfigError."""
    if type(value) is not int or value < (1 if positive else 0):
        raise ConfigError(f"{what} must be a "
                          f"{'positive' if positive else 'nonnegative'} "
                          f"integer, got {value!r}")
    return value


def _axes(obj: dict, key: str, where: str) -> Tuple[float, ...]:
    value = obj[key]
    if not isinstance(value, list):
        raise ConfigError(f"{where}: {key!r} must be a list of numbers, "
                          f"got {value!r}")
    return tuple(_number(v, f"{where}: {key!r}[{i}]")
                 for i, v in enumerate(value))


def _parse_case(obj: dict, idx: int) -> CaseSpec:
    where = f"cases[{idx}]"
    _only_keys(obj, {"kind", "lower", "upper", "solution", "T", "f_scale",
                     "label"}, where)
    for key in ("kind", "lower", "upper", "solution"):
        if key not in obj:
            raise ConfigError(f"{where} is missing required key {key!r}")
    kind = obj["kind"]
    if kind not in KINDS:
        raise ConfigError(f"{where}: unknown kind {kind!r}; expected one of {KINDS}")
    lower = _axes(obj, "lower", where)
    upper = _axes(obj, "upper", where)
    if len(lower) != len(upper) or not 1 <= len(lower) <= 3:
        raise ConfigError(f"{where}: 'lower' and 'upper' must be lists of "
                          f"equal length 1, 2 or 3")
    for axis, (lo, hi) in enumerate(zip(lower, upper)):
        if not hi > lo:
            raise ConfigError(f"{where}: 'upper'[{axis}] = {hi!r} must exceed "
                              f"'lower'[{axis}] = {lo!r}")
    T = obj.get("T")
    if T is not None:
        T = _number(T, f"{where}: 'T'")
    if kind in PARABOLIC_KINDS:
        if T is None:
            raise ConfigError(f"{where}: kind {kind} requires a time horizon T")
        if T <= 0:
            raise ConfigError(f"{where}: T must be positive")
    elif T is not None:
        raise ConfigError(f"{where}: kind {kind} must not set T")
    solution = str(obj["solution"])
    try:
        parse(solution, len(lower), kind in PARABOLIC_KINDS)
    except SolutionError as exc:
        raise ConfigError(f"{where}: 'solution' {solution!r} {exc}") from None
    return CaseSpec(kind=kind, lower=lower, upper=upper, solution=solution,
                    T=T,
                    f_scale=_number(obj.get("f_scale", 1.0),
                                    f"{where}: 'f_scale'"),
                    label=str(obj.get("label", f"case{idx}")))


def _parse_approx(obj: dict, idx: int) -> ApproxSpec:
    where = f"approximations[{idx}]"
    _only_keys(obj, {"level", "epsilon", "seed"}, where)
    level = obj.get("level")
    if level not in LEVELS:
        raise ConfigError(f"{where}: unknown level {level!r}; expected one of {LEVELS}")
    if "epsilon" not in obj:
        raise ConfigError(f"{where} is missing required key 'epsilon'")
    eps = _number(obj["epsilon"], f"{where}: 'epsilon'")
    if eps < 0:
        raise ConfigError(f"{where}: epsilon must be nonnegative")
    return ApproxSpec(level=level, epsilon=eps,
                      seed=_integer(obj.get("seed", 0), f"{where}: 'seed'",
                                    positive=False))


def _parse_estimator(obj: dict, idx: int) -> EstimatorSpec:
    where = f"estimators[{idx}]"
    _only_keys(obj, {"name", "gamma", "which", "free_strategy", "basis_size"}, where)
    name = obj.get("name")
    if not isinstance(name, str) or name not in ESTIMATORS:
        raise ConfigError(
            f"{where}: unknown estimator {name!r}; expected one of "
            f"{sorted(ESTIMATORS)}")
    gamma = _number(obj.get("gamma", 2.0), f"{where}: 'gamma'")
    if gamma <= 0:
        raise ConfigError(f"{where}: gamma must be positive")
    entry = ESTIMATORS[name]
    if gamma <= entry.gamma_above:
        raise ConfigError(f"{where}: 'gamma' must exceed "
                          f"{entry.gamma_above:g} for {name}, got {gamma!r}")
    which = obj.get("which")
    allowed = entry.which
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
    basis_size = _integer(obj.get("basis_size", 4), f"{where}: 'basis_size'")
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
    space_order = _integer(quad.get("space_order", 12),
                           "quadrature: 'space_order'")
    time_order = _integer(quad.get("time_order", 12),
                          "quadrature: 'time_order'")
    tol = doc.get("tolerances", {})
    _only_keys(tol, {"equality_rel", "bound_slack"}, "tolerances")
    equality_rel = _number(tol.get("equality_rel", 1e-8),
                           "tolerances: 'equality_rel'")
    bound_slack = _number(tol.get("bound_slack", 1e-9),
                          "tolerances: 'bound_slack'")
    if not equality_rel > 0:
        raise ConfigError(f"tolerances: 'equality_rel' must be positive, "
                          f"got {equality_rel!r}")
    if not bound_slack >= 0:
        raise ConfigError(f"tolerances: 'bound_slack' must be nonnegative, "
                          f"got {bound_slack!r}")
    out = doc.get("output", {})
    _only_keys(out, {"formats"}, "output")
    formats = out.get("formats", ["json"])
    if not isinstance(formats, list):
        raise ConfigError(f"output: 'formats' must be a list, got {formats!r}")
    formats = tuple(formats)
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
