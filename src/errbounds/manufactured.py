"""Manufactured problem cases and controlled approximation pairs.

Exact solutions are solution text (see :func:`symbolic.parse`) or sympy
expressions; the data f is produced by applying the model operator
symbolically, and u0 is u at t = 0.  Perturbations are
finite trigonometric sums with closed-form derivatives, so every conformity
level is exact by construction.
"""
from __future__ import annotations

import copy
import dataclasses
import functools
import itertools
import math
from typing import List, Optional

import numpy as np

from .fields import (BoxDomain, ConformityError, Factor, ScalarField,
                     SeparatedSum, VectorField, _empty, _lazy, scalar_forms,
                     trig_factor, vector_forms)
from .quadrature import QuadratureRule, form_values, norm_sq
from .symbolic import (_expression, _memoised, data_field, derivatives,
                       nonvanishing_face, scalar_field)

KINDS = ("RD", "Poisson", "TRD", "Heat")
PARABOLIC_KINDS = ("TRD", "Heat")
LEVELS = ("very_conforming", "conforming_mixed", "semi_conforming_primal",
          "semi_conforming_dual", "non_conforming")


@dataclasses.dataclass(frozen=True)
class ProblemCase:
    """One model problem with manufactured data and exact solution pair."""

    kind: str
    dom: BoxDomain
    f: ScalarField
    u0: Optional[ScalarField]
    exact_u: ScalarField
    exact_p: VectorField


@dataclasses.dataclass(frozen=True)
class ApproxPair:
    """An approximation pair at a declared conformity level."""

    u_tilde: ScalarField
    p_tilde: VectorField
    level: str


# how many of the latest cases, direction sets and flux bases a process keeps
CASE_MEMO = 64
DIRECTIONS_MEMO = 256
FLUX_BASIS_MEMO = 16


@functools.partial(_memoised, maxsize=CASE_MEMO)
def make_case(kind: str, dom: BoxDomain, u_expr, f_factor: float = 1.0) -> ProblemCase:
    """Manufacture a case: p = grad u and f = (operator) u, symbolically.

    ``f_factor`` rescales the source, deliberately breaking the case; it
    exists so data defects can be injected and detected downstream. Cases
    never change: one per (kind, box, solution, f_factor) is shared among
    the :data:`CASE_MEMO` latest, keyed as by :func:`symbolic._memoised`.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind: {kind!r}")
    parabolic = kind in PARABOLIC_KINDS
    if parabolic and not dom.is_parabolic:
        raise ValueError(f"{kind} requires a domain with a time horizon")
    if not parabolic and dom.is_parabolic:
        raise ValueError(f"{kind} requires a domain without a time horizon")
    expr = _expression(u_expr, dom.dim, parabolic)
    _, lap, dt = derivatives(expr, dom.dim, parabolic)
    # f = (dt u) - lap u (+ u for the reaction-diffusion kinds)
    f_expr = ((dt if parabolic else 0) - lap
              + (expr if kind in ("RD", "TRD") else 0))
    u = scalar_field(expr, dom)
    if not u.vanishes_on_boundary:
        raise ConformityError("manufactured solution must vanish on the "
                              "boundary; it does not on the face "
                              f"{nonvanishing_face(expr, dom)}")
    u0 = u.at_time(0.0) if parabolic else None
    # the estimators only evaluate f, so it carries no derivatives
    f = data_field(float(f_factor) * f_expr, dom.dim, parabolic)
    return ProblemCase(kind=kind, dom=dom, f=f, u0=u0, exact_u=u,
                       exact_p=u.gradient_field())


# ---------------------------------------------------------------------------
# trigonometric perturbation family
# ---------------------------------------------------------------------------

def _modes(dim: int, n: int):
    """First n spatial mode tuples of positive integers, ordered by their
    sum and then lexicographically, so the first n are the first n of any
    longer list."""
    # comb(s, dim) tuples have a sum of at most s; none has a part above
    # s - dim + 1
    s = dim
    while math.comb(s, dim) < n:
        s += 1
    candidates = itertools.product(range(1, s - dim + 2), repeat=dim)
    return sorted((m for m in candidates if sum(m) <= s),
                  key=lambda m: (sum(m), m))[:n]


def _poly_factor(p: np.ndarray) -> Factor:
    """The factor of the time polynomial with coefficients ``p``, lowest
    first."""
    def derive():
        der = np.polynomial.polynomial.polyder(p)
        return ((1.0, _poly_factor(der)),) if der.any() else ()

    return Factor(lambda t: np.polynomial.polynomial.polyval(t, p), derive)


def _read_only(coefs) -> np.ndarray:
    """A read-only float copy of ``coefs``: the coefficients of a sum never
    change, so the evaluators and the forms of its views always agree."""
    out = np.array(coefs, dtype=float)
    out.flags.writeable = False
    return out


class _TrigSum:
    """sum_k c_k tau_k(t) prod_i trig(m_i pi (x_i-lo_i)/L_i) with closed-form
    derivatives.  ``funcs`` selects sin or cos per axis per term. Its field
    views carry their separated forms, one term per k with the factors
    tau_k (on a space-time box) and the trig factors, and evaluate them
    (see :func:`quadrature.form_values`)."""

    def __init__(self, coefs, modes, funcs, tpolys, dom: BoxDomain):
        self.coefs = _read_only(coefs)
        self.modes = [tuple(m) for m in modes]
        self.funcs = [tuple(f) for f in funcs]
        self.tpolys = [np.asarray(p, dtype=float) for p in tpolys]
        self.dom = dom
        # per term: its factors in the axis order of a separated form
        tfactors = ([(_poly_factor(p),) for p in self.tpolys]
                    if dom.is_parabolic else [()] * len(self.modes))
        self._factors = [tf + tuple(trig_factor(f, m * np.pi / side, lo)
                                    for f, m, side, lo in
                                    zip(funcs, mode, dom.sides, dom.lower))
                         for tf, funcs, mode in zip(tfactors, self.funcs,
                                                    self.modes)]

    @property
    def vanishes(self) -> bool:
        return all(all(f == "sin" for f in fs) for fs in self.funcs)

    # field views ----------------------------------------------------------
    def _forms(self) -> dict:
        """The forms of the evaluators (see :func:`fields.scalar_forms`),
        from the coefficients, which are read-only (see :func:`_normalized`)."""
        value = SeparatedSum(self.coefs.tolist(), self._factors)
        return scalar_forms(lambda: value, self.dom.dim, self.dom.is_parabolic)

    def _view(self, rank, forms: dict, vanishes: bool = False):
        """The field of ``rank`` with the forms ``forms``, each evaluator
        evaluating its form; none of them ``dt`` on an elliptic box."""
        dim, td = self.dom.dim, self.dom.is_parabolic
        ev = {k: functools.partial(_evaluate, f, dim)
              for k, f in forms.items() if td or k != "dt"}
        return rank._from_maps(ev, dim, td, vanishes, forms)

    def scalar_field(self) -> ScalarField:
        return self._view(ScalarField, self._forms(), self.vanishes)

    def gradient_field(self) -> VectorField:
        return self._view(VectorField, vector_forms(
            self._forms()["grad"], self.dom.is_parabolic))

    def rotgrad_field(self) -> VectorField:
        """Rotated gradient (-d/dy, d/dx): divergence-free, d = 2 only. Its
        form permutes and negates the gradient's; its divergence's form is
        the empty sum."""
        if self.dom.dim != 2:
            raise ValueError("rotated gradients require d = 2")
        grad = vector_forms(self._forms()["grad"], self.dom.is_parabolic)

        def rotated(form):
            return _lazy(lambda: (SeparatedSum.combination([form()[1]], [-1.0]),
                                  form()[0]))

        return self._view(VectorField, {"value": rotated(grad["value"]),
                                        "div": _empty,
                                        "dt": rotated(grad["dt"])})


def _evaluate(form, dim: int, *args) -> np.ndarray:
    """The evaluator of a form: its values at the nodes ``args``."""
    return form_values(form(), args, dim)


def _random_trig(dom: BoxDomain, rng, n_terms: int = 3,
                 nonconforming: bool = False) -> _TrigSum:
    pool = _modes(dom.dim, n_terms + 4)
    idx = rng.choice(len(pool), size=n_terms, replace=False)
    modes = [pool[i] for i in sorted(idx)]
    funcs = [("sin",) * dom.dim for _ in modes]
    coefs = rng.standard_normal(n_terms)
    if dom.is_parabolic:
        tpolys = [rng.uniform(-1.0, 1.0, size=3) for _ in modes]
    else:
        tpolys = [np.array([1.0]) for _ in modes]
    if nonconforming:
        # a cosine along the first axis genuinely leaves the boundary-vanishing class
        modes = modes + [modes[0]]
        funcs = funcs + [("cos",) + ("sin",) * (dom.dim - 1)]
        coefs = np.append(coefs, 1.0)
        tpolys = tpolys + [tpolys[0]]
    return _TrigSum(coefs, modes, funcs, tpolys, dom)


_NORMALIZE_RULE = QuadratureRule(space_order=12, time_order=12)


def _normalized(ts: _TrigSum) -> _TrigSum:
    """A copy of ``ts`` scaled to unit L2 norm. It shares the factors of
    ``ts``, which the coefficients do not enter; ``ts`` and
    the field views made from it keep their coefficients."""
    out = copy.copy(ts)
    out.coefs = _read_only(ts.coefs / math.sqrt(
        norm_sq("L2", ts.scalar_field(), ts.dom, _NORMALIZE_RULE)))
    return out


def _flux_noise(dom: BoxDomain, rng) -> VectorField:
    """Divergence-known vector noise: a gradient, plus a rotated gradient
    (divergence-free) when d = 2."""
    g = _normalized(_random_trig(dom, rng, nonconforming=True))
    field = g.gradient_field()
    if dom.dim == 2:
        r = _normalized(_random_trig(dom, rng))
        field = field + r.rotgrad_field()
    return field


@dataclasses.dataclass(frozen=True)
class Directions:
    """The seeded perturbation directions of one box: normalised
    conforming and non-conforming scalar sums and the flux noise. The
    non-conforming sum is drawn with the others, so the draws keep their
    order, but normalised only when first asked for: the default workloads
    never ask, and its norm would cost them a few per cent of a pass."""

    conforming: _TrigSum
    _drawn: _TrigSum
    flux: VectorField

    @functools.cached_property
    def nonconforming(self) -> _TrigSum:
        return _normalized(self._drawn)


def _build_directions(dom: BoxDomain, seed: int) -> Directions:
    rng = np.random.default_rng(seed)
    conforming = _normalized(_random_trig(dom, rng))
    nonconforming = _random_trig(dom, rng, nonconforming=True)
    return Directions(conforming, nonconforming, _flux_noise(dom, rng))


@functools.lru_cache(maxsize=DIRECTIONS_MEMO)
def directions(dom: BoxDomain, seed: int) -> Directions:
    """The directions of ``(dom, seed)``, built at their first use and
    shared by every case on the box, in this run and later ones, while they
    are among the :data:`DIRECTIONS_MEMO` latest. They never change: their
    sums' coefficients are read-only and their fields have no mutators."""
    return _build_directions(dom, seed)


def perturb(case: ProblemCase, level: str, scale: float, seed: int) -> ApproxPair:
    """Exact pair plus ``scale`` times a seeded analytic perturbation.

    The perturbation is linear in ``scale``; capabilities of the returned
    fields are restricted to exactly the level's contract. The directions
    depend on the box and the seed only (see :func:`directions`).
    """
    if level not in LEVELS:
        raise ValueError(f"unknown approximation level: {level!r}")
    if scale < 0:
        raise ValueError("scale must be non-negative")
    dirs = directions(case.dom, seed)
    du_sum, dp = dirs.conforming, dirs.flux
    du_conf = du_sum.scalar_field()

    u, p = case.exact_u, case.exact_p
    if level == "very_conforming":
        u_t = u + scale * du_conf
        p_t = p + scale * du_sum.gradient_field()
    elif level == "conforming_mixed":
        u_t = (u + scale * du_conf).restricted(grad=True, dt=True,
                                               boundary_flag=True)
        p_t = p + scale * dp
    elif level == "semi_conforming_primal":
        u_t = (u + scale * du_conf).restricted(grad=True, dt=True,
                                               boundary_flag=True)
        p_t = (p + scale * dp).restricted()
    elif level == "semi_conforming_dual":
        u_t = (u + scale * dirs.nonconforming.scalar_field()).restricted()
        p_t = p + scale * dp
    else:  # non_conforming
        u_t = (u + scale * dirs.nonconforming.scalar_field()).restricted()
        p_t = (p + scale * dp).restricted()
    return ApproxPair(u_t, p_t, level)


FREE_STRATEGIES = ("exact", "coarse", "basis")


def free_fields(case: ProblemCase, strategy: str = "exact", index: int = 0):
    """A conforming (scalar, flux) pair for the free fields of the
    non-conforming and semi-conforming bounds."""
    if strategy == "exact":
        return case.exact_u, case.exact_p
    if strategy == "coarse":
        return 0.9 * case.exact_u, 0.9 * case.exact_p
    if strategy == "basis":
        dom = case.dom
        mode = _modes(dom.dim, index + 1)[index]
        tpoly = [np.array([1.0, 1.0])] if dom.is_parabolic else [np.array([1.0])]
        ts = _TrigSum([1.0], [mode], [("sin",) * dom.dim], tpoly, dom)
        return ts.scalar_field(), ts.gradient_field()
    raise ValueError(f"unknown free-field strategy: {strategy!r}")


# box -> the fields of its nested flux basis built so far, which flux_basis
# extends, for the FLUX_BASIS_MEMO latest boxes
_flux_fields = functools.lru_cache(maxsize=FLUX_BASIS_MEMO)(lambda dom: [])


def flux_basis(dom: BoxDomain, n: int) -> List[VectorField]:
    """Nested div-conforming flux basis: gradients of the first n sine
    modes, the first n fields of one list per box (see :func:`_flux_fields`),
    so bases of every size on one box share their field objects."""
    if n < 1:
        raise ValueError("basis size must be positive")
    fields = _flux_fields(dom)
    tpoly = [np.array([1.0])]
    for mode in _modes(dom.dim, n)[len(fields):]:
        ts = _TrigSum([1.0], [mode], [("sin",) * dom.dim], tpoly, dom)
        fields.append(ts.gradient_field())
    return fields[:n]
