"""Manufactured problem cases and controlled approximation pairs.

Exact solutions are solution text (see :func:`symbolic.parse`) or sympy
expressions; the data f is produced by applying the model operator
symbolically, and u0 is u at t = 0.  Perturbations and flux bases are
finite trigonometric sums with closed-form derivatives, so every conformity
level is exact by construction. They are plain separated sums
(:class:`fields.SeparatedSum`), and their fields, made by
:func:`fields.form_field`, evaluate their forms.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import List, Optional

import numpy as np

from .fields import (BoxDomain, ConformityError, Factor, ScalarField,
                     SeparatedSum, VectorField, _empty, combination,
                     form_field, gradient_form, trig_factor)
from .quadrature import QuadratureRule, norm_sq
from .symbolic import (_expression, _memoised, data_field, derivatives,
                       nonvanishing_face, scalar_field)

KINDS = ("RD", "Poisson", "TRD", "Heat")
PARABOLIC_KINDS = ("TRD", "Heat")
# the contract of each conformity level: the capabilities u_tilde and
# p_tilde keep, with "boundary_flag" where u_tilde keeps its flag (see
# fields.combination); None keeps all they have
_PRIMAL = frozenset({"value", "grad", "dt", "boundary_flag"})
_VALUE = frozenset({"value"})
_KEEPS = {
    "very_conforming": (None, None),
    "conforming_mixed": (_PRIMAL, None),
    "semi_conforming_primal": (_PRIMAL, _VALUE),
    "semi_conforming_dual": (_VALUE, None),
    "non_conforming": (_VALUE, _VALUE),
}
LEVELS = tuple(_KEEPS)


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


# how many of the latest cases (and free-field pairs), direction sets and
# flux bases a process keeps
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


def _trig_sum(coefs, modes, funcs, tpolys, dom: BoxDomain) -> SeparatedSum:
    """sum_k c_k tau_k(t) prod_i trig(m_i pi (x_i-lo_i)/L_i) as a separated
    sum: one term per k with the factors tau_k (on a space-time box) and
    the trig factors. ``funcs`` selects sin or cos per axis per term."""
    tfactors = ([(_poly_factor(np.asarray(p, dtype=float)),) for p in tpolys]
                if dom.is_parabolic else [()] * len(modes))
    return SeparatedSum(
        [float(c) for c in coefs],
        [tf + tuple(trig_factor(f, m * np.pi / side, lo)
                    for f, m, side, lo in zip(fs, mode, dom.sides, dom.lower))
         for tf, fs, mode in zip(tfactors, funcs, modes)])


def _scalar(s: SeparatedSum, dom: BoxDomain,
            vanishes: bool = False) -> ScalarField:
    """The scalar field of the sum ``s``, with gradient, Laplacian and (on a
    space-time box) time derivative."""
    return form_field(ScalarField, {"value": lambda: s}, dom, vanishes)


def _gradient(s: SeparatedSum, dom: BoxDomain) -> VectorField:
    """The gradient of the sum ``s``, with divergence (its Laplacian) and
    (on a space-time box) time derivative."""
    return form_field(VectorField, {"value": lambda: gradient_form(
        s, dom.dim, dom.is_parabolic)}, dom)


def _rotgrad(s: SeparatedSum, dom: BoxDomain) -> VectorField:
    """Rotated gradient (-d/dy, d/dx) of the sum ``s``: divergence-free,
    d = 2 only. Its form permutes and negates the gradient's; its
    divergence's form is the empty sum."""
    if dom.dim != 2:
        raise ValueError("rotated gradients require d = 2")

    def rotated():
        gx, gy = gradient_form(s, 2, dom.is_parabolic)
        return SeparatedSum.combination([gy], [-1.0]), gx

    return form_field(VectorField, {"value": rotated, "div": _empty}, dom)


def _random_trig(dom: BoxDomain, rng, n_terms: int = 3,
                 nonconforming: bool = False) -> SeparatedSum:
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
    return _trig_sum(coefs, modes, funcs, tpolys, dom)


_NORMALIZE_RULE = QuadratureRule(space_order=12, time_order=12)


def _normalized(s: SeparatedSum, dom: BoxDomain) -> SeparatedSum:
    """The sum ``s`` scaled to unit L2 norm: each coefficient divided by the
    norm, the factors shared."""
    norm = math.sqrt(norm_sq("L2", _scalar(s, dom), dom, _NORMALIZE_RULE))
    return SeparatedSum([c / norm for c in s.coefs], s.factors)


def _flux_noise(dom: BoxDomain, rng) -> VectorField:
    """Divergence-known vector noise: a gradient, plus a rotated gradient
    (divergence-free) when d = 2."""
    field = _gradient(_normalized(
        _random_trig(dom, rng, nonconforming=True), dom), dom)
    if dom.dim == 2:
        field = field + _rotgrad(_normalized(_random_trig(dom, rng), dom), dom)
    return field


@dataclasses.dataclass(frozen=True)
class Directions:
    """The seeded perturbation directions of one box: the normalised
    conforming scalar field and its gradient, the non-conforming scalar
    field and the flux noise. The non-conforming sum is drawn with the
    others, so the draws keep their order, but normalised only when first
    asked for: the default workloads never ask, and its norm would cost
    them a few per cent of a pass."""

    conforming: ScalarField
    gradient: VectorField
    _drawn: SeparatedSum
    flux: VectorField
    dom: BoxDomain

    @functools.cached_property
    def nonconforming(self) -> ScalarField:
        return _scalar(_normalized(self._drawn, self.dom), self.dom)

    def at(self, level: str):
        """The scalar and flux directions that :func:`perturb` adds at
        ``level``."""
        du = (self.nonconforming if level in ("semi_conforming_dual",
                                              "non_conforming")
              else self.conforming)
        return du, self.gradient if level == "very_conforming" else self.flux


def _build_directions(dom: BoxDomain, seed: int) -> Directions:
    rng = np.random.default_rng(seed)
    conforming = _normalized(_random_trig(dom, rng), dom)
    nonconforming = _random_trig(dom, rng, nonconforming=True)
    return Directions(_scalar(conforming, dom, True),
                      _gradient(conforming, dom), nonconforming,
                      _flux_noise(dom, rng), dom)


@functools.lru_cache(maxsize=DIRECTIONS_MEMO)
def directions(dom: BoxDomain, seed: int) -> Directions:
    """The directions of ``(dom, seed)``, built at their first use and
    shared by every case on the box, in this run and later ones, while they
    are among the :data:`DIRECTIONS_MEMO` latest. They never change: sums
    and fields have no mutators."""
    return _build_directions(dom, seed)


def perturb(case: ProblemCase, level: str, scale: float, seed: int) -> ApproxPair:
    """Exact pair plus ``scale`` times a seeded analytic perturbation.

    The perturbation is linear in ``scale``. Each of u_tilde and p_tilde is
    one node, the exact field plus ``scale`` times its direction
    (:func:`fields.combination`), carrying exactly the level's capabilities
    (:data:`_KEEPS`). The directions depend on the box and the seed only
    (see :func:`directions`).
    """
    if level not in LEVELS:
        raise ValueError(f"unknown approximation level: {level!r}")
    if not 0.0 <= scale < math.inf:
        raise ValueError(f"scale must be finite and nonnegative, got {scale}")
    du, dp = directions(case.dom, seed).at(level)
    keep_u, keep_p = _KEEPS[level]
    return ApproxPair(combination([case.exact_u, du], [1.0, scale], keep_u),
                      combination([case.exact_p, dp], [1.0, scale], keep_p),
                      level)


FREE_STRATEGIES = ("exact", "coarse", "basis")


def free_fields(case: ProblemCase, strategy: str = "exact", index: int = 0):
    """A conforming (scalar, flux) pair for the free fields of the
    non-conforming and semi-conforming bounds: the exact pair, 0.9 times
    it (``coarse``), or the ``index``-th sine mode of the box, times
    ``1 + t`` on a space-time box, and its gradient (``basis``). Equal
    arguments give the same fields, kept for the :data:`CASE_MEMO` latest
    arguments, so each of their forms is built once."""
    if strategy not in FREE_STRATEGIES:
        raise ValueError(f"unknown free-field strategy: {strategy!r}")
    if index < 0:
        raise ValueError(f"free-field index must be nonnegative, got {index}")
    if strategy == "exact":
        return case.exact_u, case.exact_p
    return _free_fields(case, strategy, index)


@functools.lru_cache(maxsize=CASE_MEMO)
def _free_fields(case: ProblemCase, strategy: str, index: int):
    if strategy == "coarse":
        return 0.9 * case.exact_u, 0.9 * case.exact_p
    dom = case.dom
    mode = _modes(dom.dim, index + 1)[index]
    tpoly = [np.array([1.0, 1.0])] if dom.is_parabolic else [np.array([1.0])]
    s = _trig_sum([1.0], [mode], [("sin",) * dom.dim], tpoly, dom)
    return _scalar(s, dom, True), _gradient(s, dom)


@functools.lru_cache(maxsize=FLUX_BASIS_MEMO)
def _flux_fields(dom: BoxDomain, n: int):
    """The n fields of the flux basis of ``dom``, built once for the
    :data:`FLUX_BASIS_MEMO` latest (box, size) pairs. Bases of different
    sizes are different fields, but their forms share the interned trig
    factors, and with them the plans of their integrals."""
    tpoly = [np.array([1.0])]
    return tuple(_gradient(_trig_sum([1.0], [mode], [("sin",) * dom.dim],
                                     tpoly, dom), dom)
                 for mode in _modes(dom.dim, n))


def flux_basis(dom: BoxDomain, n: int) -> List[VectorField]:
    """Nested div-conforming flux basis: gradients of the first n sine
    modes (see :func:`_flux_fields`)."""
    if n < 1:
        raise ValueError("basis size must be positive")
    return list(_flux_fields(dom, n))
