"""Tensor Gauss-Legendre quadrature and the norm/inner-product primitives.

Norms and single inner products reduce through :func:`math.fsum` over a fixed
traversal order, so they are deterministic to the last bit regardless of how
callers batch their work. :func:`l2_gram` trades fsum for one sequential
weighted sum per entry, which is as deterministic but rounds differently.
"""
from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np

from .fields import BoxDomain, CapabilityError, ConformityError, ScalarField, VectorField


@dataclasses.dataclass(frozen=True)
class QuadratureRule:
    """Per-axis Gauss-Legendre orders for space and (optionally) time."""

    space_order: int = 12
    time_order: int = 12

    def __post_init__(self):
        if self.space_order < 1 or self.time_order < 1:
            raise ValueError("quadrature orders must be at least 1")


# Each axis is integrated with a composite rule: the interval is split into
# equal panels carrying one Gauss-Legendre rule of the requested order each.
# Fixed panel counts keep node sets (and hence results) deterministic while
# resolving the oscillatory trig integrands far below the suite tolerances.
_SPACE_PANELS = 6
_TIME_PANELS = 2


@lru_cache(maxsize=None)
def _gauss_interval(order: int, lo: float, hi: float, panels: int = 1):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(a + (x + 1.0) * 0.5 * (b - a))
        ws.append(w * 0.5 * (b - a))
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# id of a cached node array -> (the array, its per-axis 1-D nodes shaped to
# broadcast against each other, repeats). Column i of the array is the
# product grid of those axes, raveled in C order and tiled ``repeats`` times
# (once per time node of a space-time set). Holding the array keeps its id
# from being reused.
_TENSOR = {}


def tensor_axes(X: np.ndarray):
    """(axes, repeats) of a node array cached by this module, else None."""
    entry = _TENSOR.get(id(X))
    return entry[1:] if entry else None


@lru_cache(maxsize=None)
def space_nodes(dom: BoxDomain, rule: QuadratureRule):
    """Spatial tensor nodes: X with shape (N, d) and weights (N,)."""
    dom = dom.spatial()
    axes = [_gauss_interval(rule.space_order, lo, hi, _SPACE_PANELS)
            for lo, hi in zip(dom.lower, dom.upper)]
    mesh = np.meshgrid(*(a[0] for a in axes), indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=1)
    wmesh = np.meshgrid(*(a[1] for a in axes), indexing="ij")
    w = np.ones(X.shape[0])
    for wm in wmesh:
        w = w * wm.ravel()
    X.setflags(write=False)
    w.setflags(write=False)
    _TENSOR[id(X)] = (X, np.ix_(*(a[0] for a in axes)), 1)
    return X, w


@lru_cache(maxsize=None)
def spacetime_nodes(dom: BoxDomain, rule: QuadratureRule):
    """Space-time tensor nodes: t (N,), X (N, d), weights (N,)."""
    if not dom.is_parabolic:
        raise ValueError("domain carries no time horizon")
    tq, wt = _gauss_interval(rule.time_order, 0.0, dom.time_horizon, _TIME_PANELS)
    Xs, ws = space_nodes(dom, rule)
    n_space = Xs.shape[0]
    t = np.repeat(tq, n_space)
    X = np.tile(Xs, (tq.shape[0], 1))
    w = (wt[:, None] * ws[None, :]).ravel()
    t.setflags(write=False)
    X.setflags(write=False)
    w.setflags(write=False)
    _TENSOR[id(X)] = (X, tensor_axes(Xs)[0], tq.shape[0])
    return t, X, w


def _fsum(arr: np.ndarray) -> float:
    return math.fsum(arr.tolist())


def _check_domain_match(field, dom: BoxDomain):
    if field.time_dependent != dom.is_parabolic:
        if dom.is_parabolic:
            raise ValueError("space-time domain requires time-dependent fields")
        raise ValueError("space-time integrand but domain has no time_horizon")
    if field.dim != dom.dim:
        raise ValueError("field dimension does not match domain")


def _quad_args(dom: BoxDomain, rule: QuadratureRule):
    if dom.is_parabolic:
        t, X, w = spacetime_nodes(dom, rule)
        return (t, X), w
    X, w = space_nodes(dom, rule)
    return (X,), w


def l2_inner(a, b, dom: BoxDomain, rule: QuadratureRule) -> float:
    """L2 inner product over the box (or the space-time cylinder)."""
    scalar = isinstance(a, ScalarField)
    if scalar != isinstance(b, ScalarField):
        raise TypeError("rank mismatch: cannot pair a scalar with a vector field")
    _check_domain_match(a, dom)
    _check_domain_match(b, dom)
    args, w = _quad_args(dom, rule)
    va = a.value(*args)
    vb = va if b is a else b.value(*args)
    if scalar:
        prod = va * vb
    else:
        prod = np.einsum("ij,ij->i", va, vb)
    return _fsum(prod * w)


def l2_gram(left, right, dom: BoxDomain, rule: QuadratureRule) -> np.ndarray:
    """Matrix of L2 inner products ``<left[i], right[j]>``.

    Each field is evaluated once into one stacked array (shared when
    ``right is left``), which a single einsum contracts with the weights.
    Without BLAS, every entry is a sequential sum over the nodes in a fixed
    order: it does not depend on the list lengths or the thread count, and
    ``(l * r) * w`` makes the matrix of ``l2_gram(f, f)`` exactly symmetric.
    Entries agree with :func:`l2_inner` to rounding, not to the last bit.
    """
    if not left or not right:
        raise ValueError("l2_gram needs nonempty field lists")
    scalar = isinstance(left[0], ScalarField)
    for f in (*left, *right):
        if isinstance(f, ScalarField) != scalar:
            raise TypeError("rank mismatch: cannot pair a scalar with a vector field")
        _check_domain_match(f, dom)
    args, w = _quad_args(dom, rule)

    def stacked(fields):
        shape = (len(fields), w.shape[0]) + (() if scalar else (dom.dim,))
        out = np.empty(shape)
        for i, f in enumerate(fields):
            out[i] = f.value(*args)
        return out

    L = stacked(left)
    R = L if right is left else stacked(right)
    return np.einsum("ik,jk,k->ij" if scalar else "ikc,jkc,k->ij", L, R, w)


def norm_sq(kind: str, w, dom: BoxDomain, rule: QuadratureRule) -> float:
    """Squared norm of the requested kind; composites sum their constituents.

    Kinds: ``L2``, ``H1`` (also aliased ``H01`` on space-time domains),
    ``Hdiv``, ``V``, ``H11``, ``Wstar`` (the combined space-time
    reaction-diffusion norm) and ``triple`` (the heat-equation norm).
    """
    k = kind.lower()
    if k == "l2":
        return l2_inner(w, w, dom, rule)
    if k in ("h1", "h01"):
        return math.fsum([norm_sq("L2", w, dom, rule),
                          norm_sq("L2", w.gradient_field(), dom, rule)])
    if k == "hdiv":
        if not isinstance(w, VectorField):
            raise TypeError("Hdiv norm requires a vector field")
        return math.fsum([norm_sq("L2", w, dom, rule),
                          norm_sq("L2", w.div_field(), dom, rule)])
    if k == "v":
        return math.fsum([norm_sq("L2", w, dom, rule),
                          2.0 * norm_sq("L2", w.gradient_field(), dom, rule),
                          norm_sq("L2", w.laplacian_field(), dom, rule)])
    if k == "h11":
        return math.fsum([norm_sq("H1", w, dom, rule),
                          norm_sq("L2", w.dt_field(), dom, rule)])
    if k == "wstar":
        return math.fsum([norm_sq("H11", w, dom, rule),
                          norm_sq("Hdiv", w.gradient_field(), dom, rule),
                          trace_norm_sq(w, dom.time_horizon, "H1", dom, rule)])
    if k == "triple":
        return math.fsum([norm_sq("L2", w.dt_field(), dom, rule),
                          norm_sq("L2", w.laplacian_field(), dom, rule),
                          trace_norm_sq(w, dom.time_horizon, "gradient", dom, rule)])
    raise ValueError(f"unknown norm kind: {kind!r}")


def trace_norm_sq(w, at: float, variant: str, dom: BoxDomain,
                  rule: QuadratureRule) -> float:
    """Spatial norm of a time slice of a space-time field."""
    if not dom.is_parabolic:
        raise ValueError("trace norms require a space-time domain")
    if not 0.0 <= at <= dom.time_horizon:
        raise ValueError("slice time outside [0, T]")
    sliced = w.at_time(at)
    space = dom.spatial()
    v = variant.lower()
    if v == "value":
        return norm_sq("L2", sliced, space, rule)
    if isinstance(w, VectorField):
        raise ValueError("only the value variant applies to vector fields")
    if v == "gradient":
        return norm_sq("L2", sliced.gradient_field(), space, rule)
    if v == "h1":
        return norm_sq("H1", sliced, space, rule)
    raise ValueError(f"unknown trace variant: {variant!r}")


def timecross_check(w, dom: BoxDomain, rule: QuadratureRule) -> float:
    """Residual of 2<dt w, w> = ||w(T)||^2 - ||w(0)||^2."""
    if not dom.is_parabolic:
        raise ValueError("timecross identity requires a space-time domain")
    if not w.has_dt:
        raise CapabilityError("field carries no time-derivative evaluator")
    if isinstance(w, ScalarField):
        dt_field = w.dt_field()
    else:
        dt_field = VectorField(w._dt, dim=w.dim, time_dependent=True)
    pairing = 2.0 * l2_inner(dt_field, w, dom, rule)
    lhs_T = trace_norm_sq(w, dom.time_horizon, "value", dom, rule)
    lhs_0 = trace_norm_sq(w, 0.0, "value", dom, rule)
    return abs(pairing - lhs_T + lhs_0)


def partint_residual(u: ScalarField, psi: VectorField, dom: BoxDomain,
                     rule: QuadratureRule) -> float:
    """Residual of the integration-by-parts identity <grad u, psi> = -<u, div psi>."""
    if not u.vanishes_on_boundary:
        raise ConformityError("u must vanish on the boundary")
    if not u.has_grad:
        raise CapabilityError("u carries no gradient evaluator")
    if not psi.has_div:
        raise CapabilityError("psi carries no divergence evaluator")
    lhs = l2_inner(u.gradient_field(), psi, dom, rule)
    rhs = l2_inner(u, psi.div_field(), dom, rule)
    return abs(lhs + rhs)
