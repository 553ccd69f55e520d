"""Tensor Gauss-Legendre quadrature and the norm/inner-product primitives.

:func:`l2_inner`, and through it :func:`norm_sq` and :func:`trace_norm_sq`,
integrates two fields that both carry a separated form (see
:mod:`errbounds.fields`) without visiting the grid: per axis one
:func:`weighted_gram` of the factor values at that axis's composite Gauss
nodes (:func:`axis_rules`), the axis Grams multiplied elementwise, and one
correctly rounded sum of c_k c_l H_kl. That is the tensor rule's own value,
at O(R^2 d n) cost for rank R instead of O(n^d). Any operand without a
form (a field built from bare callables, or from an expression that does
not split) is evaluated at every node instead; that path is the general
fallback and the oracle of the tests.

Both paths reduce through a correctly rounded sum, equal to
:func:`math.fsum` bit for bit (see :func:`_fsum`), so they are
deterministic to the last bit regardless of how callers batch their work.
:func:`l2_gram` trades it for one sequential weighted sum per entry, which
is as deterministic but rounds differently: the same kernel,
:func:`weighted_gram`, contracts the flat sample rows of :func:`samples`
for both ranks, a vector row carrying the node weights repeated per
component. Fields evaluate on the cached node sets through the
per-coordinate axes of :func:`grid_axes`.
"""
from __future__ import annotations

import dataclasses
import math
from functools import lru_cache

import numpy as np

from .fields import BoxDomain, ScalarField, VectorField


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


# ids of the arrays of a cached node set, ``(X,)`` or ``(t, X)`` -> (those
# arrays, their per-coordinate axes, the grid shape). The axes, time first,
# are the 1-D nodes shaped to broadcast against each other; the grid they
# broadcast to, raveled in C order, is the node order of the arrays. Holding
# the arrays keeps their ids from being reused.
_GRIDS = {}


def grid_axes(args):
    """The broadcast axes of the node set whose cached arrays are ``args``,
    ``(X,)`` of :func:`space_nodes` or ``(t, X)`` of
    :func:`spacetime_nodes`; None for any other arrays, copies included."""
    entry = _GRIDS.get(tuple(map(id, args)))
    return entry[1] if entry else None


def coordinates(args, dim: int):
    """The coordinates of the nodes ``args``, ``(X,)`` or ``(t, X)``, time
    first, and the shape they broadcast to: the axes of :func:`grid_axes`
    and the grid shape on a cached node set, else t, the first ``dim``
    columns of X and (N,). Values of that shape, raveled, are in the node
    order of ``args``."""
    entry = _GRIDS.get(tuple(map(id, args)))
    if entry:
        return entry[1:]
    coords = (*args[:-1], *args[-1][:, :dim].T)
    return coords, np.broadcast_shapes(*(np.shape(c) for c in coords))


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
    _GRIDS[(id(X),)] = ((X,), np.ix_(*(a[0] for a in axes)), mesh[0].shape)
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
    _GRIDS[(id(t), id(X))] = ((t, X), np.ix_(
        tq, *(a.ravel() for a in grid_axes((Xs,)))),
        (tq.shape[0], *_GRIDS[(id(Xs),)][2]))
    return t, X, w


# Below this length math.fsum over a list beats the vectorised exact sum.
_FSUM_MIN_LENGTH = 2048
# The bins of the exact sum below stay exact up to this length: each part
# is an integer of magnitude at most 2**27, so no bin exceeds 2**53.
_FSUM_MAX_LENGTH = 2 ** 26


def _fsum(arr: np.ndarray) -> float:
    """The correctly rounded sum of ``arr``: ``math.fsum(arr.tolist())``.

    Long finite arrays are summed exactly without a Python loop over the
    entries (after Neal, arXiv:1505.05571): each entry is m * 2**(e-53) with
    an integer significand m, |m| < 2**53, split exactly into a high part
    (m // 2**26) and a low part (its remainder). ``np.bincount`` sums each
    part per exponent e exactly, the bins are combined in Python ints, and
    the total is rounded once by int division. Everything else, and an
    exact zero total (whose sign fsum decides), goes to ``math.fsum``. The
    one difference: where fsum raises on an intermediate overflow although
    the total is finite, this returns the total.
    """
    if (_FSUM_MIN_LENGTH <= arr.size <= _FSUM_MAX_LENGTH
            and np.isfinite(arr).all()):
        frac, exp = np.frexp(arr)
        hi = np.floor(frac * 2.0 ** 27)
        lo = frac * 2.0 ** 53 - hi * 2.0 ** 26
        e0 = int(exp.min())
        bins = exp - e0
        total = 0
        for k, (h, l) in enumerate(zip(np.bincount(bins, weights=hi).tolist(),
                                       np.bincount(bins, weights=lo).tolist())):
            if h or l:
                total += ((int(h) << 26) + int(l)) << k
        if total:
            shift = e0 - 53
            return float(total << shift) if shift >= 0 else total / (1 << -shift)
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


def samples(fields, dom: BoxDomain, rule: QuadratureRule):
    """The values of ``fields``, all of one rank, at the nodes of ``dom``,
    one flat row per field, and the weights of a row's entries.

    A row is the field's values in node order, a vector field's ``(N, d)``
    values raveled so that a node's components are adjacent; its weights
    are the node weights, repeated per component for vectors. So
    :func:`weighted_gram` contracts rows of both ranks alike.
    """
    if not fields:
        raise ValueError("need a nonempty field list")
    scalar = isinstance(fields[0], ScalarField)
    for f in fields:
        if isinstance(f, ScalarField) != scalar:
            raise TypeError("rank mismatch: cannot pair a scalar with a vector field")
        _check_domain_match(f, dom)
    args, w = _quad_args(dom, rule)
    width = 1 if scalar else dom.dim
    rows = np.empty((len(fields), w.shape[0] * width))
    for i, f in enumerate(fields):
        rows[i] = f.value(*args).ravel()
    return rows, (w if scalar else np.repeat(w, width))


def weighted_gram(L: np.ndarray, R: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``G[i, j] = sum_k (L[i, k] * R[j, k]) * w[k]`` over sample rows of
    one rank and their weights (see :func:`samples`).

    One einsum without BLAS: every entry is a sequential sum over the row
    in a fixed order, so it does not depend on how many rows either side
    has or on the thread count, and ``(l * r) * w`` makes ``G`` exactly
    symmetric when ``R is L``.
    """
    return np.einsum("ik,jk,k->ij", L, R, w)


def sampled_inner(va: np.ndarray, vb: np.ndarray, w: np.ndarray) -> float:
    """The L2 inner product of two fields from their values at the nodes,
    ``(N,)`` for scalars or ``(N, d)`` for vectors, and the node weights:
    the correctly rounded sum of :func:`l2_inner`."""
    prod = va * vb if va.ndim == 1 else np.einsum("ij,ij->i", va, vb)
    return _fsum(prod * w)


def l2_inner(a, b, dom: BoxDomain, rule: QuadratureRule) -> float:
    """L2 inner product over the box (or the space-time cylinder): by
    :func:`separated_inner` when both fields carry a separated form (see
    :meth:`fields._Field.separated`), else on the full node grid."""
    if isinstance(a, ScalarField) != isinstance(b, ScalarField):
        raise TypeError("rank mismatch: cannot pair a scalar with a vector field")
    _check_domain_match(a, dom)
    _check_domain_match(b, dom)
    fa = a.separated()
    fb = fa if b is a else b.separated()
    if fa is not None and fb is not None:
        return separated_inner(fa, fb, dom, rule)
    return _grid_inner(a, b, dom, rule)


def _grid_inner(a, b, dom: BoxDomain, rule: QuadratureRule) -> float:
    """:func:`l2_inner` from the values of both fields at every node."""
    args, w = _quad_args(dom, rule)
    va = a.value(*args)
    vb = va if b is a else b.value(*args)
    return sampled_inner(va, vb, w)


@lru_cache(maxsize=None)
def axis_rules(dom: BoxDomain, rule: QuadratureRule):
    """The 1-D composite rules ``(nodes, weights)`` whose tensor product is
    the node set of ``dom``, time first: the per-axis arrays of
    :func:`space_nodes` and :func:`spacetime_nodes`."""
    axes = tuple(_gauss_interval(rule.space_order, lo, hi, _SPACE_PANELS)
                 for lo, hi in zip(dom.lower, dom.upper))
    if dom.is_parabolic:
        axes = (_gauss_interval(rule.time_order, 0.0, dom.time_horizon,
                                _TIME_PANELS),) + axes
    return axes


def separated_inner(fa, fb, dom: BoxDomain, rule: QuadratureRule) -> float:
    """The tensor rule's value of the L2 inner product of two separated
    forms, a :class:`fields.SeparatedSum` each or tuples of them, one per
    component, without visiting the grid (sum factorisation): per component
    and axis, one :func:`weighted_gram` of the factor values at that axis's
    nodes, the axis Grams multiplied elementwise in axis order into H, and
    one correctly rounded sum of c_k c_l H_kl over all components. A norm
    (``fb is fa``) that rounding leaves below zero is 0."""
    if not isinstance(fa, tuple):
        fa, fb = (fa,), (fb,)
    axes = axis_rules(dom, rule)
    parts = []
    for a0, b0 in zip(fa, fb):
        a = a0.merged()
        b = a if b0 is a0 else b0.merged()
        if not a.coefs or not b.coefs:
            continue
        H = None
        for i, (x, w) in enumerate(axes):
            L = np.array([fs[i].on(x) for fs in a.factors])
            R = L if b is a else np.array([fs[i].on(x) for fs in b.factors])
            G = weighted_gram(L, R, w)
            H = G if H is None else H * G
        parts.append((np.multiply.outer(a.coefs, b.coefs) * H).ravel())
    total = _fsum(np.concatenate(parts)) if parts else 0.0
    return max(total, 0.0) if fb is fa else total


def l2_gram(left, right, dom: BoxDomain, rule: QuadratureRule) -> np.ndarray:
    """Matrix of L2 inner products ``<left[i], right[j]>``.

    Each field is evaluated once into the rows of :func:`samples` (shared
    when ``right is left``), which :func:`weighted_gram` contracts with the
    weights repeated per component: one kernel for both ranks. Entries
    agree with :func:`l2_inner` to rounding, not to the last bit.
    """
    if not left or not right:
        raise ValueError("l2_gram needs nonempty field lists")
    if isinstance(left[0], ScalarField) != isinstance(right[0], ScalarField):
        raise TypeError("rank mismatch: cannot pair a scalar with a vector field")
    L, w = samples(left, dom, rule)
    R = L if right is left else samples(right, dom, rule)[0]
    return weighted_gram(L, R, w)


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
