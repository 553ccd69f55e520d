"""Tensor Gauss-Legendre quadrature and the norm/inner-product primitives.

:func:`l2_inner`, and through it :func:`norm_sq` and :func:`trace_norm_sq`,
and :func:`l2_gram` integrate fields that all carry a separated form (see
:mod:`errbounds.fields`) without visiting the grid: per axis the 1-D
integrals of the term factors' products, gathered from that axis's table,
the axis Grams multiplied elementwise, and per inner product one correctly
rounded sum of c_k c_l H_kl. That is the tensor rule's own value, at
O(R^2 d) cost for rank R, once the tables hold its factors, instead of
O(n^d). A table (:func:`axis_grams`) is kept per composite Gauss rule
(:func:`axis_rules`) and process: it holds every factor it has met on that
rule, at most :data:`AXIS_GRAM_MEMO`, and the :func:`weighted_gram` of
each pair of their values, computed when the later of the two first
arrives. Each entry is its own pair's einsum, so a table that passes the
bound starts again empty without changing a bit. A norm also keeps, per
process, a plan for each raw form it meets (:func:`_norm_plan`), keyed by
the form's factor tuples and the axis rules: the slot of each raw term
among the distinct tuples and H of those tuples. A later form with the
same factors and any coefficients merges them by one ``np.bincount`` and
gathers its addends from H, without merging its terms as objects or
visiting a table. The plans are bounded like the tables, at most
:data:`NORM_PLAN_MEMO`, and restart empty past it without changing a
bit. Any operand without a form (a field built from bare callables, or
from an expression that does not split) is evaluated at every node
instead; that path is the general fallback and the oracle of the tests.

Both paths of :func:`l2_inner`, and the separated one of :func:`l2_gram`,
reduce through a correctly rounded sum, equal to :func:`math.fsum` bit for
bit (see :func:`_fsum`), so they are deterministic to the last bit
regardless of how callers batch their work. The grid path of
:func:`l2_gram` trades it for one sequential weighted sum per entry, which
is as deterministic but rounds differently: :func:`weighted_gram`
contracts the flat sample rows of :func:`samples` for both ranks, a vector
row carrying the node weights repeated per component.

The node sets are cached per box and rule, read-only, and registered with
:mod:`errbounds.fields` under the per-axis rules they are the tensor
product of, so fields and forms evaluate on their 1-D axes
(:func:`fields.grid_axes`).
"""
from __future__ import annotations

import dataclasses
import math
from functools import lru_cache, reduce

import numpy as np

from .fields import (_GRIDS, BoxDomain, ScalarField, VectorField,
                     form_values)


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


def _register(args, w, axes):
    """``(*args, w)``, the node arrays and the weights of a node set, made
    read-only, with ``args`` registered (see ``fields._GRIDS``) under the
    broadcast axes of its 1-D rules ``axes``."""
    for a in (*args, w):
        a.setflags(write=False)
    _GRIDS[tuple(map(id, args))] = (args, np.ix_(*(x for x, _ in axes)),
                                    tuple(len(x) for x, _ in axes))
    return (*args, w)


@lru_cache(maxsize=None)
def space_nodes(dom: BoxDomain, rule: QuadratureRule):
    """Spatial tensor nodes: X with shape (N, d) and weights (N,)."""
    axes = axis_rules(dom.spatial(), rule)
    mesh = np.meshgrid(*(x for x, _ in axes), indexing="ij")
    wmesh = np.meshgrid(*(w for _, w in axes), indexing="ij")
    w = reduce(np.multiply, (m.ravel() for m in wmesh), np.ones(mesh[0].size))
    return _register((np.stack([m.ravel() for m in mesh], axis=1),), w, axes)


@lru_cache(maxsize=None)
def spacetime_nodes(dom: BoxDomain, rule: QuadratureRule):
    """Space-time tensor nodes: t (N,), X (N, d), weights (N,)."""
    if not dom.is_parabolic:
        raise ValueError("domain carries no time horizon")
    axes = axis_rules(dom, rule)
    (tq, wt), (Xs, ws) = axes[0], space_nodes(dom, rule)
    return _register((np.repeat(tq, len(Xs)), np.tile(Xs, (len(tq), 1))),
                     (wt[:, None] * ws[None, :]).ravel(), axes)


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


def _check_fields(fields, dom: BoxDomain) -> bool:
    """Whether ``fields``, all of one rank and on ``dom``, are scalars."""
    scalar = isinstance(fields[0], ScalarField)
    for f in fields:
        if isinstance(f, ScalarField) != scalar:
            raise TypeError("rank mismatch: cannot pair a scalar with a vector field")
        _check_domain_match(f, dom)
    return scalar


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
    :func:`weighted_gram` contracts rows of both ranks alike. A field that
    carries a separated form is sampled from it (see :func:`form_values`),
    without calling its evaluator.
    """
    if not fields:
        raise ValueError("need a nonempty field list")
    scalar = _check_fields(fields, dom)
    args, w = _quad_args(dom, rule)
    width = 1 if scalar else dom.dim
    rows = np.empty((len(fields), w.shape[0] * width))
    for i, f in enumerate(fields):
        form = f.separated()
        rows[i] = (f.value(*args) if form is None else
                   form_values(form, args, dom.dim)).ravel()
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


def l2_inner(a, b, dom: BoxDomain, rule: QuadratureRule) -> float:
    """L2 inner product over the box (or the space-time cylinder): by
    :func:`separated_inner` when both fields carry a separated form (see
    :meth:`fields._Field.separated`), else on the full node grid."""
    _check_fields([a, b], dom)
    fa = a.separated()
    fb = fa if b is a else b.separated()
    if fa is not None and fb is not None:
        return separated_inner(fa, fb, dom, rule)
    return _grid_inner(a, b, dom, rule)


def _grid_inner(a, b, dom: BoxDomain, rule: QuadratureRule) -> float:
    """:func:`l2_inner` from the values of both fields at every node,
    ``(N,)`` for scalars or ``(N, d)`` for vectors."""
    args, w = _quad_args(dom, rule)
    va = a.value(*args)
    vb = va if b is a else b.value(*args)
    prod = va * vb if va.ndim == 1 else np.einsum("ij,ij->i", va, vb)
    return _fsum(prod * w)


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


# A table of 1-D integrals keeps at most this many factors per axis rule; a
# table that would pass it starts again empty (see _AxisGrams.rows).
AXIS_GRAM_MEMO = 512


class _AxisGrams:
    """The 1-D integrals of the products of factor pairs on one axis rule
    ``(x, w)``: ``G[r, s]`` is :func:`weighted_gram` of the values
    (:meth:`fields.Factor.on`) of the factors of rows r and s. Every entry
    is the einsum of its own pair, independent of what else the table
    holds, and ``(l * r) * w == (r * l) * w``, so the columns of new rows
    are those rows transposed, and starting again empty changes no bit."""

    __slots__ = ("x", "w", "index", "G")

    def __init__(self, x: np.ndarray, w: np.ndarray):
        self.x, self.w = x, w
        self.index = {}  # factor -> its row; holding it keeps its id
        self.G = np.empty((0, 0))

    def rows(self, factors) -> np.ndarray:
        """The rows of ``factors``, added to the table if new; if that would
        take it past :data:`AXIS_GRAM_MEMO`, it starts again from those."""
        new = [f for f in dict.fromkeys(factors) if f not in self.index]
        if new:
            if len(self.index) + len(new) > AXIS_GRAM_MEMO:
                self.index, self.G = {}, np.empty((0, 0))
                new = list(dict.fromkeys(factors))
            self._add(new)
        index = self.index
        return np.array([index[f] for f in factors], dtype=np.intp)

    def _add(self, new):
        n, m = len(self.index), len(new)
        for f in new:
            self.index[f] = len(self.index)
        values = np.array([f.on(self.x) for f in self.index]).reshape(
            n + m, len(self.x))
        added = weighted_gram(values[n:], values, self.w)
        G = np.empty((n + m, n + m))
        G[:n, :n] = self.G
        G[n:] = added
        G[:n, n:] = added[:, :n].T
        self.G = G


# id of the nodes of a cached 1-D rule -> its table (which holds them)
_AXIS_GRAMS = {}


def axis_grams(x: np.ndarray, w: np.ndarray) -> _AxisGrams:
    """The table of factor-pair integrals of the cached 1-D rule
    ``(x, w)``, one per rule per process."""
    table = _AXIS_GRAMS.get(id(x))
    if table is None:
        table = _AXIS_GRAMS[id(x)] = _AxisGrams(x, w)
    return table


def term_grams(fa, fb, axes) -> np.ndarray:
    """H_kl, the tensor rule's integral of the product of the terms whose
    factor tuples are ``fa[k]`` and ``fb[l]`` (``fb is fa`` for a list with
    itself): per axis the entries of the factor pairs gathered from its
    table (:func:`axis_grams`), multiplied elementwise in axis order."""
    H = 1.0
    for i, (x, w) in enumerate(axes):
        table = axis_grams(x, w)
        # both sides in one call: adding the second alone could restart
        # the table and move the rows of the first
        rows = table.rows([fs[i] for fs in fa] if fb is fa else
                          [fs[i] for fs in (*fa, *fb)])
        ia, ib = (rows, rows) if fb is fa else (rows[:len(fa)], rows[len(fa):])
        H = H * table.G[ia[:, None], ib]
    return H


def _addends(a, b, axes) -> np.ndarray:
    """c_k c_l H_kl for the terms k of the sums ``a`` and l of the sums
    ``b`` (``b is a`` for a list with itself), H of :func:`term_grams`."""
    fa = [fs for s in a for fs in s.factors]
    fb = fa if b is a else [fs for s in b for fs in s.factors]
    ca = [x for s in a for x in s.coefs]
    cb = ca if b is a else [x for s in b for x in s.coefs]
    return np.multiply.outer(ca, cb) * term_grams(fa, fb, axes)


def _merged(slots, coefs, size: int):
    """The merged terms of raw terms in ``slots`` of ``size`` with
    ``coefs``: each slot's coefficients added in raw-term order, as
    :meth:`fields.SeparatedSum.merged` adds them, and those that are zero
    dropped; (their slots, their coefficients)."""
    m = np.bincount(slots, weights=coefs, minlength=size)
    keep = np.flatnonzero(m)
    return keep, m[keep]


def _norm_addends(slots, coefs, H) -> np.ndarray:
    """m_k m_l H_kl, raveled, of the merged terms (:func:`_merged`) of raw
    terms in ``slots`` with ``coefs``, H the term-pair integrals of the
    slots: the addends of :func:`_addends` of the merged sum with itself,
    in the same order."""
    keep, m = _merged(slots, coefs, len(H))
    if len(keep) < len(H):
        H = H[keep[:, None], keep]
    return (np.multiply.outer(m, m) * H).ravel()


# A process keeps at most this many norm plans; a memo that would pass it
# starts again empty (see _norm_plan).
NORM_PLAN_MEMO = 1024

# (id of the axis rules, factors of a raw sum) -> (slots, H)
_NORM_PLANS = {}


def _norm_plan(s, axes):
    """The plan of the norm of the raw sum ``s`` on the axis rules ``axes``
    (of :func:`axis_rules`): the slot of each raw term, its factor tuple's
    place in order of first appearance, and H = :func:`term_grams` of
    those tuples. Kept per process for the sum's factors and the rules:
    factors compare by identity, as :meth:`fields.SeparatedSum.merged`
    keys them, and the key holds them, and :func:`axis_rules` keeps the
    rules for good, so their ids stay their own. Each entry of H is its
    own pair's value, so a memo that starts again empty changes no
    bit."""
    key = id(axes), s.factors
    plan = _NORM_PLANS.get(key)
    if plan is None:
        union = {}
        slots = np.array([union.setdefault(fs, len(union))
                          for fs in s.factors], dtype=np.intp)
        terms = list(union)
        if len(_NORM_PLANS) >= NORM_PLAN_MEMO:
            _NORM_PLANS.clear()
        plan = _NORM_PLANS[key] = slots, term_grams(terms, terms, axes)
    return plan


def separated_inner(fa, fb, dom: BoxDomain, rule: QuadratureRule) -> float:
    """The tensor rule's value of the L2 inner product of two separated
    forms, a :class:`fields.SeparatedSum` each or tuples of them, one per
    component, without visiting the grid (sum factorisation): per
    component, with terms of the same factors merged, the addends of
    :func:`_addends`, and one correctly rounded sum of them over all
    components. A norm (``fb is fa``) that rounding leaves below zero is
    0.

    A norm gathers its addends from the plan of each component's raw sum
    (:func:`_norm_plan`), kept per process for its factors and the axis
    rules, at most :data:`NORM_PLAN_MEMO` of them before the memo starts
    again empty: the raw coefficients merged by one ``np.bincount`` in
    raw-term order, as ``merged()`` adds them, the zeros dropped, and
    the outer product of the rest times the plan's H, the same addends in
    the same order. A plan holds structure only, never coefficients, so
    a sum of known factors takes no :meth:`fields.SeparatedSum.merged`
    and no :func:`term_grams`."""
    norm = fb is fa
    if not isinstance(fa, tuple):
        fa, fb = (fa,), (fb,)
    axes = axis_rules(dom, rule)
    parts = []
    for a0, b0 in zip(fa, fb):
        if norm:
            slots, H = _norm_plan(a0, axes)
            parts.append(_norm_addends(slots, a0.coefs, H))
        else:
            parts.append(_addends([a0.merged()], [b0.merged()], axes).ravel())
    total = _fsum(np.concatenate(parts))
    return max(total, 0.0) if norm else total


def _separated_gram(fl, fr, axes) -> np.ndarray:
    """The Gram matrix of the lists of separated forms ``fl`` and ``fr``
    (``fr is fl`` for a list with itself): per component the addends of
    :func:`_addends` of the merged terms of all forms of either list, and
    entry (i, j) the correctly rounded sum of those of the terms of fl[i]
    and fr[j] (:func:`_entry_sums`), as :func:`separated_inner` takes it
    (0 where rounding leaves it below zero and the two are one form, a
    norm)."""
    scalar = not isinstance(fl[0], tuple)
    blocks = []
    for c in range(1 if scalar else len(fl[0])):
        a = [(f if scalar else f[c]).merged() for f in fl]
        b = a if fr is fl else [(f if scalar else f[c]).merged() for f in fr]
        blocks.append((_addends(a, b, axes), [len(s.coefs) for s in a],
                       [len(s.coefs) for s in b]))
    G = _entry_sums(blocks, len(fl), len(fr))
    same = np.equal.outer([id(f) for f in fl], [id(g) for g in fr])
    return np.where(same, np.maximum(G, 0.0), G)


def _entry_sums(blocks, m: int, n: int) -> np.ndarray:
    """The m x n matrix whose entry (i, j) is the correctly rounded sum of
    the addends that belong to left form i and right form j. ``blocks``
    holds per component the addends of all left terms (rows, form by form)
    with all right terms (columns, form by form) and the number of terms of
    each left and each right form."""
    owners, values = [], []
    for addends, left, right in blocks:
        values.append(addends.ravel())
        owners.append(np.add.outer(np.repeat(np.arange(0, m * n, n), left),
                                   np.repeat(np.arange(n), right)).ravel())
    values, G = np.concatenate(values), np.zeros(m * n)
    if len(values):
        # the addends of entry e are row e of D, padded with zeros
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        at = np.arange(len(owner)) - np.searchsorted(owner, owner)
        D = np.zeros((m * n, at.max() + 1))
        D[owner, at] = values[order]
        # one addition rounds correctly; fsum is needed from three addends on
        G = (reduce(np.add, D.T) if D.shape[1] <= 2
             else np.array([math.fsum(row) for row in D.tolist()]))
    return G.reshape(m, n)


def l2_gram(left, right, dom: BoxDomain, rule: QuadratureRule) -> np.ndarray:
    """Matrix of L2 inner products ``<left[i], right[j]>``: by
    :func:`_separated_gram` when every field carries a separated form, each
    entry :func:`l2_inner` of its pair bit for bit, independent of the rest
    of either list; else from the rows of :func:`samples` (shared when
    ``right is left``), which :func:`weighted_gram` contracts, each entry
    :func:`l2_inner` of its pair to rounding."""
    if not left or not right:
        raise ValueError("l2_gram needs nonempty field lists")
    _check_fields(left if right is left else [*left, *right], dom)
    fl = [f.separated() for f in left]
    fr = fl if right is left else [f.separated() for f in right]
    if any(f is None for f in (*fl, *fr)):
        L, w = samples(left, dom, rule)
        R = L if right is left else samples(right, dom, rule)[0]
        return weighted_gram(L, R, w)
    return _separated_gram(fl, fr, axis_rules(dom, rule))


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
