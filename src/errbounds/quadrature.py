"""Tensor Gauss-Legendre quadrature and the norm/inner-product primitives.

:func:`l2_inner`, :func:`terms_norm_sq` (and through it :func:`norm_sq`,
:func:`trace_norm_sq`) and :func:`l2_gram` integrate fields that all carry a
separated form (see :mod:`errbounds.fields`) without visiting the grid: H_kl,
the integral of the product of terms k and l, is per axis the 1-D integral of
their factors' product, the axes multiplied elementwise (:func:`term_grams`),
and an inner product is one correctly rounded sum of c_k c_l H_kl. That is the
tensor rule's own value, at O(R^2 d n) cost for rank R and n nodes per axis,
instead of O(n^d). H lives in one process-wide memo of plans (:func:`_plan`),
keyed by the raw factor tuples of some sums and the axis rules
(:func:`axis_rules`): the slot of each raw term among the distinct tuples and
H of those tuples. The program of some forms (:func:`_program`) adds each raw
term's owner (the index of its form) and coefficient; a norm of the forms
times any multipliers (:func:`_norm`), and a block of their Gram matrix
(:func:`_block`), merge the terms into slots and gather their addends from H,
without merging terms as objects or integrating anything. A norm of field
terms takes the program of its atoms' leaf forms, kept per process; inner
products, Grams and flux steps take unkept programs of their forms. Each
entry of H is its own pair's einsum, whatever else the plan holds, so the
memos, at most :data:`PLAN_MEMO` plans and programs, restart empty past their
bound without changing a bit. Any operand without a
form (a field built from bare callables, or from an expression that does not
split) is evaluated at every node instead; that path is the general fallback
and the oracle of the tests.

Both paths of :func:`l2_inner` and :func:`terms_norm_sq`, and the separated
one of :func:`l2_gram`, reduce through a correctly rounded sum, equal to
:func:`math.fsum` bit for bit (see :func:`_fsum`), so they are deterministic
to the last bit regardless of how callers batch their work. The grid path of
:func:`l2_gram` trades it for one sequential weighted sum per entry, which is
as deterministic but rounds differently: :func:`weighted_gram` contracts the
flat sample rows of :func:`samples` for both ranks, a vector row carrying the
node weights repeated per component.

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

from .fields import (_GRIDS, BoxDomain, CapabilityError, ScalarField,
                     VectorField, combination, form_values)


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
    """Spatial tensor nodes: X with shape (N, d) and weights (N,), the
    last axis varying fastest, filled axis by axis from the 1-D rules."""
    axes = axis_rules(dom.spatial(), rule)
    d, shape = len(axes), tuple(len(x) for x, _ in axes)
    X = np.empty((math.prod(shape), d))
    grid = X.reshape(*shape, d)
    for i, (x, _) in enumerate(axes):
        grid[..., i] = x.reshape((-1,) + (1,) * (d - 1 - i))
    w = reduce(np.multiply.outer, (w for _, w in axes)).ravel()
    return _register((X,), w, axes)


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


def _check_domain_match(time_dependent: bool, dim: int, dom: BoxDomain):
    if time_dependent != dom.is_parabolic:
        if dom.is_parabolic:
            raise ValueError("space-time domain requires time-dependent fields")
        raise ValueError("space-time integrand but domain has no time_horizon")
    if dim != dom.dim:
        raise ValueError("field dimension does not match domain")


def _check_fields(fields, dom: BoxDomain) -> bool:
    """Whether ``fields``, all of one rank and on ``dom``, are scalars."""
    scalar = isinstance(fields[0], ScalarField)
    for f in fields:
        if isinstance(f, ScalarField) != scalar:
            raise TypeError("rank mismatch: cannot pair a scalar with a vector field")
        _check_domain_match(f.time_dependent, f.dim, dom)
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
    _check_fields([a] if b is a else [a, b], dom)
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


def term_grams(terms, axes) -> np.ndarray:
    """H_kl, the tensor rule's integral of the product of the terms whose
    factor tuples are ``terms[k]`` and ``terms[l]``: per axis one
    :func:`weighted_gram` of the terms' stacked factor values
    (:meth:`fields.Factor.on`), multiplied elementwise in axis order. Every
    entry is the product of its own pair's einsums, whatever else
    ``terms`` holds."""
    H = 1.0
    for i, (x, w) in enumerate(axes):
        values = np.array([fs[i].on(x) for fs in terms]).reshape(
            len(terms), len(x))
        H = H * weighted_gram(values, values, w)
    return H


# A process keeps at most this many plans; a memo that would pass it starts
# again empty (see _plan).
PLAN_MEMO = 1024

# Below this many slots a norm reduces its plan in Python floats, cheaper
# than numpy there: 0.58 against 0.65 ms for the 11-slot norms of a suite
# pass. Numpy wins from 10 where no term cancels, floats to 18 where half do.
_NUMPY_MIN_SLOTS = 12
# (id of the axis rules, raw factor tuples) -> (slots, H, lists)
_PLANS = {}
# (id of the axis rules, slice time, leaf forms) -> norm program
_PROGRAMS = {}


def _plan(factors, axes):
    """The plan of raw terms with the factor tuples ``factors`` on the axis
    rules ``axes`` (of :func:`axis_rules`): the slot of each raw term, its
    tuple's place in order of first appearance, H = :func:`term_grams` of
    those tuples, and below :data:`_NUMPY_MIN_SLOTS` slots both as lists
    (else None). Kept per process for the factors and the rules: factors
    compare by identity, as :meth:`fields.SeparatedSum.merged` keys them,
    and the key holds them, and :func:`axis_rules` keeps the rules for
    good, so their ids stay their own. Each entry of H is its own pair's
    value, so a memo that starts again empty changes no bit."""
    key = id(axes), factors
    plan = _PLANS.get(key)
    if plan is None:
        union = {}
        slots = np.array([union.setdefault(fs, len(union)) for fs in factors],
                         dtype=np.intp)
        H = term_grams(list(union), axes)
        lists = ((slots.tolist(), H.tolist())
                 if len(union) < _NUMPY_MIN_SLOTS else None)
        if len(_PLANS) >= PLAN_MEMO:
            _PLANS.clear()
        plan = _PLANS[key] = slots, H, lists
    return plan


def _norm_addends(slots, coefs, H) -> np.ndarray:
    """m_k m_l H_kl, raveled, of the merged terms of raw terms in ``slots``
    with ``coefs``, H the term-pair integrals of the slots: each slot's
    coefficients added in raw-term order, as
    :meth:`fields.SeparatedSum.merged` adds them, those that are zero
    dropped, and the addends in slot order."""
    m = np.bincount(slots, weights=coefs, minlength=len(H))
    keep = np.flatnonzero(m)
    if len(keep) < len(H):
        H, m = H[keep[:, None], keep], m[keep]
    return (np.multiply.outer(m, m) * H).ravel()


def _program(forms, axes, at=None, kept: bool = True) -> list:
    """Per component of ``forms``, each raw term's slot in :func:`_plan`,
    owner (the index of its form), coefficient and, at a slice time ``at``, its time factor's value
    there (or 1.0), and H: lists below :data:`_NUMPY_MIN_SLOTS` slots, else
    arrays. Kept, if ``kept``, per forms (by identity), rules and ``at``."""
    key = id(axes), at, forms
    program = _PROGRAMS.get(key) if kept else None
    if program is None:
        program, d = [], len(axes)
        for sums in zip(*forms) if type(forms[0]) is tuple else [forms]:
            factors = [fs for s in sums for fs in s.factors]
            taus = None if at is None else [fs[0].at(at) if len(fs) > d
                                            else 1.0 for fs in factors]
            slots, H, lists = _plan(tuple(fs[-d:] for fs in factors), axes)
            owners = [i for i, s in enumerate(sums) for _ in s.coefs]
            coefs = [a for s in sums for a in s.coefs]
            program.append(((lists[0], owners, coefs, taus), lists[1])
                           if lists else
                           ((slots, np.array(owners, dtype=np.intp),
                             np.array(coefs, dtype=float),
                             None if taus is None else np.array(taus)), H))
        if kept:
            if len(_PROGRAMS) >= PLAN_MEMO:
                _PROGRAMS.clear()
            _PROGRAMS[key] = program
    return program


def _addends(mults, terms, H):
    """m_k m_l H_kl of a program's component, its forms times ``mults``:
    each term's coefficient times its multiplier (then times its time
    factor's value, as a sliced form rounds) added into its slot from 0.0
    in order, zeros dropped, as :func:`_norm_addends` does (for arrays)."""
    slots, owners, coefs, taus = terms
    if type(H) is not list:
        w = coefs * np.array(mults)[owners]
        return _norm_addends(slots, w if taus is None else w * taus, H)
    m = [0.0] * len(H)
    if taus is None:
        for k, i, a in zip(slots, owners, coefs):
            m[k] += mults[i] * a
    else:
        for k, i, a, t in zip(slots, owners, coefs, taus):
            m[k] += mults[i] * a * t
    kept = [(k, c) for k, c in enumerate(m) if c]
    return [c * e * H[k][l] for k, c in kept for l, e in kept]


def _norm(mults, program) -> float:
    """The squared norm of the forms of ``program`` times ``mults``."""
    small, arrays = [], []
    for terms, H in program:
        if type(H) is list:
            small += _addends(mults, terms, H)
        else:
            arrays.append(_addends(mults, terms, H))
    return max(_fsum(np.concatenate([*arrays, small])) if arrays
               else math.fsum(small), 0.0)


def _block(program, rows: range, cols: range) -> np.ndarray:
    """``G[i, j] = <forms[rows[i]], forms[cols[j]]>`` of the forms of
    ``program``: per component their terms merged by one ``np.bincount``
    over (form, slot) bins, in raw-term order within a bin as ``merged()``
    adds them and zeros dropped, and each entry the correctly rounded sum
    of its addends ``m_k m_l H_kl``."""
    n, owners, values = len(cols), [], []
    for (slots, own, coefs, _), H in program:
        # a component below _NUMPY_MIN_SLOTS holds lists, H [] if empty
        size = len(H)
        H = np.asarray(H).reshape(size, size)
        m = np.bincount(np.asarray(own, dtype=np.intp) * size
                        + np.asarray(slots, dtype=np.intp), weights=coefs)
        keep = np.flatnonzero(m)
        own, slot, m = keep // size, keep % size, m[keep]
        # owners ascend, so each range of forms is a range of terms
        (a, b), (c, e) = (np.searchsorted(own, (r.start, r.stop))
                          for r in (rows, cols))
        values.append((np.multiply.outer(m[a:b], m[c:e])
                       * H[slot[a:b, None], slot[c:e]]).ravel())
        owners.append(np.add.outer((own[a:b] - rows.start) * n,
                                   own[c:e] - cols.start).ravel())
    values, G = np.concatenate(values), np.zeros(len(rows) * n)
    if len(values):
        # the addends of entry e are row e of D, padded with zeros
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        at = np.arange(len(owner)) - np.searchsorted(owner, owner)
        D = np.zeros((len(G), at.max() + 1))
        D[owner, at] = values[order]
        # one addition rounds correctly, and from +0 it signs a zero as
        # fsum does; fsum is needed from three addends on
        G = (reduce(np.add, D.T, 0.0) if D.shape[1] <= 2
             else np.array([math.fsum(row) for row in D.tolist()]))
    return G.reshape(len(rows), n)


def separated_inner(fa, fb, dom: BoxDomain, rule: QuadratureRule) -> float:
    """The tensor rule's value of the L2 inner product of two separated
    forms, a :class:`fields.SeparatedSum` each or tuples of them, one per
    component, without visiting the grid (sum factorisation): one correctly
    rounded sum of the addends c_k c_l H_kl of the merged terms of every
    component, the 1 x 1 :func:`_block` of their unkept :func:`_program`,
    or for a norm (``fb is fa``) the one-form :func:`_norm`."""
    program = _program((fa,) if fb is fa else (fa, fb),
                       axis_rules(dom, rule), kept=False)
    if fb is fa:
        return _norm([1.0], program)
    return float(_block(program, range(1), range(1, 2))[0, 0])


def _separated_gram(fl, fr, axes) -> np.ndarray:
    """The Gram matrix of the lists of separated forms ``fl`` and ``fr``
    (``fr is fl`` for a list with itself): a :func:`_block` of the unkept
    :func:`_program` of both lists, each entry as :func:`separated_inner`
    takes it (0 where rounding leaves it below zero and the two are one
    form, a norm)."""
    forms = fl if fr is fl else [*fl, *fr]
    G = _block(_program(tuple(forms), axes, kept=False), range(len(fl)),
               range(len(forms) - len(fr), len(forms)))
    same = np.equal.outer([id(f) for f in fl], [id(g) for g in fr])
    return np.where(same, np.maximum(G, 0.0), G)


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


class _Views(dict):  # (a view, a view of that) -> the evaluator it is
    def __missing__(self, key):
        raise CapabilityError(f"a {key[0]} view carries no {key[1]} view")


# norm kinds of L2 pieces: (scale, kind, view) each, math.fsum'd in order;
# a piece that ends in "T" is taken at the time horizon
_PARTS = {"h1": ((1.0, "l2", "value"), (1.0, "l2", "grad")),
          "hdiv": ((1.0, "l2", "value"), (1.0, "l2", "div")),
          "v": ((1.0, "l2", "value"), (2.0, "l2", "grad"),
                (1.0, "l2", "laplacian")),
          "h11": ((1.0, "h1", "value"), (1.0, "l2", "dt")),
          "wstar": ((1.0, "h11", "value"), (1.0, "hdiv", "grad"),
                    (1.0, "h1", "value", "T")),
          "triple": ((1.0, "l2", "dt"), (1.0, "l2", "laplacian"),
                     (1.0, "l2", "grad", "T"))}
_PARTS["h01"] = _PARTS["h1"]
_FIELDS = {"value": None, "grad": "gradient_field", "div": "div_field",
           "dt": "dt_field", "laplacian": "laplacian_field"}
_VIEWS = _Views({**{(n, "value"): n for n in _FIELDS},
                 **{("value", n): n for n in _FIELDS},
                 ("grad", "div"): "laplacian"})


def norm_sq(kind: str, w, dom: BoxDomain, rule: QuadratureRule) -> float:
    """Squared norm of the requested kind; composites sum their constituents.

    Kinds: ``L2``, ``H1`` (also aliased ``H01`` on space-time domains),
    ``Hdiv``, ``V``, ``H11``, ``Wstar`` (the combined space-time
    reaction-diffusion norm) and ``triple`` (the heat-equation norm): the
    one-term :func:`terms_norm_sq`.
    """
    return terms_norm_sq(dom, rule, [(1.0, w, "value")], kind=kind)


def terms_norm_sq(dom: BoxDomain, rule: QuadratureRule, terms,
                  view: str = "value", kind: str = "L2",
                  at: float | None = None) -> float:
    """:func:`norm_sq` of ``kind`` of the ``view`` of the sum of the terms
    ``(sign, atom, name)``, 1.0 or -1.0 times the evaluator ``name`` of the
    field ``atom``; a tuple of lists of terms sums those groups. At a slice
    time ``at`` in [0, T] of the space-time box ``dom`` the norm is taken
    on its spatial box, space-time atoms sliced there. The terms are
    checked as :func:`_check_fields` checks fields; other signs, and any
    other ``at``, are refused. An L2 piece reduces the atoms' leaf terms
    (:meth:`fields._Field.leaf_terms`) by the :func:`_program` of their
    forms, bit for bit the norm of the expression's form, building none;
    without all forms, its grid norm."""
    whole = at is None
    if not (whole or dom.is_parabolic and 0.0 <= at <= dom.time_horizon):
        raise ValueError(f"slice time at={at!r} must lie in [0, T] of a "
                         "space-time box")
    k = kind.lower()
    if k != "l2" and k not in _PARTS:
        raise ValueError(f"unknown norm kind: {kind!r}")
    box = dom if whole else dom.spatial()
    flat = [t for g in terms for t in g] if type(terms) is tuple else terms
    td, dim = box.is_parabolic, len(box.lower)
    vector, mults, forms, grid = set(), [], [], False
    for sign, atom, name in flat:
        if sign not in (1.0, -1.0):
            raise ValueError(f"term ({sign!r}, {name!r}): sign must be 1.0 "
                             "or -1.0")
        if (atom.time_dependent and whole) != td or atom.dim != dim:
            _check_domain_match(atom.time_dependent and whole, atom.dim, box)
        name = name if view == "value" else _VIEWS[name, view]
        if name == "dt" and not whole:
            raise CapabilityError("a time slice carries no time-derivative")
        vector.add(name == "grad"
                   or name != "div" and isinstance(atom, VectorField))
        own = atom.leaf_terms(name)
        grid = grid or own is None
        if own:
            mults += own[0] if sign == 1.0 else own[2]
            forms += own[1]
    if len(vector) > 1:
        raise TypeError("rank mismatch: cannot pair a scalar with a vector field")
    if k == "hdiv" and True not in vector:
        raise TypeError("Hdiv norm requires a vector field")
    if k != "l2":  # each piece checks its terms again
        return math.fsum([s * terms_norm_sq(dom, rule, terms, _VIEWS[view, v],
                                            part, dom.time_horizon if end
                                            else at)
                          for s, part, v, *end in _PARTS[k]])
    if grid:
        w = _expression(terms, view, at)
        return _grid_inner(w, w, box, rule)
    return _norm(mults, _program(tuple(forms), axis_rules(box, rule), at))


def _expression(terms, view: str, at):
    fields = [_expression(t, view, at) if type(t) is list
              else _field(*t, view, at) for t in terms]
    signs = [1.0 if type(t) is list else t[0] for t in terms]
    return fields[0] if signs == [1.0] else combination(fields, signs)


def _field(sign, atom, name, view, at):
    w = atom if at is None or not atom.time_dependent else atom.at_time(at)
    name = _VIEWS[name, view]
    return w if name == "value" else getattr(w, _FIELDS[name])()


def trace_norm_sq(w, at: float, variant: str, dom: BoxDomain,
                  rule: QuadratureRule) -> float:
    """Spatial norm of a time slice of a space-time field: the
    :func:`terms_norm_sq` of its variant at ``at``."""
    if not dom.is_parabolic:
        raise ValueError("trace norms require a space-time domain")
    if not 0.0 <= at <= dom.time_horizon:
        raise ValueError("slice time outside [0, T]")
    if not w.time_dependent:
        raise ValueError("at_time requires a space-time field")
    v = variant.lower()
    if v != "value" and isinstance(w, VectorField):
        raise ValueError("only the value variant applies to vector fields")
    parts = {"value": ("value", "L2"), "gradient": ("grad", "L2"),
             "h1": ("value", "H1")}
    if v not in parts:
        raise ValueError(f"unknown trace variant: {variant!r}")
    return terms_norm_sq(dom, rule, [(1.0, w, "value")], *parts[v], at)
