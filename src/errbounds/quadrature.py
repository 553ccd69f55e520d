"""Tensor Gauss-Legendre quadrature and the norm/inner-product primitives.

:func:`l2_inner`, :func:`record_norms_sq` (and through it
:func:`terms_norm_sq`, :func:`norm_sq`, :func:`trace_norm_sq`) and
:func:`l2_gram` integrate fields that all carry a separated form (see
:mod:`errbounds.fields`) without visiting the grid: H_kl, the integral of
the product of terms k and l, is per axis the 1-D integral of their
factors' product, the axes multiplied elementwise (:func:`term_grams`), and
an inner product is one correctly rounded sum of c_k c_l H_kl. That is the
tensor rule's own value, at O(R^2 d n) cost for rank R and n nodes per axis,
instead of O(n^d). H lives in one process-wide memo of plans (:func:`_plan`),
keyed by the raw factor tuples of some sums and the axis rules
(:func:`axis_rules`). A program of pieces of forms (:func:`_program`) holds
each raw term's slot, form and coefficient: the norms of all pieces times
any multipliers (:func:`_norms`), and a Gram block of a piece's groups of
forms (:func:`_block`), merge the terms into slots and gather the addends
from H, integrating nothing. A record's norms are a declared table
(:func:`norm_table`) of atoms named by role; bound to its atoms, it is
checked once and compiled into a plan kept per table, box, rule and the
atoms' record keys, so a warm record only looks up its plan and takes every
norm in one :func:`_norms` (:func:`record_norms_sq`). A flux step's blocks
and norms take the kept program of their atoms' leaf forms; inner products
and Grams take unkept programs. Each entry of H is its own
pair's einsum, so the memos, at most :data:`PLAN_MEMO` plans, programs and
record plans each,
restart empty past their bound without changing a bit. Any operand without
a form (a field built from bare callables, or from an expression that does
not split) is evaluated at every node instead; that path is the general
fallback and the oracle of the tests.

Both paths of :func:`l2_inner` and :func:`record_norms_sq`, and the separated
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
from itertools import accumulate

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
        # the hash of the fields' tuple, kept beside them
        object.__setattr__(self, "_hash",
                           hash((self.space_order, self.time_order)))

    def __hash__(self):
        return self._hash


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

# (id of the axis rules, raw factor tuples) -> (slots, H)
_PLANS = {}
# per piece (id of the axis rules, slice time, forms, group sizes) -> program
_PROGRAMS = {}


def _plan(factors, axes):
    """The plan of raw terms with the factor tuples ``factors`` on the axis
    rules ``axes`` (of :func:`axis_rules`): the slot of each raw term, its
    tuple's place in order of first appearance, and H = :func:`term_grams`
    of those tuples. Kept per process for the factors and the rules: factors
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
        if len(_PLANS) >= PLAN_MEMO:
            _PLANS.clear()
        plan = _PLANS[key] = slots, H
    return plan


def _program(pieces, kept: bool = True):
    """The program of ``pieces``, ``(axes, at, forms, sizes)`` each: forms
    on the axis rules ``axes``, sliced at ``at`` unless it is None, in
    groups of ``sizes`` forms (one form each if None). Per piece and
    component (for :func:`_block`) each raw term's slot in :func:`_plan`,
    group, form and coefficient, H and each group's first term; over all
    pieces (for :func:`_addends`) each raw term's bin, form, coefficient and
    time factor's value at ``at``, and the slot pairs (k, l) with H_kl.
    Kept, if ``kept``, per rules, slice times, forms (by identity) and
    sizes, at most :data:`PLAN_MEMO` programs: a restart changes no bit."""
    key = tuple((id(axes), at, forms, sizes)
                for axes, at, forms, sizes in pieces)
    program = _PROGRAMS.get(key) if kept else None
    if program is None:
        parts, columns, size, first = [], [], 0, 0
        for axes, at, forms, sizes in pieces:
            d, comps = len(axes), []
            groups = np.repeat(np.arange(len(sizes or forms)), sizes or 1)
            for sums in zip(*forms) if type(forms[0]) is tuple else [forms]:
                factors = [fs for s in sums for fs in s.factors]
                slots, H = _plan(tuple(fs[-d:] for fs in factors), axes)
                form = np.array([i for i, s in enumerate(sums)
                                 for _ in s.coefs], dtype=np.intp)
                coefs = np.array([a for s in sums for a in s.coefs])
                owners, n, k = groups[form], len(H), np.arange(len(H))
                comps.append((slots, owners, form, coefs, H, np.searchsorted(
                    owners, range(groups[-1] + 2)).tolist()))
                columns.append((slots + size, form + first, coefs, [
                    fs[0].at(at) if at is not None and len(fs) > d else 1.0
                    for fs in factors], np.repeat(k, n) + size,
                    np.tile(k, n) + size, H.ravel(), np.full(n * n, len(parts))))
                size += n
            parts.append(comps)
            first += len(forms)
        bins, form, coefs, taus, *pairs = map(np.concatenate, zip(*columns))
        sliced = any(at is not None for _, at, _, _ in pieces)
        program = parts, (bins, form, coefs, taus if sliced else None, size,
                          pairs, {})
        if kept:
            if len(_PROGRAMS) >= PLAN_MEMO:
                _PROGRAMS.clear()
            _PROGRAMS[key] = program
    return program


def _addends(mults, program) -> list:
    """Per piece of ``program``, the addends m_k m_l H_kl of its forms
    times their multipliers, ``mults`` those of every piece in order: each
    raw term's coefficient times its multiplier (then times its time
    factor's value, as a sliced form rounds) added into its piece's slot
    from 0.0 in raw-term order, as :meth:`fields.SeparatedSum.merged` adds
    them, by one ``np.bincount``; the pairs of zero slots dropped, those
    left kept per pattern of zero slots, and all addends gathered at once."""
    bins, form, coefs, taus, size, (I, J, H, piece), gathers = program[1]
    w = coefs * np.asarray(mults)[form]
    m = np.bincount(bins, weights=w if taus is None else w * taus,
                    minlength=size)
    live = m != 0.0
    pattern = live.tobytes()
    if pattern not in gathers:
        keep = live[I] & live[J]
        cuts = [0, *accumulate(np.bincount(piece[keep],
                                           minlength=len(program[0])).tolist())]
        if len(gathers) >= PLAN_MEMO:
            gathers.clear()
        gathers[pattern] = I[keep], J[keep], H[keep], list(zip(cuts, cuts[1:]))
    I, J, H, cuts = gathers[pattern]
    addends = m[I] * m[J] * H
    return [addends[a:b] for a, b in cuts]


def _norms(mults, program) -> list:
    """The squared norm of each piece of ``program`` (see :func:`_addends`),
    0 where rounding leaves it below."""
    return [max(_fsum(a), 0.0) for a in _addends(mults, program)]


def _block(program, piece: int, mults, rows: range, cols: range):
    """``G[i, j] = <rows[i], cols[j]>`` of the groups of ``piece`` of
    ``program``, a group the sum of its forms times their ``mults`` (an
    array over the piece's forms): per component each range's terms merged
    by one ``np.bincount`` over (group, slot) bins, in raw-term order within
    a bin and zeros dropped, and each entry the correctly rounded sum of its
    addends m_k m_l H_kl and a padded +0.0, so no entry is -0.0."""
    n = len(cols)
    cells = [[0.0] for _ in range(len(rows) * n)]
    for slots, owners, form, coefs, H, at in program[0][piece]:
        merged = []
        for r in (rows, cols):
            a, b = at[r.start], at[r.stop]
            m = np.bincount((owners[a:b] - r.start) * len(H) + slots[a:b],
                            coefs[a:b] * mults[form[a:b]], len(r) * len(H))
            keep = np.flatnonzero(m)
            merged.append((*np.divmod(keep, len(H)), m[keep]))
        (group, slot, m), (col, cslot, c) = merged
        # a group's rows are adjacent, and so are, in their transpose, the
        # columns of an entry: group and col ascend
        addends = np.multiply.outer(m, c) * H[slot[:, None], cslot]
        ends = np.searchsorted(group, range(len(rows) + 1)).tolist()
        for g, (a, b) in enumerate(zip(ends, ends[1:])):
            for h, values in zip(col.tolist(), addends[a:b].T.tolist()):
                cells[g * n + h] += values
    return np.fromiter(map(math.fsum, cells), float, len(cells)).reshape(
        len(rows), n)


def separated_inner(fa, fb, dom: BoxDomain, rule: QuadratureRule) -> float:
    """The tensor rule's value of the L2 inner product of two separated
    forms, a :class:`fields.SeparatedSum` each or tuples of them, one per
    component, without visiting the grid (sum factorisation): one correctly
    rounded sum of the addends c_k c_l H_kl of the merged terms of every
    component, the 1 x 1 :func:`_block` of their unkept :func:`_program`,
    or for a norm (``fb is fa``) its one-form :func:`_norms`."""
    forms = (fa,) if fb is fa else (fa, fb)
    program = _program([(axis_rules(dom, rule), None, forms, None)], False)
    if fb is fa:
        return _norms([1.0], program)[0]
    return float(_block(program, 0, np.ones(2), range(1), range(1, 2))[0, 0])


def _separated_gram(fl, fr, axes) -> np.ndarray:
    """The Gram matrix of the lists of separated forms ``fl`` and ``fr``
    (``fr is fl`` for a list with itself): a :func:`_block` of the unkept
    :func:`_program` of both lists, each entry as :func:`separated_inner`
    takes it (0 where rounding leaves it below zero and the two are one
    form, a norm)."""
    forms = tuple(fl if fr is fl else [*fl, *fr])
    G = _block(_program([(axes, None, forms, None)], False), 0,
               np.ones(len(forms)), range(len(fl)),
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
    on its spatial box, space-time atoms sliced there. The one-entry
    :func:`record_norms_sq`."""
    return record_norms_sq(dom, rule, {None: (terms, view, kind, at)})[None]


def norm_table(table, role=lambda atom: atom) -> tuple:
    """The declared form of ``table``, which maps each name to the ``(terms,
    view, kind, at)`` of a :func:`terms_norm_sq` (the view, kind and slice
    time may be left off, and a list stands for ``(terms,)``): one
    ``(name, terms, view, kind, at)`` per norm, lists made tuples and each
    atom replaced by its ``role``."""
    def declared(terms):
        return tuple(declared(t) if type(t) is list else (t[0], role(t[1]), t[2])
                     for t in terms)

    specs = ((n, s if type(s) is tuple else (s,)) for n, s in table.items())
    return tuple((n, declared(s[0]), *s[1:], *("value", "L2", None)[len(s) - 1:])
                 for n, s in specs)


# (declared table, box, rule, roles, the atoms' record keys) -> plan
_RECORDS = {}


def record_norms_sq(dom: BoxDomain, rule: QuadratureRule, table,
                    atoms: dict | None = None) -> dict:
    """The squared norms of a record, by name: ``table``, a
    :func:`norm_table`, names its atoms by role, and ``atoms`` binds each
    role to a field; a slice time may be ``"T"``, the horizon of ``dom``.
    Without ``atoms``, ``table`` is as :func:`norm_table` takes it, of
    fields, numbered in order of first appearance. The plan of the record
    (:func:`_compile`) is kept per table, box, rule and the atoms' record
    keys (:meth:`fields._Field.record_key`: a sum by its operands and
    which coefficients are 1.0 or -1.0, any other node by itself), at most
    :data:`PLAN_MEMO` plans: a warm record takes each raw term's multiplier
    as its sum atom's coefficient (1.0 for any other atom) times its signed
    base multiplier, c m as its leaf terms round it, in one product, and
    every formed L2 piece in one :func:`_norms`; any other piece takes its
    grid norm."""
    if atoms is None:
        seen = {}
        table = norm_table(table, lambda a: seen.setdefault(a, len(seen)))
        atoms = dict(map(reversed, seen.items()))
    keys, coefs = zip(*[a.record_key() for a in atoms.values()])
    key = table, dom, rule, tuple(atoms), keys
    plan = _RECORDS.get(key)
    if plan is None:
        plan = _compile(dom, rule, table, atoms, coefs)
        if len(_RECORDS) >= PLAN_MEMO:
            _RECORDS.clear()
        _RECORDS[key] = plan
    program, index, base, grid, trees = plan
    sums = iter(_norms(np.array(sum(coefs, (1.0,)))[index] * base, program)
                if program else ())
    values = [next(sums) if p is None else _grid_inner(
        *2 * [_expression(*p, atoms)], dom if p[2] is None else dom.spatial(),
        rule) for p in grid]
    return {n: values[t] if type(t) is int else _value(t, values)
            for (n, *_), t in zip(table, trees)}


def _compile(dom, rule, table, atoms, coefs):
    """The plan of ``table`` bound to ``atoms``, whose sums have ``coefs``:
    every norm checked by :func:`_resolve`, in order (the first refusal
    raised, no plan kept), its tree, and the kept :func:`_program` of the
    formed L2 pieces, with per raw term the index of its coefficient in
    ``(1.0, *coefs)`` and its signed base multiplier; per piece None, or
    for a formless one its ``(terms, view, at)``."""
    found = []
    trees = [_resolve(dom, found, atoms, terms, view, kind,
                      dom.time_horizon if at == "T" else at)
             for _, terms, view, kind, at in table]
    offsets = dict(zip(atoms, accumulate([1, *map(len, coefs)])))
    axes, pieces, index, base = {}, [], [], []
    for terms, view, at, recipe, forms in found:
        if forms is not None:
            index += [0 if j is None else offsets[r] + j for r, j, _ in recipe]
            base += [m for *_, m in recipe]
            whole = at is None
            if whole not in axes:
                axes[whole] = axis_rules(dom if whole else dom.spatial(), rule)
            pieces.append((axes[whole], at, forms, None))
    return (_program(pieces) if pieces else None,
            np.array(index, dtype=np.intp), np.array(base),
            [None if forms is not None else (terms, view, at)
             for terms, view, at, _, forms in found], trees)


def _value(tree, values) -> float:
    return math.fsum([s * (values[t] if type(t) is int else _value(t, values))
                      for s, t in tree])


def _resolve(dom, found, atoms, terms, view="value", kind="L2", at=None):
    """The tree of a norm of terms naming ``atoms`` by role: for L2 the
    index of its piece ``(terms, view, at, recipe, leaf forms)`` appended
    to ``found`` (see :func:`_leaves`); for a composite kind (scale, tree)
    per piece of :data:`_PARTS`, the terms checked again for each. Another
    ``at`` or kind is refused."""
    whole = at is None
    if not (whole or dom.is_parabolic and 0.0 <= at <= dom.time_horizon):
        raise ValueError(f"slice time at={at!r} must lie in [0, T] of a "
                         "space-time box")
    k = kind.lower()
    if k != "l2" and k not in _PARTS:
        raise ValueError(f"unknown norm kind: {kind!r}")
    _, forms, vector, recipe = _leaves(terms, view, dom if whole else
                                       dom.spatial(), whole, atoms=atoms)
    if k == "l2":
        found.append((terms, view, at, recipe, forms))
        return len(found) - 1
    if k == "hdiv" and not vector:
        raise TypeError("Hdiv norm requires a vector field")
    return [(s, _resolve(dom, found, atoms, terms, _VIEWS[view, v], part,
                         dom.time_horizon if end else at))
            for s, part, v, *end in _PARTS[k]]


def _leaves(terms, view: str, box: BoxDomain, whole: bool = True,
            rank: bool | None = None, atoms=None):
    """The multipliers and leaf forms (:meth:`fields._Field.leaf_terms`;
    None if an atom lacks them) of the ``view`` of the terms on ``box``,
    space-time atoms sliced unless ``whole``, whether they are vectors, and
    per multiplier (role, j, sign m): m times its sum atom's coefficient j,
    j None for any other atom. An atom is a field, or its role in
    ``atoms``. Terms are checked as :func:`_check_fields` checks fields;
    other signs, and ranks other than ``rank`` (True for vectors) if given,
    refused."""
    flat = [t for g in terms for t in g] if type(terms[0][0]) is tuple else terms
    td, dim = box.is_parabolic, len(box.lower)
    vector, mults, forms, recipe = set(), [], [], []
    for sign, role, name in flat:
        atom = role if atoms is None else atoms[role]
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
        if own is None:
            forms = None
        elif forms is not None:
            mults += own[0] if sign == 1.0 else own[2]
            forms += own[1]
            # a sum's coefficients vary per record, any other atom's do not
            sum_atom = bool(atom.record_key()[1])
            recipe += [(role, j, sign * m) for j, m in (
                own[3] if sum_atom else [(None, m) for m in own[0]])]
    if len(vector) > 1 or rank is not None and vector != {rank}:
        raise TypeError("rank mismatch: cannot pair a scalar with a vector field")
    return (mults, None if forms is None else tuple(forms), True in vector,
            recipe)


def _expression(terms, view: str, at, atoms=None):
    fields = [_expression(t, view, at, atoms) if type(t[0]) is tuple else
              _field(t[1] if atoms is None else atoms[t[1]], t[2], view, at)
              for t in terms]
    signs = [1.0 if type(t[0]) is tuple else t[0] for t in terms]
    return fields[0] if signs == [1.0] else combination(fields, signs)


def _field(atom, name, view, at):
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
