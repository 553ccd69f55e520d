"""Box domains and analytic scalar/vector fields.

Fields wrap vectorized numpy callables.  Elliptic fields are functions of a
point array ``X`` with shape ``(n, d)``; space-time fields take ``(t, X)``
where ``t`` has shape ``(n,)``.  Derivatives are never approximated
numerically: a field either carries an analytic evaluator for a derivative
or raises :class:`CapabilityError` when it is requested.

A field may also carry the *form* of some of its evaluators: the
:class:`SeparatedSum` of 1-D :class:`Factor` products it equals (a tuple of
sums, one per component, for vectors), built at most once, when a norm
first asks (see :meth:`_Field.separated`). Manufactured solutions and the
data derived from them carry forms beside evaluators of their own (see
:mod:`errbounds.symbolic`); a field built from bare callables, or from an
expression that does not split, carries none. A field that is its forms,
such as a constant, a zero, or a trigonometric perturbation or flux basis
field, is made by :func:`form_field`: each of its evaluators evaluates its
form through :func:`form_values`, on the axes of the node sets that
:mod:`errbounds.quadrature` registers here (:func:`grid_axes`) or on the
columns of any other nodes (:func:`coordinates`). The algebra keeps forms
alongside the evaluators: a :func:`combination` (``+``, ``-`` and scalar
``*`` among them) concatenates the terms of its operands with scaled
coefficients, ``at_time`` folds the time factor into the coefficients, and
the derivative views differentiate one factor per term.
:func:`quadrature.l2_inner` integrates two fields that carry forms axis by
axis and everything else on the full grid.
"""
from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Optional

import numpy as np


class CapabilityError(Exception):
    """A derivative evaluator was requested that the field does not carry."""


class ConformityError(Exception):
    """A field violates the conformity contract of an estimator."""


@dataclasses.dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box, optionally extended by a time interval (0, T)."""

    lower: tuple
    upper: tuple
    time_horizon: Optional[float] = None

    def __post_init__(self):
        lower = tuple(float(v) for v in np.atleast_1d(self.lower))
        upper = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper):
            raise ValueError("lower and upper must have the same length")
        if not 1 <= len(lower) <= 3:
            raise ValueError("spatial dimension must be 1, 2 or 3")
        for lo, hi in zip(lower, upper):
            if not hi > lo:
                raise ValueError(f"degenerate axis: upper {hi} must exceed lower {lo}")
        if self.time_horizon is not None:
            t = float(self.time_horizon)
            if not t > 0.0:
                raise ValueError("time_horizon must be strictly positive")
            object.__setattr__(self, "time_horizon", t)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def sides(self) -> tuple:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    @property
    def is_parabolic(self) -> bool:
        return self.time_horizon is not None

    def spatial(self) -> "BoxDomain":
        """The spatial box without the time interval: the box itself on an
        elliptic box, else one box per parabolic box, built at the first
        call and held beside the fields, so equality, hash and repr do not
        see it."""
        if not self.is_parabolic:
            return self
        box = self.__dict__.get("_spatial")
        if box is None:
            box = BoxDomain(self.lower, self.upper)
            object.__setattr__(self, "_spatial", box)
        return box


class Factor:
    """A function of one coordinate with a known derivative. ``fn`` maps a
    1-D array of coordinates to the values there; ``derive`` returns the
    derivative as pairs ``(scale, factor)``, the sum of scale times factor
    (none where it is zero). Factors are interned where they are made
    (:func:`interned`), so equal factors are one object: terms of a sum
    with the same factors merge (:meth:`SeparatedSum.merged`), :meth:`on`
    evaluates each factor once per cached node array, and the table of a
    cached 1-D rule (:func:`quadrature.axis_grams`) integrates the product
    of each pair of factors once, holding the factors it has a row for, at
    most :data:`quadrature.AXIS_GRAM_MEMO` of them per rule. A factor made
    afresh each time, such as the time polynomial of a perturbation, is
    integrated again in each new object."""

    __slots__ = ("_fn", "_derive", "_derivative", "_memo")

    def __init__(self, fn: Callable, derive: Callable):
        self._fn = fn
        self._derive = derive
        self._derivative = None
        self._memo = {}

    def derivative(self) -> tuple:
        """The pairs of ``derive``, derived at the first call."""
        if self._derivative is None:
            self._derivative = self._derive()
        return self._derivative

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The values at the coordinates ``x``, not memoised."""
        return np.broadcast_to(np.asarray(self._fn(x), dtype=float), x.shape)

    def on(self, x: np.ndarray) -> np.ndarray:
        """The values at the nodes ``x``, a read-only 1-D array of a cached
        rule or a reshaped view of one (``np.ix_``), memoised on the 1-D
        array's id (holding it keeps the id its own)."""
        base = x if x.base is None or x.base.size != x.size else x.base
        hit = self._memo.get(id(base))
        if hit is None:
            hit = self._memo[id(base)] = (base, self(base))
        return hit[1].reshape(x.shape)

    def at(self, t0: float) -> float:
        """The value at the coordinate ``t0``, memoised on it."""
        key = ("at", t0)
        if key not in self._memo:
            self._memo[key] = float(self(np.array([t0]))[0])
        return self._memo[key]


# the factor 1 of an axis a term does not depend on
ONE = Factor(np.ones_like, tuple)


def interned(fn):
    """``fn`` memoised per process for good: equal arguments always give
    the object made at the first call. It exposes no ``cache_clear``:
    factors are interned so that equal ones are one object, which sums
    merge their terms on and :func:`quadrature.axis_grams` keys its rows
    on, and a clear would split them into older and newer objects."""
    made = functools.lru_cache(maxsize=None)(fn)

    @functools.wraps(fn)
    def intern(*args, **kw):
        return made(*args, **kw)

    return intern


@interned
def trig_factor(func: str, freq: float, lo: float) -> Factor:
    """The factor sin or cos of freq (x - lo), one object per process."""
    fn, other, sign = ((np.sin, "cos", 1.0) if func == "sin"
                       else (np.cos, "sin", -1.0))
    return Factor(lambda x: fn(freq * (x - lo)),
                  lambda: ((sign * freq, trig_factor(other, freq, lo)),))


class SeparatedSum:
    """``sum_k coefs[k] * prod_i factors[k][i](x_i)``: a scalar function as
    a short sum of products of 1-D factors, one per axis, time first on a
    space-time domain. An empty sum is zero. A sum never changes."""

    __slots__ = ("coefs", "factors", "_merged")

    def __init__(self, coefs, factors):
        self.coefs = tuple(coefs)
        self.factors = tuple(factors)
        self._merged = None

    @staticmethod
    def combination(sums, coefs) -> "SeparatedSum":
        """``sum_k coefs[k] * sums[k]``: the terms of every sum in order,
        each coefficient times its sum's."""
        return SeparatedSum([c * a for s, c in zip(sums, coefs)
                             for a in s.coefs],
                            [fs for s in sums for fs in s.factors])

    def derivative(self, axis: int) -> "SeparatedSum":
        """The derivative along ``axis``: one factor per term differentiated,
        into as many terms as its derivative has."""
        coefs, factors = [], []
        for c, fs in zip(self.coefs, self.factors):
            for scale, g in fs[axis].derivative():
                coefs.append(c * scale)
                factors.append(fs[:axis] + (g,) + fs[axis + 1:])
        return SeparatedSum(coefs, factors)

    def at(self, t0: float) -> "SeparatedSum":
        """The slice at time ``t0``: the first factor folded into the
        coefficients."""
        return SeparatedSum([c * fs[0].at(t0) for c, fs in
                             zip(self.coefs, self.factors)],
                            [fs[1:] for fs in self.factors])

    def merged(self) -> "SeparatedSum":
        """Terms with the same factors combined, in order of first
        appearance, and those whose coefficients cancel to zero dropped;
        built at the first call."""
        if self._merged is not None:
            return self._merged
        index, coefs, factors = {}, [], []
        for c, fs in zip(self.coefs, self.factors):
            key = tuple(map(id, fs))
            if key in index:
                coefs[index[key]] += c
            else:
                index[key] = len(coefs)
                coefs.append(c)
                factors.append(fs)
        keep = [k for k, c in enumerate(coefs) if c != 0.0]
        self._merged = self if len(keep) == len(self.coefs) else SeparatedSum(
            [coefs[k] for k in keep], [factors[k] for k in keep])
        return self._merged


# ids of the arrays of a cached node set, ``(X,)`` or ``(t, X)`` -> (those
# arrays, their per-coordinate axes, the grid shape), registered by
# :mod:`errbounds.quadrature` as it makes them. The axes, time first, are the
# 1-D nodes shaped to broadcast against each other; the grid they broadcast
# to, raveled in C order, is the node order of the arrays. Holding the arrays
# keeps their ids from being reused.
_GRIDS = {}


def grid_axes(args):
    """The broadcast axes of the node set whose cached arrays are ``args``,
    ``(X,)`` of :func:`quadrature.space_nodes` or ``(t, X)`` of
    :func:`quadrature.spacetime_nodes`; None for any other arrays, copies
    included."""
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


def form_values(form, args, dim: int) -> np.ndarray:
    """The values of a separated form at the nodes ``args``, ``(X,)`` or
    ``(t, X)`` of a ``dim``-D box: ``(N,)`` for a
    :class:`SeparatedSum`, ``(N, dim)`` for a tuple of them, one per
    component. Per merged term, its coefficient times its factors' values
    in axis order, added into zeros. On a cached node set the factors take
    the 1-D axes of :func:`coordinates`, memoised by
    :meth:`Factor.on`, and the products broadcast to the grid (sum
    factorisation); on any other arrays they take the columns, unmemoised.
    Both give the same values to the last bit."""
    if isinstance(form, tuple):
        return np.stack([form_values(s, args, dim) for s in form], axis=-1)
    coords, shape = coordinates(args, dim)
    values = Factor.on if coords is grid_axes(args) else Factor.__call__
    form = form.merged()
    out = np.zeros(shape)
    for c, fs in zip(form.coefs, form.factors):
        term = c
        for f, x in zip(fs, coords):
            term = term * values(f, x)
        out += term
    return out.ravel()


def _empty() -> SeparatedSum:
    return SeparatedSum((), ())


def _lazy(fn):
    """``fn`` run at the first call only; later calls return its result."""
    kept = []

    def get():
        if not kept:
            kept.append(fn())
        return kept[0]

    return get


def _each(op, *forms):
    """``op`` applied to scalar forms, per component to vector forms; None
    if any form is None (an operand did not split)."""
    if any(f is None for f in forms):
        return None
    if isinstance(forms[0], tuple):
        return tuple(op(*c) for c in zip(*forms))
    return op(*forms)


def _dt(form: Callable) -> Callable:
    return _lazy(lambda: _each(lambda s: s.derivative(0), form()))


def _div(form: Callable, o: int) -> Callable:
    """The divergence of the vector form ``form()``, whose first spatial
    axis is axis ``o``: each component differentiated along its axis."""
    def div():
        v = form()
        return None if v is None else SeparatedSum.combination(
            [vj.derivative(o + j) for j, vj in enumerate(v)], [1.0] * len(v))

    return _lazy(div)


def scalar_forms(form: Callable, dim: int, time_dependent: bool) -> dict:
    """The forms of a scalar field's evaluators from ``form``, a callable
    returning the value's :class:`SeparatedSum` (or None): each derivative
    differentiates one factor per term, and is built at its first call."""
    o = int(time_dependent)

    def grad():
        s = form()
        return None if s is None else tuple(s.derivative(o + j)
                                            for j in range(dim))

    grad = _lazy(grad)
    return {"value": form, "grad": grad, "laplacian": _div(grad, o),
            "dt": _dt(form)}


def vector_forms(form: Callable, time_dependent: bool) -> dict:
    """The forms of a vector field's evaluators from ``form``, a callable
    returning the value's tuple of sums (or None); see :func:`scalar_forms`."""
    return {"value": form, "div": _div(form, int(time_dependent)),
            "dt": _dt(form)}


def combination(fields, coefs):
    """``sum_k coefs[k] * fields[k]`` in one step, for fields of one rank on
    one domain: it carries the evaluators, and forms, that every field
    carries, each the terms of all fields in order (see :func:`_combined`
    and :meth:`SeparatedSum.combination`), and vanishes on the boundary
    when every field does. ``+``, ``-`` and scalar ``*`` are its two-term
    and one-term cases."""
    first = fields[0]
    for f in fields[1:]:
        if not isinstance(f, type(first)):
            name = type(first).__name__
            raise TypeError(f"can only combine {name} with {name}")
        if f.dim != first.dim or f.time_dependent != first.time_dependent:
            raise ValueError("fields live on incompatible domains")
    coefs = [float(c) for c in coefs]
    ev = {k: _combined([f._ev[k] for f in fields], coefs)
          for k in first._ev if all(k in f._ev for f in fields)}
    forms = {k: _lazy(lambda forms=[f._forms[k] for f in fields]: _each(
                 lambda *sums: SeparatedSum.combination(sums, coefs),
                 *(form() for form in forms)))
             for k in first._forms if all(k in f._forms for f in fields)}
    return first._like(ev, all(f._vanishes for f in fields), forms=forms)


# how CapabilityError messages name each derivative evaluator
_NOUNS = {"grad": "gradient", "laplacian": "laplacian",
          "dt": "time-derivative", "div": "divergence"}


def _combined(evaluators, coefs):
    """The evaluator of ``sum_k coefs[k] * evaluators[k]``, the terms
    added left to right; a coefficient 1.0, which would not change a
    value, is not multiplied."""
    def evaluate(*args):
        out = None
        for c, f in zip(coefs, evaluators):
            v = f(*args) if c == 1.0 else c * f(*args)
            out = v if out is None else out + v
        return out

    return evaluate


def _freeze_time(f, t0):
    return lambda X: f(np.full(X.shape[0], t0), X)


def _evaluator(name):
    """Method calling the ``name`` evaluator, or raising CapabilityError."""
    def evaluate(self, *args) -> np.ndarray:
        return self._get(name)(*args)

    evaluate.__name__ = evaluate.__qualname__ = name
    return evaluate


def _has(name):
    return property(lambda self: name in self._ev)


class _Field:
    """Evaluators in one map from name (``value``, ``grad``, ``laplacian``,
    ``dt``, ``div``) to callable; a missing name is a missing capability.
    Beside it, forms in a map from the same names to callables returning
    the evaluator's separated form (or None); a name only there if its
    evaluator is. The algebra is shared by both ranks, and a combination
    carries the evaluators, and forms, that all its operands carry."""

    __slots__ = ("_ev", "_forms", "dim", "time_dependent", "_vanishes")
    _RANK = ""
    _KEEP = ()  # the keywords of ``restricted``

    def __init__(self, ev: dict, dim: int, time_dependent: bool,
                 vanishes: bool = False, forms: dict | None = None):
        self._ev = {k: f for k, f in ev.items() if f is not None}
        self._forms = {k: f for k, f in (forms or {}).items()
                       if f is not None and k in self._ev}
        self.dim = dim
        self.time_dependent = time_dependent
        self._vanishes = vanishes

    @classmethod
    def _from_maps(cls, ev: dict, dim: int, time_dependent: bool,
                   vanishes: bool = False, forms: dict | None = None):
        """A field of this rank with evaluator map ``ev`` and form map
        ``forms``."""
        out = object.__new__(cls)
        _Field.__init__(out, ev, dim, time_dependent, vanishes, forms)
        return out

    def _like(self, ev: dict, vanishes: bool = False, time_dependent=None,
              forms: dict | None = None, rank=None):
        """A field of this rank (or ``rank``) and dimension with evaluator
        map ``ev`` and form map ``forms``."""
        return (rank or type(self))._from_maps(
            ev, self.dim, self.time_dependent if time_dependent is None
            else time_dependent, vanishes, forms)

    def _get(self, name: str) -> Callable:
        try:
            return self._ev[name]
        except KeyError:
            raise CapabilityError(f"{self._RANK} field carries no "
                                  f"{_NOUNS[name]} evaluator") from None

    def _view(self, rank, **names):
        """A field of ``rank`` whose evaluators, and forms, are this one's
        under other names (``value="grad"``); the first is required."""
        first = next(iter(names.values()))
        self._get(first)
        return self._like({k: self._ev.get(n) for k, n in names.items()},
                          forms={k: self._forms.get(n)
                                 for k, n in names.items()}, rank=rank)

    def separated(self):
        """The separated form of the value, a :class:`SeparatedSum` (a tuple
        of them, one per component, for vectors), or None if there is none."""
        form = self._forms.get("value")
        return None if form is None else form()

    def without_forms(self):
        """This field with its evaluators only, so its norms are taken on
        the full grid."""
        return self._like(self._ev, self._vanishes)

    has_dt = _has("dt")
    dt = _evaluator("dt")

    def __add__(self, other):
        return combination([self, other], [1.0, 1.0])

    def __sub__(self, other):
        return combination([self, other], [1.0, -1.0])

    def __mul__(self, c):
        return combination([self], [c])

    __rmul__ = __mul__

    def __neg__(self):
        return combination([self], [-1.0])

    def dt_field(self):
        return self._view(type(self), value="dt")

    def at_time(self, t0: float):
        """Spatial slice at a fixed time; the result is an elliptic field."""
        if not self.time_dependent:
            raise ValueError("at_time requires a space-time field")
        ev = {k: _freeze_time(f, t0) for k, f in self._ev.items() if k != "dt"}
        forms = {k: _lazy(lambda f=f: _each(lambda s: s.at(t0), f()))
                 for k, f in self._forms.items() if k != "dt"}
        return self._like(ev, self._vanishes, time_dependent=False,
                          forms=forms)

    def restricted(self, **keep):
        """Copy with ``value`` and only the selected capabilities retained."""
        unknown = sorted(set(keep) - set(self._KEEP))
        if unknown:
            raise TypeError(f"restricted() got unexpected keywords {unknown}")
        ev = {k: f for k, f in self._ev.items() if k == "value" or keep.get(k)}
        return self._like(ev, self._vanishes and keep.get("boundary_flag", False),
                          forms=self._forms)


class ScalarField(_Field):
    """Pointwise-evaluable scalar field with optional analytic derivatives.
    ``form``, if given, returns the value's :class:`SeparatedSum` (or None);
    the forms of the derivatives follow from it (:func:`scalar_forms`)."""

    __slots__ = ()
    _RANK = "scalar"
    _KEEP = ("grad", "laplacian", "dt", "boundary_flag")

    def __init__(self, value: Callable, grad: Callable | None = None,
                 laplacian: Callable | None = None, dt: Callable | None = None,
                 *, dim: int, time_dependent: bool = False,
                 vanishes_on_boundary: bool = False,
                 form: Callable | None = None):
        super().__init__(dict(value=value, grad=grad, laplacian=laplacian,
                              dt=dt), dim, time_dependent, vanishes_on_boundary,
                         form and scalar_forms(form, dim, time_dependent))

    @property
    def vanishes_on_boundary(self) -> bool:
        return self._vanishes

    has_grad, has_laplacian = _has("grad"), _has("laplacian")
    grad, laplacian = _evaluator("grad"), _evaluator("laplacian")

    def value(self, *args) -> np.ndarray:
        return self._ev["value"](*args)

    def gradient_field(self) -> "VectorField":
        return self._view(VectorField, value="grad", div="laplacian")

    def laplacian_field(self) -> "ScalarField":
        return self._view(ScalarField, value="laplacian")


class VectorField(_Field):
    """Pointwise-evaluable vector field with optional divergence. ``form``,
    if given, returns the value's tuple of sums, one per component (or
    None); see :func:`vector_forms`."""

    __slots__ = ()
    _RANK = "vector"
    _KEEP = ("div", "dt")

    def __init__(self, value: Callable, div: Callable | None = None,
                 dt: Callable | None = None, *, dim: int,
                 time_dependent: bool = False, form: Callable | None = None):
        super().__init__(dict(value=value, div=div, dt=dt), dim, time_dependent,
                         forms=form and vector_forms(form, time_dependent))

    has_div = _has("div")
    div = _evaluator("div")

    def value(self, *args) -> np.ndarray:
        return self._ev["value"](*args)

    def div_field(self) -> ScalarField:
        return self._view(ScalarField, value="div")


def form_field(rank, forms: dict, dom: BoxDomain, vanishes: bool = False):
    """A field of ``rank`` on ``dom`` whose evaluators are the values of its
    forms ``forms`` (see :func:`scalar_forms`), each evaluating its form
    through :func:`form_values`; none of them ``dt`` on an elliptic box."""
    dim, td = dom.dim, dom.is_parabolic
    ev = {k: lambda *args, f=f: form_values(f(), args, dim)
          for k, f in forms.items() if td or k != "dt"}
    return rank._from_maps(ev, dim, td, vanishes, forms)


def constant_scalar(c: float, dom: BoxDomain) -> ScalarField:
    c = float(c)
    value = SeparatedSum([c], [(ONE,) * (dom.dim + dom.is_parabolic)])
    return form_field(ScalarField, scalar_forms(lambda: value, dom.dim,
                                                dom.is_parabolic),
                      dom, vanishes=(c == 0.0))


def zero_scalar(dom: BoxDomain) -> ScalarField:
    return constant_scalar(0.0, dom)


def zero_vector(dom: BoxDomain) -> VectorField:
    return form_field(VectorField, vector_forms(
        lambda: (_empty(),) * dom.dim, dom.is_parabolic), dom)
