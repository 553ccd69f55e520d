"""Box domains and analytic scalar/vector fields.

Elliptic fields are functions of a point array ``X`` with shape ``(n, d)``;
space-time fields take ``(t, X)`` where ``t`` has shape ``(n,)``.
Derivatives are never approximated numerically: a field either carries an
analytic evaluator for a derivative or raises :class:`CapabilityError`.

A field is one immutable node (see :class:`_Field`): a leaf, a
:func:`combination` (``+``, ``-``, scalar ``*`` and restriction among them),
or a view (a derivative view, a time slice). A node knows its capabilities
and its two flags when made; its evaluator of a name, that evaluator's
*form* and :meth:`_Field.leaf_terms` are built at the first request and
kept. A form is the :class:`SeparatedSum` of 1-D :class:`Factor` products
the evaluator equals (a tuple of sums, one per component, for vectors), or
None. Fields of :mod:`errbounds.symbolic` are leaves with lambdified
evaluators and the split of their expression; a field that is its forms (a
constant, a zero, a trigonometric perturbation or flux basis field) is made
by :func:`form_field`, its evaluators evaluating its forms through
:func:`form_values` on the axes of the node sets :mod:`errbounds.quadrature`
registers here (:func:`grid_axes`) or on the columns of any other nodes.
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
        # the hash of the fields' tuple, kept beside them as _spatial is
        object.__setattr__(self, "_hash",
                           hash((lower, upper, self.time_horizon)))

    def __hash__(self):
        return self._hash

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
    evaluates each factor once per cached node array, and the plans of
    :mod:`errbounds.quadrature`, keyed by factor tuples, are met again by
    equal sums (:func:`quadrature._plan`). A factor made afresh each time,
    such as the time polynomial of a perturbation, gives each sum that
    holds it a plan of its own."""

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
    merge their terms on and :func:`quadrature._plan` keys its plans on,
    and a clear would split them into older and newer objects."""
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
        each coefficient times its sum's unless it is 1.0 (no bit moves)."""
        out, factors = [], []
        for s, c in zip(sums, coefs):
            out.extend(s.coefs if c == 1.0 else [c * a for a in s.coefs])
            factors.extend(s.factors)
        return SeparatedSum(out, factors)

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


def gradient_form(s: SeparatedSum, dim: int, time_dependent: bool) -> tuple:
    """The form of the gradient of the scalar form ``s``: one derivative
    per spatial axis, those after the time axis on a space-time box."""
    o = int(time_dependent)
    return tuple(s.derivative(o + j) for j in range(dim))


def _per_component(op, form):
    """``op`` of a scalar form, or of each component of a vector form."""
    return tuple(map(op, form)) if isinstance(form, tuple) else op(form)


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


def _evaluator(name):
    """Method calling the ``name`` evaluator, or raising CapabilityError."""
    def evaluate(self, *args) -> np.ndarray:
        return self.evaluator(name)(*args)

    evaluate.__name__ = evaluate.__qualname__ = name
    return evaluate


def _has(name):
    return property(lambda self: name in self.capabilities)


class _Field:
    """One immutable node of the field algebra. Its ``_kind`` and ``_args``:

    - ``leaf``, ``(evaluators, forms)``: a map from name to evaluator (None
      if the field is its forms, see :func:`form_field`) and one from name
      to a callable returning its form; other forms derive from ``value``'s;
    - ``sum``, ``(fields, coefs)``: see :func:`combination`;
    - ``view``, ``(base, names, t0)``: the base's evaluators and forms under
      the names ``names`` maps to, sliced at time ``t0`` unless it is None.

    Its capabilities (the names of its evaluators: ``value``, ``grad``,
    ``laplacian``, ``dt``, ``div``), boundary flag and ``flat`` (every
    multiplier of its leaf terms is 1.0 or -1.0) are set when made; its
    evaluators, forms and leaf terms are built when asked, kept by name."""

    __slots__ = ("dim", "time_dependent", "capabilities", "_vanishes", "flat",
                 "_kind", "_args", "_evaluators", "_forms", "_leaves")
    _RANK = ""
    _NAMES = ()  # the capabilities a field of this rank can have
    _KEEP = ()  # the keywords of ``restricted``

    def __init__(self, evaluators: dict, form, dim: int,
                 time_dependent: bool, vanishes: bool):
        """A leaf with the evaluators that are not None and, if ``form`` is
        given, the callable returning the value's form."""
        evaluators = {k: f for k, f in evaluators.items() if f is not None}
        self._set("leaf", (evaluators, {"value": form} if form else {}),
                  frozenset(evaluators), dim, time_dependent, vanishes)

    def _set(self, kind, args, caps, dim, time_dependent, vanishes):
        self.dim, self.time_dependent = dim, time_dependent
        self.capabilities, self._vanishes = caps, vanishes
        self.flat = (all(c in (1.0, -1.0) and f.flat for f, c in zip(*args))
                     if kind == "sum" else kind == "leaf" or args[2] is not None
                     or args[0].flat)
        self._kind, self._args, self._evaluators, self._forms, self._leaves = (
            kind, args, {}, {}, {})

    @classmethod
    def _node(cls, kind, args, caps, dim, time_dependent, vanishes=False):
        out = object.__new__(cls)
        out._set(kind, args, caps, dim, time_dependent, vanishes)
        return out

    def _check(self, name: str):
        if name not in self.capabilities:
            raise CapabilityError(f"{self._RANK} field carries no "
                                  f"{_NOUNS[name]} evaluator")

    def evaluator(self, name: str) -> Callable:
        """The ``name`` evaluator, or CapabilityError if there is none."""
        made = self._evaluators
        if name not in made:
            self._check(name)
            made[name] = self._build_evaluator(name)
        return made[name]

    def form(self, name: str):
        """The form of the ``name`` evaluator, a :class:`SeparatedSum` (a
        tuple of them, one per component, for vectors) or None."""
        made = self._forms
        if name not in made:
            self._check(name)
            made[name] = self._build_form(name)
        return made[name]

    def separated(self):
        """The separated form of the value (see :meth:`form`)."""
        return self.form("value")

    def leaf_terms(self, name: str):
        """The ``name`` form as (multipliers, memoised forms), or None: the
        forms' terms, coefficients times their multiplier, are the form's
        own bit for bit, a sum's form being built from them. A derivative
        view has its base's; a sum each operand's times c m where c is 1.0
        or -1.0 or the operand is ``flat`` (exact), else its own form times
        c (m = 1.0), and per multiplier its operand's index and m; any other
        node its own form times 1.0."""
        made = self._leaves
        if name not in made:
            self._check(name)
            made[name] = self._build_leaves(name)
        return made[name]

    def _build_leaves(self, name: str):
        kind, args = self._kind, self._args
        if kind == "view" and args[2] is None:
            return args[0].leaf_terms(args[1][name])
        if kind != "sum":
            form = self.form(name)
            return None if form is None else ((1.0,), (form,))
        mults, forms, bases = [], [], []
        for j, (f, c) in enumerate(zip(*args)):
            terms = f.leaf_terms(name)
            if terms is None:
                return None
            flat = c in (1.0, -1.0) or f.flat
            own = terms[0] if flat else (1.0,)
            mults += [c * m for m in own]
            bases += [(j, m) for m in own]
            forms += terms[1] if flat else [f.form(name)]
        return tuple(mults), tuple(forms), tuple(bases)

    def record_key(self):
        """What a plan of :mod:`errbounds.quadrature` keys this node on, and
        its coefficients: for a sum its rank, capabilities, operands and
        which operands' leaf terms it takes flat, which fix its leaf forms
        (see :meth:`leaf_terms`); any other node itself."""
        if self._kind != "sum":
            return self, ()
        fields, coefs = self._args
        return (type(self), self.capabilities, fields, tuple(
            [c in (1.0, -1.0) or f.flat for f, c in zip(fields, coefs)])), coefs

    def _build_evaluator(self, name: str) -> Callable:
        kind, args = self._kind, self._args
        if kind == "sum":
            fields, coefs = args
            return _combined([f.evaluator(name) for f in fields], coefs)
        if kind == "view":
            base, names, t0 = args
            f = base.evaluator(names[name])
            return f if t0 is None else lambda X: f(np.full(len(X), t0), X)
        if args[0] is not None:
            return args[0][name]
        form, dim = self.form(name), self.dim
        return lambda *args: form_values(form, args, dim)

    def _build_form(self, name: str):
        kind, args = self._kind, self._args
        if kind == "sum":
            terms = self.leaf_terms(name)
            if terms is None:
                return None
            mults, forms = terms[:2]
            if isinstance(forms[0], tuple):
                return tuple(SeparatedSum.combination(sums, mults)
                             for sums in zip(*forms))
            return SeparatedSum.combination(forms, mults)
        if kind == "view":
            base, names, t0 = args
            form = base.form(names[name])
            return (form if form is None or t0 is None
                    else _per_component(lambda s: s.at(t0), form))
        forms = args[1]
        if name in forms or name == "value":
            form = forms.get(name)
            return form and form()
        value, td = self.form("value"), self.time_dependent
        if value is None:
            return None
        if name == "dt":
            return _per_component(lambda s: s.derivative(0), value)
        v = value if name == "div" else gradient_form(value, self.dim, td)
        if name == "grad":
            return v
        # div (laplacian): each component of v differentiated on its axis
        return SeparatedSum.combination(
            [vj.derivative(int(td) + j) for j, vj in enumerate(v)],
            [1.0] * len(v))

    def _view(self, rank, names: dict, vanishes: bool = False, t0=None):
        """A field of ``rank`` whose evaluators, and forms, are this one's
        under the names ``names`` maps to (``value="grad"``), sliced at
        ``t0`` unless it is None; ``value``'s is required."""
        self._check(names["value"])
        caps = frozenset(k for k, n in names.items()
                         if n in self.capabilities)
        return rank._node("view", (self, names, t0), caps, self.dim,
                          self.time_dependent and t0 is None, vanishes)

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
        return self._view(type(self), {"value": "dt"})

    def at_time(self, t0: float):
        """Spatial slice at a fixed time; the result is an elliptic field."""
        if not self.time_dependent:
            raise ValueError("at_time requires a space-time field")
        return self._view(type(self), {k: k for k in self.capabilities
                                       if k != "dt"}, self._vanishes, t0)

    def restricted(self, **keep):
        """Copy with ``value`` and the selected capabilities (a combination)."""
        unknown = sorted(set(keep) - set(self._KEEP))
        if unknown:
            raise TypeError(f"restricted() got unexpected keywords {unknown}")
        return combination([self], [1.0], {"value", *(k for k in keep
                                                       if keep[k])})


def combination(fields, coefs, keep=None):
    """``sum_k coefs[k] * fields[k]``, for fields of one rank on one domain:
    a node holding the fields and coefficients, carrying the evaluators that
    every field carries (see :func:`_combined`), forms the
    :meth:`SeparatedSum.combination` of its leaf terms
    (:meth:`_Field.leaf_terms`), and vanishing on the boundary when every
    field does. ``+``, ``-`` and scalar ``*`` are its two-term and one-term
    cases. ``keep``, if given, is the set of
    capabilities the node may carry, ``value`` among them, with
    ``boundary_flag`` if it keeps the flag: :meth:`_Field.restricted` is
    the one-term case with coefficient 1.0. Fields and coefficients that
    differ in number, or are none, are refused."""
    if len(fields) != len(coefs) or not fields:
        raise ValueError(f"need equally many fields and coefficients, at "
                         f"least one: got {len(fields)} and {len(coefs)}")
    first = fields[0]
    caps, vanishes = first.capabilities, first._vanishes
    for f in fields[1:]:
        if not isinstance(f, type(first)):
            name = type(first).__name__
            raise TypeError(f"can only combine {name} with {name}")
        if f.dim != first.dim or f.time_dependent != first.time_dependent:
            raise ValueError("fields live on incompatible domains")
        caps = caps & f.capabilities
        vanishes = vanishes and f._vanishes
    if keep is not None:
        caps, vanishes = caps & keep, vanishes and "boundary_flag" in keep
    return first._node("sum", (tuple(fields), tuple(map(float, coefs))), caps,
                       first.dim, first.time_dependent, vanishes)


class ScalarField(_Field):
    """Pointwise-evaluable scalar field with optional analytic derivatives.
    ``form``, if given, returns the value's :class:`SeparatedSum` (or None);
    the forms of the derivatives follow from it."""

    __slots__ = ()
    _RANK = "scalar"
    _NAMES = ("value", "grad", "laplacian", "dt")
    _KEEP = ("grad", "laplacian", "dt", "boundary_flag")

    def __init__(self, value: Callable, grad: Callable | None = None,
                 laplacian: Callable | None = None, dt: Callable | None = None,
                 *, dim: int, time_dependent: bool = False,
                 vanishes_on_boundary: bool = False,
                 form: Callable | None = None):
        super().__init__(dict(value=value, grad=grad, laplacian=laplacian,
                              dt=dt), form, dim, time_dependent,
                         vanishes_on_boundary)

    @property
    def vanishes_on_boundary(self) -> bool:
        return self._vanishes

    has_grad, has_laplacian = _has("grad"), _has("laplacian")
    grad, laplacian = _evaluator("grad"), _evaluator("laplacian")

    def value(self, *args) -> np.ndarray:
        return self.evaluator("value")(*args)

    def gradient_field(self) -> "VectorField":
        return self._view(VectorField, {"value": "grad", "div": "laplacian"})

    def laplacian_field(self) -> "ScalarField":
        return self._view(ScalarField, {"value": "laplacian"})


class VectorField(_Field):
    """Pointwise-evaluable vector field with optional divergence. ``form``,
    if given, returns the value's tuple of sums, one per component (or
    None)."""

    __slots__ = ()
    _RANK = "vector"
    _NAMES = ("value", "div", "dt")
    _KEEP = ("div", "dt")

    def __init__(self, value: Callable, div: Callable | None = None,
                 dt: Callable | None = None, *, dim: int,
                 time_dependent: bool = False, form: Callable | None = None):
        super().__init__(dict(value=value, div=div, dt=dt), form, dim,
                         time_dependent, False)

    has_div = _has("div")
    div = _evaluator("div")

    def value(self, *args) -> np.ndarray:
        return self.evaluator("value")(*args)

    def div_field(self) -> ScalarField:
        return self._view(ScalarField, {"value": "div"})


def form_field(rank, forms: dict, dom: BoxDomain, vanishes: bool = False):
    """A field of ``rank`` on ``dom`` that is its forms: ``forms`` maps
    ``value``, and any name whose form does not derive from the value's,
    to a callable returning that form; each evaluator evaluates its form
    through :func:`form_values`. It carries every evaluator of its rank,
    ``dt`` only on a space-time box."""
    td = dom.is_parabolic
    caps = frozenset(k for k in rank._NAMES if td or k != "dt")
    return rank._node("leaf", (None, forms), caps, dom.dim, td, vanishes)


def constant_scalar(c: float, dom: BoxDomain) -> ScalarField:
    c = float(c)
    value = SeparatedSum([c], [(ONE,) * (dom.dim + dom.is_parabolic)])
    return form_field(ScalarField, {"value": lambda: value}, dom,
                      vanishes=(c == 0.0))


def zero_scalar(dom: BoxDomain) -> ScalarField:
    return constant_scalar(0.0, dom)


def zero_vector(dom: BoxDomain) -> VectorField:
    return form_field(VectorField, {"value": lambda: (_empty(),) * dom.dim},
                      dom)
