"""Box domains and analytic scalar/vector fields.

Fields wrap vectorized numpy callables.  Elliptic fields are functions of a
point array ``X`` with shape ``(n, d)``; space-time fields take ``(t, X)``
where ``t`` has shape ``(n,)``.  Derivatives are never approximated
numerically: a field either carries an analytic evaluator for a derivative
or raises :class:`CapabilityError` when it is requested.
"""
from __future__ import annotations

import dataclasses
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
        """The spatial box without the time interval."""
        if not self.is_parabolic:
            return self
        return BoxDomain(self.lower, self.upper)


# how CapabilityError messages name each derivative evaluator
_NOUNS = {"grad": "gradient", "laplacian": "laplacian",
          "dt": "time-derivative", "div": "divergence"}


def _add(f, g):
    return lambda *args: np.add(f(*args), g(*args))


def _scale(f, c):
    return lambda *args: c * f(*args)


def _freeze_time(f, t0):
    return lambda X: f(np.full(X.shape[0], t0), X)


def _zeros(*tail):
    """Evaluator of zeros shaped (n, *tail) for n points."""
    return lambda *args: np.zeros((args[-1].shape[0],) + tail)


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
    The algebra is shared by both ranks, and a combination carries the
    evaluators that all its operands carry."""

    __slots__ = ("_ev", "dim", "time_dependent", "_vanishes")
    _RANK = ""
    _KEEP = ()  # the keywords of ``restricted``

    def __init__(self, ev: dict, dim: int, time_dependent: bool,
                 vanishes: bool = False):
        self._ev = {k: f for k, f in ev.items() if f is not None}
        self.dim = dim
        self.time_dependent = time_dependent
        self._vanishes = vanishes

    def _like(self, ev: dict, vanishes: bool = False, time_dependent=None):
        """A field of this rank and dimension with evaluator map ``ev``."""
        out = object.__new__(type(self))
        _Field.__init__(out, ev, self.dim, self.time_dependent
                        if time_dependent is None else time_dependent, vanishes)
        return out

    def _get(self, name: str) -> Callable:
        try:
            return self._ev[name]
        except KeyError:
            raise CapabilityError(f"{self._RANK} field carries no "
                                  f"{_NOUNS[name]} evaluator") from None

    has_dt = _has("dt")
    dt = _evaluator("dt")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            name = type(self).__name__
            raise TypeError(f"can only combine {name} with {name}")
        if self.dim != other.dim or self.time_dependent != other.time_dependent:
            raise ValueError("fields live on incompatible domains")
        ev = {k: _add(f, other._ev[k]) for k, f in self._ev.items()
              if k in other._ev}
        return self._like(ev, self._vanishes and other._vanishes)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, c):
        c = float(c)
        return self._like({k: _scale(f, c) for k, f in self._ev.items()},
                          self._vanishes)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def dt_field(self):
        return self._like({"value": self._get("dt")})

    def at_time(self, t0: float):
        """Spatial slice at a fixed time; the result is an elliptic field."""
        if not self.time_dependent:
            raise ValueError("at_time requires a space-time field")
        ev = {k: _freeze_time(f, t0) for k, f in self._ev.items() if k != "dt"}
        return self._like(ev, self._vanishes, time_dependent=False)

    def restricted(self, **keep):
        """Copy with ``value`` and only the selected capabilities retained."""
        unknown = sorted(set(keep) - set(self._KEEP))
        if unknown:
            raise TypeError(f"restricted() got unexpected keywords {unknown}")
        ev = {k: f for k, f in self._ev.items() if k == "value" or keep.get(k)}
        return self._like(ev, self._vanishes and keep.get("boundary_flag", False))


class ScalarField(_Field):
    """Pointwise-evaluable scalar field with optional analytic derivatives."""

    __slots__ = ()
    _RANK = "scalar"
    _KEEP = ("grad", "laplacian", "dt", "boundary_flag")

    def __init__(self, value: Callable, grad: Callable | None = None,
                 laplacian: Callable | None = None, dt: Callable | None = None,
                 *, dim: int, time_dependent: bool = False,
                 vanishes_on_boundary: bool = False):
        super().__init__(dict(value=value, grad=grad, laplacian=laplacian,
                              dt=dt), dim, time_dependent, vanishes_on_boundary)

    @property
    def vanishes_on_boundary(self) -> bool:
        return self._vanishes

    has_grad, has_laplacian = _has("grad"), _has("laplacian")
    grad, laplacian = _evaluator("grad"), _evaluator("laplacian")

    def value(self, *args) -> np.ndarray:
        return self._ev["value"](*args)

    def gradient_field(self) -> "VectorField":
        return VectorField(self._get("grad"), div=self._ev.get("laplacian"),
                           dim=self.dim, time_dependent=self.time_dependent)

    def laplacian_field(self) -> "ScalarField":
        return self._like({"value": self._get("laplacian")})


class VectorField(_Field):
    """Pointwise-evaluable vector field with optional divergence."""

    __slots__ = ()
    _RANK = "vector"
    _KEEP = ("div", "dt")

    def __init__(self, value: Callable, div: Callable | None = None,
                 dt: Callable | None = None, *, dim: int,
                 time_dependent: bool = False):
        super().__init__(dict(value=value, div=div, dt=dt), dim, time_dependent)

    has_div = _has("div")
    div = _evaluator("div")

    def value(self, *args) -> np.ndarray:
        return self._ev["value"](*args)

    def div_field(self) -> ScalarField:
        return ScalarField(self._get("div"), dim=self.dim,
                           time_dependent=self.time_dependent)


def constant_scalar(c: float, dom: BoxDomain) -> ScalarField:
    c = float(c)
    return ScalarField(lambda *args: np.full(args[-1].shape[0], c),
                       _zeros(dom.dim), _zeros(),
                       _zeros() if dom.is_parabolic else None,
                       dim=dom.dim, time_dependent=dom.is_parabolic,
                       vanishes_on_boundary=(c == 0.0))


def zero_scalar(dom: BoxDomain) -> ScalarField:
    return constant_scalar(0.0, dom)


def zero_vector(dom: BoxDomain) -> VectorField:
    return VectorField(_zeros(dom.dim), _zeros(),
                       _zeros(dom.dim) if dom.is_parabolic else None,
                       dim=dom.dim, time_dependent=dom.is_parabolic)
