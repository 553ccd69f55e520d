"""Solution text to sympy expressions to fields.

Text enters sympy only through :func:`parse`, which builds the expression
from the text's syntax tree and never runs it as Python. Derivatives are
taken symbolically and lambdified once per expression per process, so the
only error in any evaluated identity is quadrature error, and a case built
again builds no sympy function again. Whether a scalar field vanishes on the
boundary is decided exactly, face by face, once per expression and box.

Every field built here carries the separated form of its value (see
:mod:`errbounds.fields`), split lazily: at the first norm that asks, never
when the field is built, once per expression per process. The split
expands the expression, takes its terms and separates each into 1-D
factors, one per coordinate; each factor is lambdified once per process
per (factor, coordinate). An expression with a term that does not separate,
such as ``sin(pi*x*y)``, or with more than :data:`_MAX_TERMS` terms, in
itself or inside a function's argument (which the expansion expands too),
has no form, and its fields are integrated on the full grid.
"""
from __future__ import annotations

import ast
import math
import operator
from functools import lru_cache, partial, wraps

import numpy as np
import sympy as sp
from sympy.core.evalf import PrecisionExhausted
from sympy.printing.numpy import NumPyPrinter

from .fields import (ONE, BoxDomain, Factor, ScalarField, SeparatedSum,
                     VectorField, coordinates, interned, trig_factor)

X_SYMBOLS = sp.symbols("x y z")
T_SYMBOL = sp.Symbol("t")

# the names and functions a solution may use besides its coordinates
CONSTANTS = {"pi": sp.pi, "E": sp.E}
FUNCTIONS = {f.__name__: f for f in (
    sp.exp, sp.log, sp.sqrt, sp.sin, sp.cos, sp.tan, sp.asin, sp.acos,
    sp.atan, sp.sinh, sp.cosh, sp.tanh)}
# sympy evaluates arithmetic on rational numbers eagerly, in time that grows
# with the size of the result: a number of more than this many bits, or a
# power that would build one, is refused
_NUMBER_BITS = 10_000


class SolutionError(ValueError):
    """Solution text outside the grammar of :func:`parse`."""


def _bits(expr) -> float:
    """log2 of the larger of the numerator and the denominator of the
    rational coefficient of ``expr`` (its ``as_coeff_Mul``); 0 if none."""
    coeff = expr.as_coeff_Mul()[0]
    if not isinstance(coeff, sp.Rational):
        return 0.0
    return math.log2(max(abs(coeff.p), coeff.q))


def _too_large():
    return SolutionError(f"builds a number of more than {_NUMBER_BITS} bits")


def _power(base, exponent):
    if (isinstance(exponent, sp.Rational)
            and abs(exponent) * _bits(base) > _NUMBER_BITS):
        raise _too_large()
    return base ** exponent


_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: _power, ast.UAdd: operator.pos,
              ast.USub: operator.neg}


@lru_cache(maxsize=None)
def parse(text: str, dim: int, time_dependent: bool = False) -> sp.Expr:
    """The sympy expression of ``text`` in the coordinates of a ``dim``-D
    box (and ``t`` when ``time_dependent``), built node by node from the
    text's Python syntax tree, so nothing in it is run. It may hold int and
    float literals, those coordinates, ``pi`` and ``E``, calls of
    :data:`FUNCTIONS` without keywords, ``+ - * / **``, ``^`` (read as
    ``**``) and unary signs; anything else raises :class:`SolutionError`,
    and so does a part without coordinates that is not a real, finite
    number (``log(0)``, ``sqrt(-1)``, ``acos(2)``)."""
    text = text.strip().replace("^", "**")
    coords = X_SYMBOLS[:dim] + ((T_SYMBOL,) if time_dependent else ())
    names = {**{str(s): s for s in coords}, **CONSTANTS}

    def build(node):
        value = build_node(node)
        if _bits(value) > _NUMBER_BITS:
            raise _too_large()
        if not (value.free_symbols
                or value.is_extended_real and value.is_finite):
            raise SolutionError(f"is not real and finite: "
                                f"{ast.get_source_segment(text, node)!r} "
                                f"is {value}")
        return value

    def build_node(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return (sp.Integer(node.value) if type(node.value) is int
                    else sp.Float(ast.get_source_segment(text, node)))
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        op = _OPERATORS.get(type(getattr(node, "op", None)))
        if isinstance(node, ast.BinOp) and op:
            return op(build(node.left), build(node.right))
        if isinstance(node, ast.UnaryOp) and op:
            return op(build(node.operand))
        if (isinstance(node, ast.Call) and not node.keywords
                and getattr(node.func, "id", None) in FUNCTIONS):
            return FUNCTIONS[node.func.id](*map(build, node.args))
        raise SolutionError(f"is not an expression: "
                            f"{ast.get_source_segment(text, node)!r} is "
                            f"outside the solution grammar")

    try:
        tree = ast.parse(text, mode="eval")
        unknown = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                   - names.keys() - FUNCTIONS.keys())
        if unknown:
            raise SolutionError(
                f"uses unknown names {sorted(unknown)}; in {dim}-D"
                f"{' space-time' if time_dependent else ''} it may use "
                f"{sorted(names)} and call {sorted(FUNCTIONS)}")
        return build(tree.body)
    except SolutionError:
        raise
    except (SyntaxError, TypeError, ValueError, ArithmeticError,
            RecursionError, MemoryError) as exc:
        raise SolutionError(
            f"does not parse: {str(exc) or type(exc).__name__}") from None


# sympy before 1.13 takes Float(2.0) == Integer(2), and so 2*x == 2.0*x:
# there the memos below key an expression by its srepr as well, which
# tells such pairs apart
_FLOAT_EQUALS_INTEGER = bool(sp.Float(2.0) == sp.Integer(2))


def _tag(arg):
    return (sp.srepr(arg) if _FLOAT_EQUALS_INTEGER
            and isinstance(arg, sp.Basic) else None)


def _memoised(fn, maxsize=None, intern=False):
    """``fn`` memoised per process on its arguments, each with its
    :func:`_tag`, keeping the ``maxsize`` latest (all if None);
    ``cache_info`` and ``cache_clear`` are the memo's. With ``intern``, it
    is :func:`fields.interned` instead, which keeps all and exposes
    neither."""
    memo = interned if intern else lru_cache(maxsize=maxsize)
    cached = memo(lambda tags, *args, **kw: fn(*args, **kw))

    @wraps(fn)
    def memoised(*args, **kw):
        return cached(tuple(map(_tag, (*args, *kw.values()))), *args, **kw)

    if not intern:
        memoised.cache_info = cached.cache_info
        memoised.cache_clear = cached.cache_clear
    return memoised


def _expression(source, dim: int, time_dependent: bool) -> sp.Expr:
    """``source`` if it is a sympy expression, else its parse as text."""
    if isinstance(source, sp.Basic):
        return source
    return parse(str(source), dim, time_dependent)


@_memoised
def derivatives(expr: sp.Expr, dim: int, time_dependent: bool):
    """The gradient components, the Laplacian and (else None) the time
    derivative of ``expr``, derived once per expression."""
    grad = tuple(sp.diff(expr, X_SYMBOLS[i]) for i in range(dim))
    lap = sum(sp.diff(expr, X_SYMBOLS[i], 2) for i in range(dim))
    return grad, lap, sp.diff(expr, T_SYMBOL) if time_dependent else None


# the fractions of each side, and of [0, T], at which a face is first
# evaluated: generic, so that a nonvanishing face is rarely 0 there
_FACE_POINT = (sp.Rational(7, 19), sp.Rational(11, 23), sp.Rational(13, 29))
_TIME_FRACTION = sp.Rational(5, 17)


def _proven_nonzero(expr) -> bool:
    """Whether numerical evaluation proves the number ``expr`` is not 0."""
    try:
        value = expr.evalf(strict=True)
    except PrecisionExhausted:
        return False
    return value.is_zero is False and value.is_finite is True


@_memoised
def nonvanishing_face(expr: sp.Expr, dom: BoxDomain):
    """The first face of ``dom`` on which ``expr`` is not decided to vanish
    identically, named like ``x = 0``, else None. Coordinates enter as the
    exact rationals of their decimals. A face does not vanish when its value
    at one interior point evaluates to a proven nonzero; otherwise only a
    result that is not already 0 is simplified. Decided once per expression
    and box."""
    def exact(v):
        return sp.Rational(repr(v))

    point = {s: exact(lo) + (exact(hi) - exact(lo)) * r for s, lo, hi, r in
             zip(X_SYMBOLS, dom.lower, dom.upper, _FACE_POINT)}
    if dom.is_parabolic:
        point[T_SYMBOL] = exact(dom.time_horizon) * _TIME_FRACTION
    for sym, lo, hi in zip(X_SYMBOLS, dom.lower, dom.upper):
        for v in (lo, hi):
            on_face = expr.subs(sym, exact(v))
            if on_face != 0 and (_proven_nonzero(on_face.subs(point))
                                 or sp.simplify(on_face) != 0):
                return f"{sym} = {repr(v).removesuffix('.0')}"
    return None


# the names that generated numpy code may use: the numpy functions of
# FUNCTIONS (numpy spells the inverse trigonometric ones arcsin, arccos and
# arctan), pi and e, and nothing else, so lambdify imports no module
NAMESPACE = {name: getattr(np, name) for name in (
    {"asin": "arcsin", "acos": "arccos", "atan": "arctan"}.get(f, f)
    for f in FUNCTIONS)} | {"pi": np.pi, "e": np.e}


def _numpy_lambdify(symbols, expr):
    """``sp.lambdify(symbols, expr, modules="numpy")``, the same source and
    the same values, against :data:`NAMESPACE` with the printer lambdify
    picks for ``"numpy"``."""
    return sp.lambdify(symbols, expr, modules=NAMESPACE, printer=NumPyPrinter(
        {"fully_qualified_modules": False, "inline": True,
         "allow_unknown_functions": True, "user_functions": {}}))


@_memoised
def _numpy_function(expr, dim: int, time_dependent: bool):
    """The numpy function of ``expr`` in (t,) x, y, z."""
    symbols = ((T_SYMBOL,) if time_dependent else ()) + X_SYMBOLS[:dim]
    return _numpy_lambdify(symbols, expr)


# an expression of more terms than this, expanded, gets no separated form:
# its norms cost the square of the term count per axis
_MAX_TERMS = 64


def _term_bound(expr) -> int:
    """An upper bound on the number of terms of ``sp.expand(expr)``, and on
    those it expands inside, taken without expanding and saturating just
    above :data:`_MAX_TERMS`: a sum adds its terms' bounds, a product
    multiplies them, a power of a sum to an integer n raises its bound to
    |n| (to n > 0 in the result, to n < 0 in a denominator of one term),
    and anything else (a function, a coordinate, a number, another power)
    is one term unless an argument, which ``sp.expand`` expands too, is
    over the cap."""
    cap = _MAX_TERMS + 1
    if expr.is_Add:
        n = sum(map(_term_bound, expr.args))
    elif expr.is_Mul:
        n = math.prod(map(_term_bound, expr.args))
    elif expr.is_Pow and expr.exp.is_Integer and abs(expr.exp) > 1:
        base, k = _term_bound(expr.base), abs(int(expr.exp))
        n = base ** k if base == 1 or k < cap else cap
        if expr.exp < 0 and n < cap:
            n = 1
    else:
        n = cap if any(_term_bound(a) >= cap for a in expr.args) else 1
    return min(n, cap)


@partial(_memoised, intern=True)
def _factor(expr, sym) -> Factor:
    """The :class:`fields.Factor` of ``expr``, a function of ``sym`` alone
    with no numeric coefficient, lambdified once per process and interned:
    one object per expression and symbol, never cleared. Its derivative
    is expanded into terms like those of :func:`_split`, so a derived form
    and the split of the derived expression share factors. sin and cos of
    a multiple of ``sym`` are :func:`fields.trig_factor`s, with the same
    values, so their terms combine with those of the trigonometric fields
    of :mod:`errbounds.manufactured`."""
    if not expr.has(sym):
        return ONE
    if expr.func in (sp.sin, sp.cos):
        freq = sp.diff(expr.args[0], sym)
        if freq.is_number and expr.args[0] == freq * sym:
            return trig_factor(expr.func.__name__, float(freq), 0.0)
    return Factor(_numpy_lambdify((sym,), expr),
                  lambda: tuple(_scaled_factor(term, sym) for term in
                                sp.Add.make_args(sp.expand(sp.diff(expr, sym)))
                                if term != 0))


def _scaled_factor(expr, sym):
    """``(c, factor)`` with ``expr`` = c * factor, c a float."""
    coeff, rest = expr.as_independent(sym, as_Add=False)
    return float(coeff), _factor(rest, sym)


@_memoised
def _split(expr, dim: int, time_dependent: bool):
    """The :class:`fields.SeparatedSum` of ``expr`` over (t,) x, y, z, or
    None if a term does not separate (or there are too many)."""
    if _term_bound(expr) > _MAX_TERMS:
        return None
    symbols = ((T_SYMBOL,) if time_dependent else ()) + X_SYMBOLS[:dim]
    coefs, factors = [], []
    try:
        for term in sp.Add.make_args(sp.expand(expr)):
            parts = sp.separatevars(term, symbols, dict=True)
            if parts is None:
                return None
            c, fs = float(parts["coeff"]), []
            for sym in symbols:
                scale, factor = _scaled_factor(parts[sym], sym)
                c *= scale
                fs.append(factor)
            coefs.append(c)
            factors.append(tuple(fs))
    except (TypeError, ValueError):  # a coefficient that is not a real number
        return None
    return SeparatedSum(coefs, factors)


def _separated(exprs, dim: int, time_dependent: bool):
    """The form of the field of ``exprs``, one expression (a scalar) or a
    list (a vector's components): a callable splitting them at its first
    call (see :func:`_split`)."""
    if isinstance(exprs, sp.Basic):
        return lambda: _split(exprs, dim, time_dependent)

    def vector():
        sums = tuple(_split(e, dim, time_dependent) for e in exprs)
        return None if None in sums else sums

    return vector


def _lambdify(expr, dim: int, time_dependent: bool):
    """The evaluator of ``expr``, lambdified at its first evaluation (see
    :func:`_numpy_function`), so building a field lambdifies nothing."""
    def wrapped(*args):  # (X,) or (t, X)
        coords, shape = coordinates(args, dim)
        fn = _numpy_function(expr, dim, time_dependent)
        out = np.asarray(fn(*coords), dtype=float)
        if out.shape != shape:  # a constant, or an axis missing
            out = np.broadcast_to(out, shape).copy()
        return out.ravel()

    return wrapped


def _lambdify_vector(exprs, dim: int, time_dependent: bool):
    comps = [_lambdify(e, dim, time_dependent) for e in exprs]
    return lambda *args: np.stack([c(*args) for c in comps], axis=1)


def scalar_field(expr, dom: BoxDomain) -> ScalarField:
    """Scalar field with symbolic gradient, laplacian and (parabolic) dt.
    ``expr`` is text for :func:`parse` or a sympy expression; the field
    vanishes on the boundary when :func:`nonvanishing_face` finds no face."""
    d, td = dom.dim, dom.is_parabolic
    expr = _expression(expr, d, td)
    grad, lap, dt = derivatives(expr, d, td)
    return ScalarField(
        _lambdify(expr, d, td), _lambdify_vector(grad, d, td),
        _lambdify(lap, d, td), _lambdify(dt, d, td) if td else None,
        dim=d, time_dependent=td,
        vanishes_on_boundary=nonvanishing_face(expr, dom) is None,
        form=_separated(expr, d, td))


def data_field(expr, dim: int, time_dependent: bool) -> ScalarField:
    """A scalar field of ``expr`` with its value evaluator only."""
    return ScalarField(_lambdify(expr, dim, time_dependent), dim=dim,
                       time_dependent=time_dependent,
                       form=_separated(expr, dim, time_dependent))


def vector_field(exprs, dom: BoxDomain) -> VectorField:
    """Vector field with symbolic divergence (and dt on parabolic domains)."""
    d, td = dom.dim, dom.is_parabolic
    exprs = [_expression(e, d, td) for e in exprs]
    if len(exprs) != d:
        raise ValueError("component count must match the domain dimension")
    div_expr = sum(sp.diff(exprs[i], X_SYMBOLS[i]) for i in range(d))
    return VectorField(
        _lambdify_vector(exprs, d, td), _lambdify(div_expr, d, td),
        _lambdify_vector([sp.diff(e, T_SYMBOL) for e in exprs], d, td)
        if td else None, dim=d, time_dependent=td,
        form=_separated(exprs, d, td))


def gradient_field(expr, dom: BoxDomain) -> VectorField:
    """The gradient of a scalar expression, with divergence = laplacian."""
    d, td = dom.dim, dom.is_parabolic
    return vector_field(derivatives(_expression(expr, d, td), d, td)[0], dom)
