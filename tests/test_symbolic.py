"""The symbolic front end: solution text is parsed without being run, every
derivative is derived once, and boundary vanishing is decided exactly."""
import ast
import inspect
import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from errbounds import (
    BoxDomain,
    ConformityError,
    QuadratureRule,
    default_suite_config,
    make_case,
    scalar_field,
    space_nodes,
)
from errbounds import symbolic
from errbounds.cli import main
from errbounds.fields import grid_axes
from errbounds.quadrature import spacetime_nodes
from errbounds.symbolic import (
    T_SYMBOL,
    X_SYMBOLS,
    SolutionError,
    nonvanishing_face,
    parse,
)

ROOT = Path(__file__).resolve().parents[1]
RULE = QuadratureRule()
DOM1 = BoxDomain((0.0,), (1.0,))
SQUARE = BoxDomain((0.0, 0.0), (1.0, 1.0))


def _run_cli(tmp_path, capsys, case):
    doc = {"cases": [case],
           "approximations": [{"level": "conforming_mixed", "epsilon": 0.1}],
           "estimators": [{"name": "friedrichs"}]}
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc))
    code = main(["friedrichs", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


# --------------------------------------------------------------------------
# no text reaches eval
# --------------------------------------------------------------------------

def _attacks(sentinel):
    return ['__import__("os")',
            "x.__class__.__mro__[-1].__subclasses__()",
            "(lambda: 0)()",
            f'__import__("pathlib").Path({str(sentinel)!r}).touch()']


@pytest.mark.parametrize("which", range(4))
def test_attack_strings_exit_2_without_side_effect(tmp_path, capsys, which):
    sentinel = tmp_path / "pwned"
    attack = _attacks(sentinel)[which]
    code, err = _run_cli(tmp_path, capsys, {
        "kind": "RD", "lower": [0.0], "upper": [1.0], "solution": attack})
    assert code == 2
    assert err.startswith("error: cases[0]: 'solution'")
    assert not sentinel.exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", range(4))
def test_attack_strings_raise_in_make_case_and_scalar_field(tmp_path, which):
    sentinel = tmp_path / "pwned"
    attack = _attacks(sentinel)[which]
    with pytest.raises(SolutionError):
        make_case("RD", DOM1, attack)
    with pytest.raises(SolutionError):
        scalar_field(attack, DOM1)
    assert not sentinel.exists()


_NOT_REAL, _TOO_LARGE = "is not real and finite: ", "more than 10000 bits"

# The solution texts that parse rejects on purpose, in every dimension and
# with or without time, each with a part of its message. The tests that
# expect a rejection (here and in test_cli) take them from this list, and
# _project_solutions leaves them out.
REJECTED = [
    ("sin(pi*", "does not parse"),
    ("sin(x, x)", "does not parse"),
    ("sin(pi*w)", "unknown names ['w']"),
    ("sin(pi*w)*g(x)", "uses unknown names ['g', 'w']"),
    ("g(x)*sin(pi*x)", "unknown names ['g']"),
    ("sin", "is not an expression"),
    ("x(1)", "is not an expression"),
    ("x > 0", "is not an expression"),
    ("[1]", "is not an expression"),
    ("sin(x=1)", "is not an expression"),
    ("sin(*[x])", "is not an expression"),
    ("2j*x", "is not an expression"),
    ("'x'", "is not an expression"),
    ("x if x else 1", "is not an expression"),
    ("sin(pi*x)*log(0)", _NOT_REAL + "'log(0)' is zoo"),
    ("sin(pi*x)*(1/(x-x))", _NOT_REAL + "'1/(x-x)' is zoo"),
    ("sin(pi*x)*sqrt(-1)", _NOT_REAL + "'sqrt(-1)' is I"),
    ("sin(pi*x)*log(-1)", _NOT_REAL + "'log(-1)' is I*pi"),
    ("sin(pi*x)*acos(2)", _NOT_REAL + "'acos(2)' is acos(2)"),
    ("sin(pi*x)*asin(3)", _NOT_REAL + "'asin(3)' is asin(3)"),
    ("9**9**7*sin(pi*x)", _TOO_LARGE),
    ("2**-10001*sin(pi*x)", _TOO_LARGE),
    ("(2/3)**9000*sin(pi*x)", _TOO_LARGE),
    ("(x*10**3000)**4*sin(pi*x)", _TOO_LARGE),
]


@pytest.mark.parametrize("text, expected", [
    *((text, part) for text, part in REJECTED
      if not part.startswith((_NOT_REAL, _TOO_LARGE))),
    ("-" * 100_000 + "x", "does not parse"),
    ("t*x", "uses unknown names ['t']"),
])
def test_parse_rejects_text_outside_the_grammar(text, expected):
    with pytest.raises(SolutionError, match=re.escape(expected)):
        parse(text, 1, False)


@pytest.mark.parametrize("text, part", [
    (text, part.removeprefix(_NOT_REAL)) for text, part in REJECTED
    if part.startswith(_NOT_REAL)])
def test_parse_rejects_constants_that_are_not_real_and_finite(text, part):
    with pytest.raises(SolutionError, match=re.escape(
            f"is not real and finite: {part}")):
        parse(text, 1)


def test_parse_keeps_real_irrational_constants():
    assert parse("sqrt(2)*sin(pi*x)*log(2)*atan(1)", 1) == sp.sympify(
        "sqrt(2)*sin(pi*x)*log(2)*atan(1)")


def test_complex_constant_exits_2(tmp_path, capsys):
    code, err = _run_cli(tmp_path, capsys, {
        "kind": "RD", "lower": [0.0], "upper": [1.0],
        "solution": "sin(pi*x)*sqrt(-1)"})
    assert code == 2
    assert err.startswith("error: cases[0]: 'solution'")
    assert "is not real and finite: 'sqrt(-1)' is I" in err
    assert not (tmp_path / "out").exists()


# a product of allowed powers whose coefficient grows past the bound
_LARGE_PRODUCT = "x*" + "*".join(["10**3000"] * 300)


@pytest.mark.parametrize("text", [
    *(text for text, part in REJECTED if part == _TOO_LARGE),
    pytest.param(_LARGE_PRODUCT, id="x*10**3000*...*10**3000")])
def test_large_literal_powers_are_refused_quickly(tmp_path, capsys, text):
    start = time.perf_counter()
    with pytest.raises(SolutionError, match=_TOO_LARGE):
        parse(text, 1)
    code, err = _run_cli(tmp_path, capsys, {
        "kind": "RD", "lower": [0.0], "upper": [1.0], "solution": text})
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith("error: cases[0]: 'solution'")


@pytest.mark.parametrize("text", ["2**10*sin(pi*x)", "(2/3)**5*sin(pi*x)",
                                  "2**0.5*sin(pi*x)", "2**10000*sin(pi*x)",
                                  "10**3000*sin(pi*x)"])
def test_small_literal_powers_equal_sympy(text):
    assert parse(text, 1) == sp.sympify(text)


def test_parse_reads_caret_as_power_and_is_shared():
    x, t = X_SYMBOLS[0], T_SYMBOL
    assert parse(" x^2 - +E ", 1) == x ** 2 - sp.E
    assert parse("2^3^2 - x^2", 1) == 512 - x ** 2
    assert parse("(1+t)*x", 1, True) == (1 + t) * x
    assert parse("sin(pi*x)", 1, False) is parse("sin(pi*x)", 1, False)


_CALLS_INTO_SYMPY_TEXT = {"sympify", "parse_expr", "eval", "exec"}


def test_no_source_module_evaluates_text():
    # text has one way into sympy: symbolic.parse
    offenders = []
    for path in sorted((ROOT / "src" / "errbounds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in _CALLS_INTO_SYMPY_TEXT:
                    offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []


# --------------------------------------------------------------------------
# parse agrees with sympy's own reader on every solution the project uses
# --------------------------------------------------------------------------

_SOLUTION_CALLS = {"make_case", "scalar_field", "vector_field",
                   "gradient_field"}
_SOLUTION_PARAMS = {"solution", "expr", "u_expr", "text"}


def _strings(node):
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _python_solutions(source):
    """String literals a Python source passes as a solution: arguments of
    the field constructors and ``make_case``, ``"solution"`` values, and
    parametrized ``expr``/``solution`` values."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in _SOLUTION_CALLS:
                found += [s for a in node.args[-2:] for s in _strings(a)
                          if isinstance(a, (ast.Constant, ast.List))]
            if (name == "parametrize" and node.args
                    and isinstance(node.args[0], ast.Constant)):
                params = [p.strip() for p in node.args[0].value.split(",")]
                for i, p in enumerate(params):
                    if p not in _SOLUTION_PARAMS:
                        continue
                    for row in getattr(node.args[1], "elts", []):
                        if len(params) > 1 and not isinstance(row, ast.Tuple):
                            continue  # rows drawn from a list (REJECTED)
                        item = row.elts[i] if len(params) > 1 else row
                        if isinstance(item, ast.Constant):
                            found.append(item.value)
        if isinstance(node, ast.Dict):
            for k, v in zip(node.keys, node.values):
                if (isinstance(k, ast.Constant) and k.value == "solution"
                        and isinstance(v, ast.Constant)):
                    found.append(v.value)
    return [s for s in found if isinstance(s, str) and s not in
            ("RD", "Poisson", "TRD", "Heat")]


def _workload_cases(names=None):
    """The cases of the benchmark's workload configs."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [c for name in names or workloads.WORKLOADS
            for c in workloads.config_doc(name, [0])["cases"]]


def _project_solutions():
    found = [c["solution"] for c in _workload_cases()]
    found += [c.solution for c in default_suite_config(n_seeds=1).cases]
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```json\n(.*?)```", readme, flags=re.S):
        found += [c["solution"] for c in json.loads(block)["cases"]]
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        found += _python_solutions(block)
    for path in sorted((ROOT / "demos").glob("*.py")):
        found += _python_solutions(path.read_text())
    for path in sorted((ROOT / "tests").glob("*.py")):
        found += _python_solutions(path.read_text())
    # test_acceptance composes its solutions from three module-level lists
    lists = {n.targets[0].id: ast.literal_eval(n.value) for n in ast.parse(
        (ROOT / "tests" / "test_acceptance.py").read_text()).body
        if isinstance(n, ast.Assign)
        and getattr(n.targets[0], "id", "") in ("_1D", "_2D", "_TIME")}
    found += lists["_1D"] + lists["_2D"]
    found += [tf + "(" + e + ")" for tf, e in
              zip(lists["_TIME"], lists["_1D"] * 2)]
    return sorted(set(found) - {text for text, _ in REJECTED})


def test_parse_equals_sympy_on_every_project_solution():
    solutions = _project_solutions()
    assert len(solutions) > 40
    for text in solutions:
        # a rejected text fails here; the reference reader runs only on
        # text that parse has accepted
        assert parse(text, 3, True) == sp.sympify(text), text


# --------------------------------------------------------------------------
# each derivative derived once, u0 sliced from u
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["RD", "Poisson", "TRD", "Heat"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_make_case_lambdifies_each_expression_once(monkeypatch, kind, d):
    calls = []

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((sp, "lambdify"), (sp, "simplify"),
                        (sp.Basic, "subs"),
                        (sp.core.evalf.EvalfMixin, "evalf")):
        count(owner, name)
    symbolic._numpy_function.cache_clear()
    nonvanishing_face.cache_clear()
    make_case.cache_clear()
    parabolic = kind in ("TRD", "Heat")
    dom = BoxDomain((0.0,) * d, (1.0,) * d,
                    time_horizon=1.0 if parabolic else None)
    text = "*".join(f"sin({k + 1}*pi*{v})" for k, v in enumerate("xyz"[:d]))
    text = ("exp(-t)*" if parabolic else "") + text
    case = make_case(kind, dom, text)
    # the faces are decided once; building the fields lambdifies nothing
    assert "subs" in calls and "lambdify" not in calls
    calls.clear()
    X = np.full((3, d), 0.3)
    args = (np.full(3, 0.2), X) if parabolic else (X,)

    def evaluate(case):
        u = case.exact_u
        for f in (u.value, u.grad, u.laplacian, case.f.value,
                  case.exact_p.value):
            f(*args)
        if parabolic:
            u.evaluator("dt")(*args)
            case.u0.value(X)

    evaluate(case)
    # value, d gradient components, Laplacian, f (and dt), each at its
    # first evaluation; lambdify evaluates the floats of f as it prints them
    assert [c for c in calls if c != "evalf"] == \
        ["lambdify"] * (d + (4 if parabolic else 3))
    calls.clear()
    evaluate(case)
    assert calls == []
    # a case built again in the process, even once the case memo has let it
    # go, lambdifies, substitutes, evaluates and simplifies nothing, neither
    # when built nor when evaluated
    make_case.cache_clear()
    evaluate(make_case(kind, dom, text))
    assert calls == []


@pytest.mark.parametrize("name", [*symbolic.FUNCTIONS, *symbolic.CONSTANTS])
def test_lambdify_namespace_is_the_whitelist(name):
    # every function and constant a solution may name evaluates, bit for
    # bit, as lambdify against all of numpy does, from the same source; only
    # whitelisted names (and lambdify's own builtins, range and the
    # arguments) reach the generated function
    x = sp.Symbol("x")
    expr = (symbolic.FUNCTIONS[name](x / 3 + sp.Rational(1, 7))
            if name in symbolic.FUNCTIONS else symbolic.CONSTANTS[name] * x)
    fast = symbolic._numpy_lambdify((x,), expr)
    numpy = sp.lambdify((x,), expr, modules="numpy")
    assert inspect.getsource(fast) == inspect.getsource(numpy)
    points = np.linspace(0.0, 0.9, 101)
    assert fast(points).tobytes() == numpy(points).tobytes()
    names = {n for n in fast.__globals__ if not n.startswith("__")}
    assert names - {"builtins", "range", "x"} <= set(symbolic.NAMESPACE)


# pairs that print differently, but that sympy before 1.13 takes as equal
_FLOAT_INTEGER_PAIRS = [("2*x", "2.0*x"), ("x**2", "x**2.0")]
_MEMO_BOX = BoxDomain((0.1, 0.2, 0.3), (0.9, 1.4, 1.0), time_horizon=0.7)
_MEMO_RULE = QuadratureRule(space_order=2, time_order=2)


def _fresh(monkeypatch, expr):
    """The evaluator of ``expr`` around a fresh ``sp.lambdify``, which it
    looks up as it evaluates."""
    fn = sp.lambdify((T_SYMBOL, *X_SYMBOLS), expr, modules="numpy")
    evaluator = symbolic._lambdify(expr, 3, True)

    def fresh(*args):
        with monkeypatch.context() as m:
            m.setattr(symbolic, "_numpy_function", lambda e, dim, td: fn)
            return evaluator(*args)

    return fresh


def _bits(evaluator, args):
    """The bytes of the values, or the type of the error (10**3000 * ...
    overflows a float) when there are none."""
    try:
        return evaluator(*args).tobytes()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("keyed_by_srepr", [False, True],
                         ids=["as-installed", "srepr-keyed"])
def test_memoised_evaluators_equal_a_fresh_lambdify(monkeypatch,
                                                    keyed_by_srepr):
    if keyed_by_srepr:  # the keys of sympy before 1.13
        monkeypatch.setattr(symbolic, "_FLOAT_EQUALS_INTEGER", True)
    texts = _project_solutions()
    texts += [t for pair in _FLOAT_INTEGER_PAIRS for t in pair]
    exprs = []
    for text in texts:
        expr = parse(text, 3, True)
        exprs += [expr, symbolic.derivatives(expr, 3, True)[1]]
    memoised = [symbolic._lambdify(e, 3, True) for e in exprs]
    t, X, _ = spacetime_nodes(_MEMO_BOX, _MEMO_RULE)
    columns = (t.copy(), X.copy())
    assert grid_axes((t, X)) is not None and grid_axes(columns) is None
    with np.errstate(all="ignore"):
        # every expression is in the memo before any is checked
        for memo in memoised:
            _bits(memo, columns)
        for expr, memo in zip(exprs, memoised):
            fresh = _fresh(monkeypatch, expr)
            for args in ((t, X), columns):
                assert _bits(memo, args) == _bits(fresh, args), expr
    for a, b in _FLOAT_INTEGER_PAIRS:
        assert (symbolic._numpy_function(parse(a, 3, True), 3, True)
                is not symbolic._numpy_function(parse(b, 3, True), 3, True))


@pytest.mark.parametrize("kind, lower, upper, T, text", [
    (c["kind"], c["lower"], c["upper"], c["T"], c["solution"])
    for c in _workload_cases(("suite", "volume"))
    if c["kind"] in ("TRD", "Heat")])
def test_u0_equals_the_lambdified_initial_expression(kind, lower, upper, T,
                                                     text):
    dom = BoxDomain(tuple(lower), tuple(upper), time_horizon=T)
    u0 = make_case(kind, dom, text).u0
    initial = parse(text, dom.dim, True).subs(T_SYMBOL, 0)
    ref = scalar_field(initial, dom.spatial())
    X, _ = space_nodes(dom.spatial(), RULE)
    for name in ("value", "grad", "laplacian"):
        assert np.array_equal(getattr(u0, name)(X), getattr(ref, name)(X)), name
    assert not u0.has_dt and u0.vanishes_on_boundary


# --------------------------------------------------------------------------
# boundary vanishing decided exactly
# --------------------------------------------------------------------------

@st.composite
def _sine_products(draw):
    # faces at two-digit decimals: shifted, anisotropic boxes
    d = draw(st.integers(1, 3))
    cents = [draw(st.integers(-200, 200)) for _ in range(d)]
    lower = [c / 100 for c in cents]
    upper = [(c + draw(st.integers(10, 300))) / 100 for c in cents]
    parabolic = draw(st.booleans())
    factors = []
    for sym, lo, hi in zip("xyz", lower, upper):
        a, b = sp.Rational(repr(lo)), sp.Rational(repr(hi))
        k = draw(st.integers(1, 3))
        factors.append(f"sin({k}*pi*({sym} - ({a}))/({b - a}))")
    return lower, upper, parabolic, factors, draw(st.integers(0, d - 1))


@given(_sine_products())
@settings(max_examples=10, deadline=None)
def test_sine_products_vanish_and_a_cosine_names_its_face(drawn):
    lower, upper, parabolic, factors, j = drawn
    dom = BoxDomain(tuple(lower), tuple(upper),
                    time_horizon=1.0 if parabolic else None)
    kind = "Heat" if parabolic else "RD"
    prefix = "(1+t)*" if parabolic else ""
    case = make_case(kind, dom, prefix + "*".join(factors))
    assert case.exact_u.vanishes_on_boundary
    swapped = list(factors)
    swapped[j] = "cos" + swapped[j][3:]
    with pytest.raises(ConformityError) as info:
        make_case(kind, dom, prefix + "*".join(swapped))
    msg = str(info.value)
    assert "must vanish on the boundary" in msg
    face = f"on the face {'xyz'[j]} = "
    assert face in msg and float(msg.split(face)[1]) == lower[j]


def test_high_frequency_counterexample_is_rejected(tmp_path, capsys):
    # equal to 1 at (0, 1/32), yet 0 at every 8-point face midpoint
    text = "cos(x)*sin(16*pi*y)"
    assert nonvanishing_face(parse(text, 2), SQUARE) == "x = 0"
    with pytest.raises(ConformityError, match="on the face x = 0"):
        make_case("RD", SQUARE, text)
    assert not scalar_field(text, SQUARE).vanishes_on_boundary
    code, err = _run_cli(tmp_path, capsys, {
        "kind": "RD", "lower": [0.0, 0.0], "upper": [1.0, 1.0],
        "solution": text})
    assert code == 2
    assert err.startswith("error: cases[0]")
    assert "must vanish on the boundary" in err and "x = 0" in err


def test_vanishing_that_needs_simplification_is_decided():
    dom = BoxDomain((0.0,), (0.5,))
    # sin(2x)**2 + cos(2x)**2 - 1 is 0 everywhere, but only after simplify
    assert nonvanishing_face(
        parse("sin(2*x)**2 + cos(2*x)**2 - 1", 1), dom) is None
    # no tolerance: 1e-20 on the boundary is not 0
    assert nonvanishing_face(parse("sin(pi*x) + 1e-20", 1), DOM1) == "x = 0"
    assert nonvanishing_face(parse("sin(pi*x*10/3)", 1),
                             BoxDomain((0.0,), (0.3,))) is None


def test_face_proven_nonzero_at_a_point_skips_simplify(monkeypatch):
    # a shifted 3-D product with a cosine along x, on decimal faces
    dom = BoxDomain((-0.37, 1.2, 0.05), (1.5, 3.41, 2.0),
                    time_horizon=0.5)
    text = ("(1+t)*cos(pi*(x + 0.37)/1.87)*sin(2*pi*(y - 1.2)/2.21)"
            "*sin(pi*(z - 0.05)/1.95)")

    def no_simplify(expr):
        raise AssertionError(f"simplify({expr}) was called")

    monkeypatch.setattr(sp, "simplify", no_simplify)
    assert nonvanishing_face(parse(text, 3, True), dom) == "x = -0.37"


def test_face_zero_at_the_point_is_decided_by_simplify():
    # sin(19*pi*y) is 0 at y = 7/19, the first point tried on x = 0
    text = "cos(pi*x)*sin(19*pi*y)"
    assert parse(text, 2).subs({X_SYMBOLS[0]: 0,
                                X_SYMBOLS[1]: sp.Rational(7, 19)}) == 0
    assert nonvanishing_face(parse(text, 2), SQUARE) == "x = 0"
