import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errbounds import (
    BoxDomain,
    CapabilityError,
    ConformityError,
    QuadratureRule,
    flux_basis,
    l2_gram,
    l2_inner,
    norm_sq,
    scalar_field,
    space_nodes,
    spacetime_nodes,
    trace_norm_sq,
    vector_field,
)
from errbounds.manufactured import (_gradient, _random_trig, _scalar,
                                    make_case, perturb)
from errbounds.quadrature import _FSUM_MIN_LENGTH, _fsum, axis_rules, samples
from test_fields import without_forms

RULE = QuadratureRule()
DOM1 = BoxDomain((0.0,), (1.0,))
DOM2 = BoxDomain((0.0, 0.0), (1.0, 1.0))
TDOM = BoxDomain((0.0,), (1.0,), time_horizon=1.0)


def timecross_check(w, dom, rule):
    """Residual of 2<dt w, w> = ||w(T)||^2 - ||w(0)||^2."""
    if not dom.is_parabolic:
        raise ValueError("timecross identity requires a space-time domain")
    pairing = 2.0 * l2_inner(w.dt_field(), w, dom, rule)
    lhs_T = trace_norm_sq(w, dom.time_horizon, "value", dom, rule)
    lhs_0 = trace_norm_sq(w, 0.0, "value", dom, rule)
    return abs(pairing - lhs_T + lhs_0)


def partint_residual(u, psi, dom, rule):
    """Residual of the integration-by-parts identity
    <grad u, psi> = -<u, div psi>."""
    if not u.vanishes_on_boundary:
        raise ConformityError("u must vanish on the boundary")
    lhs = l2_inner(u.gradient_field(), psi, dom, rule)
    rhs = l2_inner(u, psi.div_field(), dom, rule)
    return abs(lhs + rhs)


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(space_order=0)
    with pytest.raises(ValueError):
        QuadratureRule(time_order=-1)


@given(st.integers(min_value=0, max_value=23))
@settings(max_examples=24, deadline=None)
def test_monomial_exactness(k):
    # a 12-point Gauss rule integrates polynomials of degree <= 23 exactly
    X, w = space_nodes(DOM1, RULE)
    got = float(np.dot(w, X[:, 0] ** k))
    assert got == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_weights_sum_to_volume():
    dom = BoxDomain((0.0, -1.0), (2.0, 3.0))
    _, w = space_nodes(dom, RULE)
    assert math.fsum(w.tolist()) == pytest.approx(8.0, rel=1e-14)


@pytest.mark.parametrize("dom", [
    DOM1, BoxDomain((0.0, -1.0), (2.0, 3.0)),
    BoxDomain((-0.3, 0.2, 0.1), (1.7, 0.9, 2.6))], ids=["1-D", "2-D", "3-D"])
@pytest.mark.parametrize("rule", [RULE, QuadratureRule(3, 2)],
                         ids=["order-12", "order-3"])
def test_space_nodes_are_the_tensor_product_of_the_axis_rules(dom, rule):
    # the node of the multi-index (j_1, ..., j_d), the last axis varying
    # fastest, is (x_1[j_1], ..., x_d[j_d]) and its weight the product
    # w_1[j_1] * ... * w_d[j_d] in axis order, bit for bit
    axes = axis_rules(dom, rule)
    idx = np.indices([len(x) for x, _ in axes]).reshape(len(axes), -1)
    X, w = space_nodes(dom, rule)
    assert X.tobytes() == np.stack([x[j] for (x, _), j in zip(axes, idx)],
                                   axis=1).tobytes()
    weights = [wx[j] for (_, wx), j in zip(axes, idx)]
    product = weights[0]
    for wx in weights[1:]:
        product = product * wx
    assert w.tobytes() == product.tobytes()
    assert not X.flags.writeable and not w.flags.writeable


def test_l2_inner_sine_orthogonality():
    u = scalar_field("sin(pi*x)", DOM1)
    v = scalar_field("sin(2*pi*x)", DOM1)
    assert l2_inner(u, u, DOM1, RULE) == pytest.approx(0.5, rel=1e-13)
    assert abs(l2_inner(u, v, DOM1, RULE)) < 1e-13


def test_l2_inner_spacetime():
    u = scalar_field("exp(-t)*sin(pi*x)", TDOM)
    exact = (1.0 - math.exp(-2.0)) / 4.0
    assert l2_inner(u, u, TDOM, RULE) == pytest.approx(exact, rel=1e-13)


def test_l2_inner_rank_mismatch():
    u = scalar_field("sin(pi*x)", DOM1)
    p = vector_field(["cos(pi*x)"], DOM1)
    with pytest.raises(TypeError):
        l2_inner(u, p, DOM1, RULE)


def test_l2_inner_domain_mismatch():
    u = scalar_field("exp(-t)*sin(pi*x)", TDOM)
    with pytest.raises(ValueError):
        l2_inner(u, u, DOM1, RULE)
    v = scalar_field("sin(pi*x)", DOM1)
    with pytest.raises(ValueError):
        l2_inner(v, v, TDOM, RULE)


def test_norm_sq_composites():
    u = scalar_field("sin(pi*x)", DOM1)
    pi2, pi4 = math.pi ** 2, math.pi ** 4
    assert norm_sq("L2", u, DOM1, RULE) == pytest.approx(0.5, rel=1e-13)
    assert norm_sq("H1", u, DOM1, RULE) == pytest.approx((1 + pi2) / 2, rel=1e-13)
    assert norm_sq("V", u, DOM1, RULE) == pytest.approx(
        (1 + 2 * pi2 + pi4) / 2, rel=1e-13)
    assert norm_sq("Hdiv", u.gradient_field(), DOM1, RULE) == pytest.approx(
        (pi2 + pi4) / 2, rel=1e-13)


def test_norm_sq_unknown_kind():
    u = scalar_field("sin(pi*x)", DOM1)
    with pytest.raises(ValueError):
        norm_sq("L3", u, DOM1, RULE)
    with pytest.raises(TypeError):
        norm_sq("Hdiv", u, DOM1, RULE)


def test_spacetime_norms():
    # u = (1+t) sin(pi x): dt = sin(pi x), lap = -(pi^2)(1+t) sin(pi x)
    u = scalar_field("(1+t)*sin(pi*x)", TDOM)
    pi2 = math.pi ** 2
    c = 7.0 / 3.0  # integral of (1+t)^2 over (0,1)
    assert norm_sq("L2", u, TDOM, RULE) == pytest.approx(c / 2, rel=1e-13)
    assert norm_sq("H11", u, TDOM, RULE) == pytest.approx(
        c / 2 + pi2 * c / 2 + 0.5, rel=1e-13)
    expected_triple = 0.5 + pi2 ** 2 * c / 2 + pi2 * 4 / 2
    assert norm_sq("triple", u, TDOM, RULE) == pytest.approx(
        expected_triple, rel=1e-13)


@pytest.mark.parametrize("kind, dom, solution", [
    ("TRD", BoxDomain((0.0,), (1.0,), 1.0), "exp(-t)*sin(pi*x)"),
    ("Heat", BoxDomain((0.0, -0.5), (1.0, 1.5), 0.5),
     "(1 + t)*sin(pi*x)*sin(pi*(y + 0.5)/2)")])
def test_composite_norms_sum_their_constituents_bitwise(kind, dom, solution):
    # Wstar and triple are declared pieces whose last is taken at T: each
    # is, in hex, the fsum of its constituent norms written out, with and
    # without forms (on TRD at seed 3, eps 0.3, Wstar's pieces summed
    # flat, not with H11 summed first, move a bit)
    rule = QuadratureRule(space_order=4, time_order=3)
    case, T = make_case(kind, dom, solution), dom.time_horizon
    approximations = [perturb(case, "very_conforming", eps, seed).u_tilde
                      for seed in range(4) for eps in (0.3, 1.0)]
    for u in (case.exact_u, *approximations):
        for w in (u, without_forms(u)):
            wstar = math.fsum([norm_sq("H11", w, dom, rule),
                               norm_sq("Hdiv", w.gradient_field(), dom, rule),
                               trace_norm_sq(w, T, "H1", dom, rule)])
            triple = math.fsum([norm_sq("L2", w.dt_field(), dom, rule),
                                norm_sq("L2", w.laplacian_field(), dom, rule),
                                trace_norm_sq(w, T, "gradient", dom, rule)])
            assert norm_sq("Wstar", w, dom, rule).hex() == wstar.hex()
            assert norm_sq("triple", w, dom, rule).hex() == triple.hex()


def test_trace_norms():
    u = scalar_field("(1+t)*sin(pi*x)", TDOM)
    assert trace_norm_sq(u, 1.0, "value", TDOM, RULE) == pytest.approx(
        2.0, rel=1e-13)
    assert trace_norm_sq(u, 0.0, "gradient", TDOM, RULE) == pytest.approx(
        math.pi ** 2 / 2, rel=1e-13)
    assert trace_norm_sq(u, 1.0, "H1", TDOM, RULE) == pytest.approx(
        2.0 + 2.0 * math.pi ** 2, rel=1e-13)
    with pytest.raises(ValueError):
        trace_norm_sq(u, 2.0, "value", TDOM, RULE)
    with pytest.raises(ValueError):
        trace_norm_sq(u, 0.5, "huh", TDOM, RULE)


def test_timecross_identity():
    for expr in ("(1+t)*sin(pi*x)", "exp(-t)*sin(2*pi*x)", "t**2*sin(pi*x)"):
        u = scalar_field(expr, TDOM)
        assert timecross_check(u, TDOM, RULE) < 1e-12
        p = vector_field(["cos(pi*x)*(1+t)"], TDOM)
        assert timecross_check(p, TDOM, RULE) < 1e-12


def test_timecross_identity_on_trig_gradient_field():
    dom = BoxDomain((0.0, 0.5), (1.0, 2.0), time_horizon=0.7)
    ts = _random_trig(dom, np.random.default_rng(5))
    for w in (_gradient(ts, dom), _scalar(ts, dom)):
        assert w.has_dt
        assert timecross_check(w, dom, RULE) < 1e-12
    with pytest.raises(CapabilityError):
        timecross_check(_gradient(ts, dom).restricted(div=True), dom, RULE)


def test_timecross_needs_dt():
    u = scalar_field("(1+t)*sin(pi*x)", TDOM).restricted(grad=True)
    with pytest.raises(CapabilityError):
        timecross_check(u, TDOM, RULE)


def test_partint_identity():
    u = scalar_field("sin(pi*x)", DOM1)
    psi = vector_field(["x**2 + 1"], DOM1)
    assert partint_residual(u, psi, DOM1, RULE) < 1e-13
    u2 = scalar_field("sin(pi*x)*sin(pi*y)", DOM2)
    psi2 = vector_field(["x*y", "cos(pi*x)"], DOM2)
    assert partint_residual(u2, psi2, DOM2, RULE) < 1e-13


def test_partint_pairing_value():
    # <grad sin(pi x), x> = -<sin(pi x), 1> = -2/pi
    u = scalar_field("sin(pi*x)", DOM1)
    psi = vector_field(["x"], DOM1)
    lhs = l2_inner(u.gradient_field(), psi, DOM1, RULE)
    assert lhs == pytest.approx(-2.0 / math.pi, rel=1e-13)


def test_partint_requires_boundary_vanishing():
    u = scalar_field("cos(pi*x)", DOM1)
    psi = vector_field(["x"], DOM1)
    with pytest.raises(ConformityError):
        partint_residual(u, psi, DOM1, RULE)


def test_spacetime_nodes_shapes():
    t, X, w = spacetime_nodes(TDOM, RULE)
    assert t.shape[0] == X.shape[0] == w.shape[0]
    with pytest.raises(ValueError):
        spacetime_nodes(DOM1, RULE)


def test_determinism_bitwise():
    u = scalar_field("sin(pi*x)+sin(5*pi*x)/7", DOM1)
    a = norm_sq("L2", u, DOM1, RULE)
    b = norm_sq("L2", u, DOM1, RULE)
    assert a == b


def _counting(field, counts, prefix=""):
    """Copy of ``field`` whose primitive evaluators count their calls."""
    def wrap(name, fn):
        def h(*args):
            counts[prefix + name] += 1
            return fn(*args)
        return h

    return without_forms(field, wrap)


@pytest.mark.parametrize("kind, expected", [
    ("L2", {"value": 1}),
    ("H1", {"value": 1, "grad": 1}),
    ("V", {"value": 1, "grad": 1, "laplacian": 1}),
])
def test_norm_sq_evaluates_each_primitive_once(kind, expected):
    counts = Counter()
    w = _counting(scalar_field("sin(pi*x)*sin(2*pi*y)", DOM2), counts)
    norm_sq(kind, w, DOM2, RULE)
    assert counts == expected


def test_norm_sq_evaluates_vector_and_composite_primitives_once():
    counts = Counter()
    psi = _counting(vector_field(["sin(pi*x)", "x*y"], DOM2), counts)
    norm_sq("Hdiv", psi, DOM2, RULE)
    assert counts == {"value": 1, "div": 1}
    # a closure tree evaluates each leaf once per occurrence, not twice
    counts.clear()
    u = _counting(scalar_field("sin(pi*x)*sin(pi*y)", DOM2), counts, "u.")
    v = _counting(scalar_field("x*y*(1-x)*(1-y)", DOM2), counts, "v.")
    norm_sq("L2", 2.0 * u - v, DOM2, RULE)
    assert counts == {"u.value": 1, "v.value": 1}
    counts.clear()
    w = _counting(scalar_field("(1+t)*sin(pi*x)", TDOM), counts)
    norm_sq("triple", w, TDOM, RULE)
    assert counts == {"dt": 1, "laplacian": 1, "grad": 1}


def test_l2_inner_evaluates_distinct_fields_both():
    counts = Counter()
    a = _counting(scalar_field("sin(pi*x)", DOM1), counts, "a.")
    b = _counting(scalar_field("sin(2*pi*x)+x", DOM1), counts, "b.")
    ab = l2_inner(a, b, DOM1, RULE)
    assert counts == {"a.value": 1, "b.value": 1}
    assert ab == l2_inner(b, a, DOM1, RULE)
    X, w = space_nodes(DOM1, RULE)
    va, vb = a.value(X), b.value(X)
    assert ab == math.fsum((va * vb * w).tolist())
    counts.clear()
    # the same field paired with itself is evaluated once
    assert l2_inner(a, a, DOM1, RULE) == norm_sq("L2", a, DOM1, RULE)
    assert counts == {"a.value": 2}


# --------------------------------------------------------------------------
# Gram matrices
# --------------------------------------------------------------------------

def _gram_fields(dom, vector):
    """A few non-orthogonal scalar or vector fields on ``dom``."""
    names = "xyz"[:dom.dim]
    tfac = "*(1+t)" if dom.is_parabolic else ""
    scalars = [f"(1 + {'*'.join(names)}){tfac}",
               f"sin(pi*{names[-1]}) + {names[0]}**2{tfac}",
               f"exp(({' + '.join(names)})/3){tfac}",
               f"cos(2*{names[0]})*({names[-1]} - 1/3)"]
    if not vector:
        return [scalar_field(e, dom) for e in scalars]
    return [vector_field([scalars[(k + j) % 4] for j in range(dom.dim)], dom)
            for k in range(4)]


GRAM_DOMAINS = [
    (BoxDomain((0.0,), (1.0,)), RULE),
    (BoxDomain((-2.0,), (0.5,)), RULE),
    (BoxDomain((0.0, 0.0), (1.0, 1.0)), RULE),
    (BoxDomain((0.5, -1.0), (1.0, 3.0)), RULE),
    (BoxDomain((0.0, 0.0, 0.0), (1.0, 2.0, 0.5)), QuadratureRule(3)),
    (BoxDomain((-1.0, 0.25, 2.0), (0.0, 0.5, 5.0)), QuadratureRule(3)),
    (BoxDomain((0.0, -0.5), (1.0, 1.5), time_horizon=2.0),
     QuadratureRule(4, 4)),
]


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("dom, rule", GRAM_DOMAINS)
def test_l2_gram_matches_l2_inner(dom, rule, vector):
    fields = _gram_fields(dom, vector)
    G = l2_gram(fields, fields, dom, rule)
    assert G.shape == (4, 4) and np.array_equal(G, G.T)
    for i, a in enumerate(fields):
        for j, b in enumerate(fields):
            # relative to the Cauchy-Schwarz bound |<a, b>| <= ||a|| ||b||
            scale = math.sqrt(G[i, i] * G[j, j])
            assert abs(G[i, j] - l2_inner(a, b, dom, rule)) <= 1e-13 * scale
    # distinct left and right lists give the off-diagonal block
    assert np.array_equal(l2_gram(fields[:1], fields[2:], dom, rule),
                          G[:1, 2:])


@pytest.mark.parametrize("dom, rule", GRAM_DOMAINS)
def test_l2_gram_flat_kernel_matches_three_operand_contraction(dom, rule):
    # vector rows are the (N, d) values raveled, weighted per component:
    # the one kernel gives the per-component contraction it replaced. It is
    # the path of fields without a separated form
    fields = [without_forms(f) for f in _gram_fields(dom, vector=True)]
    w = (spacetime_nodes(dom, rule)[2] if dom.is_parabolic
         else space_nodes(dom, rule)[1])
    rows, wv = samples(fields, dom, rule)
    assert np.array_equal(wv, np.repeat(w, dom.dim))
    V = rows.reshape(len(fields), len(w), dom.dim)
    old = np.einsum("ikc,jkc,k->ij", V, V, w)
    G = l2_gram(fields, fields, dom, rule)
    assert np.array_equal(G, G.T)
    if dom.dim < 3:
        assert np.array_equal(G, old)
    else:  # the last bit may move
        scale = np.sqrt(np.outer(np.diag(old), np.diag(old)))
        assert np.all(np.abs(G - old) <= 1e-15 * scale)


def test_l2_gram_entries_independent_of_list_length():
    dom = DOM2
    basis = flux_basis(dom, 12)
    divs = [b.div_field() for b in basis]
    for fields in (basis, divs):
        G = l2_gram(fields, fields, dom, RULE)
        for m in range(1, len(fields)):
            head = fields[:m]
            assert np.array_equal(l2_gram(head, head, dom, RULE), G[:m, :m])
            assert np.array_equal(l2_gram(head, fields, dom, RULE), G[:m])
            assert np.array_equal(l2_gram(fields, fields[m:], dom, RULE),
                                  G[:, m:])


def test_l2_gram_evaluates_each_field_once():
    counts = Counter()
    left = [_counting(f, counts, f"{k}.")
            for k, f in enumerate(_gram_fields(DOM2, vector=True))]
    l2_gram(left, left, DOM2, RULE)
    assert counts == {f"{k}.value": 1 for k in range(4)}
    counts.clear()
    l2_gram(left[:2], left[2:], DOM2, RULE)
    assert counts == {f"{k}.value": 1 for k in range(4)}


def test_l2_gram_validation():
    u = scalar_field("sin(pi*x)", DOM1)
    p = vector_field(["cos(pi*x)"], DOM1)
    with pytest.raises(TypeError):
        l2_gram([u], [p], DOM1, RULE)
    with pytest.raises(TypeError):
        l2_gram([u, p], [u], DOM1, RULE)
    with pytest.raises(ValueError):
        l2_gram([u], [u], TDOM, RULE)
    with pytest.raises(ValueError):
        l2_gram([u], [scalar_field("sin(pi*x)*y", DOM2)], DOM1, RULE)
    with pytest.raises(ValueError):
        l2_gram([], [u], DOM1, RULE)
    with pytest.raises(ValueError):
        l2_gram([u], [], DOM1, RULE)


_GRAM_SCRIPT = """
import hashlib
from errbounds import BoxDomain, QuadratureRule, flux_basis, l2_gram
dom, rule = BoxDomain((0.0, 0.0), (1.0, 2.0)), QuadratureRule()
basis = flux_basis(dom, 16)
divs = [b.div_field() for b in basis]
for fields in (basis, divs):
    print(hashlib.sha256(l2_gram(fields, fields, dom, rule).tobytes()).hexdigest())
"""


def test_l2_gram_independent_of_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _GRAM_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout)
    assert len(digests[0].split()) == 2 and digests[0] == digests[1]


# --------------------------------------------------------------------------
# the vectorised exact sum is math.fsum, bit for bit
# --------------------------------------------------------------------------

_CUT = _FSUM_MIN_LENGTH
_SUM_LENGTHS = st.one_of(st.integers(_CUT - 4, _CUT + 4),
                         st.integers(_CUT, 373_248), st.just(373_248))


@st.composite
def _sum_inputs(draw):
    """Arrays from a drawn seed: decimal exponents in a drawn part of
    [-300, 300], subnormals, and signs mixed or cancelling to a small rest."""
    n = draw(_SUM_LENGTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = draw(st.integers(-300, 300))
    hi = draw(st.integers(lo, 300))
    a = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(lo, hi + 1, n)
    shape = draw(st.sampled_from(["positive", "mixed", "cancelling",
                                  "subnormal"]))
    if shape == "mixed":
        a *= rng.choice([-1.0, 1.0], n)
    elif shape == "cancelling":
        # pairs x, -x, three of them one ulp apart
        half = a[: n // 2] * rng.choice([-1.0, 1.0], n // 2)
        other = -rng.permutation(half)
        other[:3] = np.nextafter(other[:3], 0.0)
        a = rng.permutation(np.concatenate([half, other, a[2 * (n // 2):]]))
    elif shape == "subnormal":
        a = rng.integers(-2 ** 52, 2 ** 52, n) * 5e-324
        a[rng.integers(0, n, n // 8)] = 0.0
    return a


def _bits(x):
    return float(x).hex()


@given(_sum_inputs())
@settings(max_examples=60, deadline=None)
def test_exact_sum_equals_fsum_bitwise(a):
    assert _bits(_fsum(a)) == _bits(math.fsum(a.tolist()))


@pytest.mark.parametrize("n", [_CUT - 1, _CUT, 373_248])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_exact_sum_of_signed_zeros(n, zero):
    # the sign of a zero total is fsum's (-0.0 from Python 3.12 on)
    a = np.full(n, zero)
    assert _fsum(a) == 0.0
    assert _bits(_fsum(a)) == _bits(math.fsum(a.tolist()))


def test_exact_sum_of_cancelling_array_is_fsums_zero():
    a = np.arange(1.0, _CUT + 1.0)
    a = np.concatenate([a, -a])
    assert _bits(_fsum(a)) == _bits(math.fsum(a.tolist())) == _bits(0.0)


@pytest.mark.parametrize("n", [_CUT - 1, _CUT, 10_000])
def test_exact_sum_of_non_finite_input_is_fsums(n):
    a = np.ones(n)
    a[n // 3] = np.nan
    assert math.isnan(_fsum(a))
    a[n // 3] = np.inf
    assert _fsum(a) == math.inf
    a[n // 2] = -np.inf
    with pytest.raises(ValueError):
        _fsum(a)


@pytest.mark.parametrize("tail", [1e308, 1e-300])
def test_exact_sum_overflow_raises(tail):
    a = np.full(_CUT * 2, 1e308)
    a[-1] = tail
    with pytest.raises(OverflowError):
        _fsum(a)
    with pytest.raises(OverflowError):
        math.fsum(a.tolist())


def test_exact_sum_returns_a_finite_total_past_an_intermediate_overflow():
    a = np.zeros(_CUT)
    a[:3] = [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum(a.tolist())
    assert _fsum(a) == 1e308
