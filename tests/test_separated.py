"""Norms and Gram matrices of separated fields, taken axis by axis, against
the full grid.

Fields that carry a separated form (sums of products of 1-D factors) are
integrated by per-axis Gram matrices; the oracle is the same evaluators
without a form, integrated on every node of the same tensor rule. The two
are the same quadrature, so they agree to rounding.
"""
import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errbounds import (BoxDomain, QuadratureRule, default_suite_config,
                       fields, flux_basis, free_fields, l2_gram, l2_inner,
                       make_case, manufactured, norm_sq, parse_config,
                       perturb, quadrature, run, scalar_field, trace_norm_sq,
                       vector_field)
from errbounds.fields import trig_factor
from errbounds.manufactured import _rotgrad, _scalar, _trig_sum
from errbounds.optimize import improve_bound, minimize_flux_majorant
from test_fields import without_forms

# 1-D factors of the sympy terms, in the coordinate {s}, and time factors
_FACTORS = ("sin(2*{s})", "cos({s}/2)", "{s}**2 - 1", "exp(-{s}/4)",
            "1 + {s}/3", "sin({s})**2")
_TIME_FACTORS = ("1", "exp(-t)", "1 + t**2", "cos(t)")


def _grid_only(*args):
    raise AssertionError("a separated norm fell back to the grid")


@st.composite
def _problems(draw):
    """A shifted, anisotropic box (sides in [0.1, 10], d = 1..3, elliptic or
    parabolic), a coarse rule, and rank 1-6 sums of sympy and
    trigonometric terms, as (coefficient, scalar field) pairs. The vector
    terms are their gradients, a sympy vector field per sympy term (its
    components the term's text, rotated by one coordinate per component)
    and, in 2-D, the rotated gradients of the trigonometric terms."""
    dim = draw(st.integers(1, 3))
    lower = [draw(st.integers(-50, 50)) / 10 for _ in range(dim)]
    sides = [draw(st.integers(1, 100)) / 10 for _ in range(dim)]
    T = draw(st.sampled_from([None, 0.5, 2.0]))
    dom = BoxDomain(lower, [a + b for a, b in zip(lower, sides)],
                    time_horizon=T)
    scalars, more_vectors = [], []
    for _ in range(draw(st.integers(1, 6))):
        coef = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1, 1]))
        if draw(st.booleans()):
            names = "xyz"[:dim]
            factors = [draw(st.sampled_from(_FACTORS)) for _ in names]
            tfactor = draw(st.sampled_from(_TIME_FACTORS)) if T else "1"

            def text(shift):
                return "*".join([f.format(s=names[(i + shift) % dim])
                                 for i, f in enumerate(factors)] + [tfactor])

            scalars.append((coef, scalar_field(text(0), dom)))
            more_vectors.append((coef, vector_field(
                [text(j) for j in range(dim)], dom)))
            continue
        mode = tuple(draw(st.integers(1, 4)) for _ in range(dim))
        funcs = tuple(draw(st.sampled_from(["sin", "cos"])) for _ in range(dim))
        tpoly = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]
                         if T is not None else [1.0])
        ts = _trig_sum([1.0], [mode], [funcs], [tpoly], dom)
        scalars.append((coef, _scalar(ts, dom)))
        if dim == 2:
            more_vectors.append((coef, _rotgrad(ts, dom)))
    vectors = [(c, w.gradient_field()) for c, w in scalars] + more_vectors
    rule = QuadratureRule(space_order=draw(st.integers(1, 3)),
                          time_order=draw(st.integers(1, 3)))
    return dom, rule, scalars, vectors


def _measures(dom, rule):
    """(name, rank, squared measure of a field) of every norm kind and
    trace variant that applies on ``dom``."""
    out = [(kind, "scalar", lambda w, k=kind: norm_sq(k, w, dom, rule))
           for kind in ("L2", "H1", "V")]
    out += [(kind, "vector", lambda v, k=kind: norm_sq(k, v, dom, rule))
            for kind in ("L2", "Hdiv")]
    if dom.is_parabolic:
        T = dom.time_horizon
        out += [(kind, "scalar", lambda w, k=kind: norm_sq(k, w, dom, rule))
                for kind in ("H01", "H11", "Wstar", "triple")]
        for at in (0.0, T / 3, T):
            out += [(f"trace {variant} at {at}", "scalar",
                     lambda w, v=variant, a=at: trace_norm_sq(w, a, v, dom, rule))
                    for variant in ("value", "gradient", "H1")]
            out.append((f"trace value at {at}", "vector",
                        lambda v, a=at: trace_norm_sq(v, a, "value", dom, rule)))
    return out


def _combined(terms):
    out = terms[0][0] * terms[0][1]
    for c, w in terms[1:]:
        out = out + c * w
    return out


@given(_problems())
@settings(max_examples=60, deadline=None)
def test_separated_norms_match_the_grid(problem):
    dom, rule, scalars, vectors = problem
    for name, rank, measure in _measures(dom, rule):
        terms = scalars if rank == "scalar" else vectors
        field = _combined(terms)
        assert field.separated() is not None
        with mock.patch.object(quadrature, "_grid_inner", _grid_only):
            separated = measure(field)
        grid = measure(without_forms(field))
        scale = math.fsum(abs(c) * math.sqrt(measure(without_forms(w)))
                          for c, w in terms)
        assert abs(separated - grid) <= 1e-14 * scale ** 2, (name, separated,
                                                             grid, scale)
    # an inner product of two distinct sums
    w = _combined(scalars)
    v = _combined([(1.0 + c * c, f) for c, f in reversed(scalars)])
    with mock.patch.object(quadrature, "_grid_inner", _grid_only):
        separated = l2_inner(w, v, dom, rule)
    grid = l2_inner(without_forms(w), without_forms(v), dom, rule)
    norms = [math.sqrt(norm_sq("L2", without_forms(f), dom, rule))
             for _, f in scalars]
    scale = (math.fsum(abs(c) * n for (c, _), n in zip(scalars, norms))
             * math.fsum((1.0 + c * c) * n for (c, _), n in zip(scalars, norms)))
    assert abs(separated - grid) <= 1e-14 * scale


def _suffix_sums(terms, dom, rule):
    """The sums of the last k of ``terms``, for k from len(terms) down to
    1, and the scale of each: the sum of |c| ||w|| over its terms."""
    norms = [abs(c) * math.sqrt(norm_sq("L2", without_forms(w), dom, rule))
             for c, w in terms]
    return ([_combined(terms[k:]) for k in range(len(terms))],
            [math.fsum(norms[k:]) for k in range(len(terms))])


@given(_problems())
@settings(max_examples=40, deadline=None)
def test_separated_gram_matches_the_grid(problem):
    dom, rule, scalars, vectors = problem
    for terms in (scalars, vectors):
        left, lscale = _suffix_sums(terms, dom, rule)
        other = _suffix_sums([(1.0 + c * c, w) for c, w in reversed(terms)],
                             dom, rule)
        for right, rscale in ((left, lscale), other):
            with mock.patch.object(quadrature, "samples", _grid_only):
                G = l2_gram(left, right, dom, rule)
            scale = np.outer(lscale, rscale)
            bare = ([without_forms(f) for f in left],
                    [without_forms(f) for f in right])
            # the grid's Gram sums each entry sequentially, which alone errs
            # by up to about 2e-14 of the scale in these draws; its inner
            # product rounds correctly, as the separated sums do
            grid = l2_gram(*bare, dom, rule)
            assert np.all(np.abs(G - grid) <= 1e-13 * scale), (G, grid)
            grid = np.array([[l2_inner(a, b, dom, rule) for b in bare[1]]
                             for a in bare[0]])
            assert np.all(np.abs(G - grid) <= 1e-14 * scale), (G, grid)
            # an entry is l2_inner of its pair, bit for bit, so it does not
            # depend on the rest of either list or on their order
            assert all(G[i, j] == l2_inner(a, b, dom, rule)
                       for i, a in enumerate(left)
                       for j, b in enumerate(right))
            k = len(right) // 2
            assert np.array_equal(l2_gram(right[k:], left[:2], dom, rule),
                                  G[:2, k:].T)
            if right is left:
                assert np.array_equal(G, G.T)
                # the same fields in a second list give the same matrix
                assert np.array_equal(l2_gram(left, list(left), dom, rule), G)


@given(_problems())
@settings(max_examples=30, deadline=None)
def test_samples_of_forms_match_the_evaluators(problem):
    # a field with a form is sampled from it, without its evaluator, to
    # rounding of the values the evaluator gives at the same nodes
    dom, rule, scalars, vectors = problem
    for terms in (scalars, vectors):
        fields = [w for _, w in terms]
        with mock.patch.object(type(fields[0]), "value", _grid_only):
            rows, w = quadrature.samples(fields, dom, rule)
        grid, w_grid = quadrature.samples([without_forms(f) for f in fields],
                                          dom, rule)
        assert np.array_equal(w, w_grid)
        scale = np.abs(grid).max(axis=1, keepdims=True)
        assert np.all(np.abs(rows - grid) <= 1e-13 * scale)


def test_sympy_trig_factors_combine_with_trig_fields():
    # sympy's factors of grad(sin(pi x) sin(pi y)) are the trig factors of
    # the first flux basis field, so their terms combine: a difference
    # that nearly cancels keeps the accuracy it has on the grid
    dom, rule = BoxDomain((0.0, 0.0), (1.0, 1.0)), QuadratureRule()
    g = scalar_field("sin(pi*x)*sin(pi*y)", dom).gradient_field()
    b = flux_basis(dom, 1)[0]
    assert g.separated()[0].factors == b.separated()[0].factors
    scale = math.sqrt(norm_sq("L2", g, dom, rule))
    for delta in (1e-3, 1e-6, 1e-9):
        w = g - (1.0 + delta) * b
        grid = norm_sq("L2", without_forms(w), dom, rule)
        # the grid rounds each node's difference, an error of first order
        # in the norm of w; squaring the terms apart errs by 1e-16 of
        # scale**2, above this bound for every delta
        assert abs(norm_sq("L2", w, dom, rule) - grid) <= (
            1e-14 * scale * math.sqrt(grid))
    assert norm_sq("L2", g - b, dom, rule) == 0.0
    # a phase or a product inside the function leaves sympy's own factor
    x = scalar_field("sin(pi*x + 1)*cos(x**2)", BoxDomain((0.0,), (1.0,)))
    assert all(f not in (trig_factor("sin", math.pi, 0.0),
                         trig_factor("cos", 1.0, 0.0))
               for f in x.separated().factors[0])


def test_scalar_norms_are_never_negative():
    # a Poisson source against the divergence of the flux that cancels it:
    # rounding leaves some of these sums of c_k c_l H_kl below zero, and a
    # norm is 0 there, for scalars as for vectors
    dom, rule = BoxDomain((0.4,), (0.5,)), QuadratureRule()
    case = make_case("Poisson", dom, "sin(pi*(x - 4/10)*10)")
    basis = flux_basis(dom, 1)
    cs = [1.0 + k * 1e-10 for k in range(-10, 11)]
    for ws in ([case.f + c * basis[0].div_field() for c in cs],
               [case.exact_p - c * basis[0] for c in cs]):
        norms = [norm_sq("L2", w, dom, rule) for w in ws]
        assert min(norms) >= 0
        # so are the entries of a Gram matrix that pair a field with itself,
        # whether or not the two lists are one object
        for right in (ws, list(ws)):
            assert np.array_equal(l2_gram(ws, right, dom, rule).diagonal(),
                                  norms)
    # which would reach optimal_gamma in the Poisson majorant, and raise
    _, report, _ = minimize_flux_majorant(case, case.exact_u, basis, rule)
    assert min(report.checks.values()) >= 0 and report.ordering_ok


def test_unsplittable_solution_has_no_form():
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    w = scalar_field("sin(pi*x*y)*x*(1-x)", dom)
    assert w.separated() is None and w.gradient_field().separated() is None
    # a sum with a field without a form has none either
    assert (w + scalar_field("sin(pi*x)*sin(pi*y)", dom)).separated() is None
    # nor has an expression of more than 64 terms, which is not expanded
    assert scalar_field("(x + y + 1)**12", dom).separated() is None


def test_a_power_inside_a_function_is_not_expanded():
    # sp.expand expands function arguments too: the 60th power of a sum
    # inside sin would expand into about 40k terms before the split found
    # that the term does not separate
    import sympy

    dom = BoxDomain((0.0,) * 3, (1.0,) * 3)
    rule = QuadratureRule(space_order=2)
    text = "x*(1-x)*y*(1-y)*z*(1-z)*sin((x+y+z+1)**60)"
    w = scalar_field(text, dom)
    with mock.patch.object(sympy, "expand", side_effect=AssertionError):
        assert w.separated() is None
        assert norm_sq("L2", w, dom, rule) == norm_sq(
            "L2", without_forms(w), dom, rule)
    # so is a sum of more than 64 terms raised to a negative power
    assert scalar_field("x*(1-x)/(x + y + 3)**12", dom).separated() is None


def test_make_case_splits_nothing_until_a_norm_asks():
    from errbounds import symbolic

    dom = BoxDomain((0.0, 0.0), (1.0, 2.0), time_horizon=1.0)
    with mock.patch.object(symbolic, "_split", side_effect=AssertionError):
        case = make_case("Heat", dom, "(2+t)*sin(pi*x)*sin(pi*y/2)")
        perturb(case, "conforming_mixed", 0.1, 0)
    assert case.f.separated() is not None and case.u0.separated() is not None


# --------------------------------------------------------------------------
# the benchmark's workloads take the separated path throughout
# --------------------------------------------------------------------------

def _case(kind, lower, upper, solution, label, T=None):
    case = {"kind": kind, "lower": lower, "upper": upper,
            "solution": solution, "label": label}
    if T is not None:
        case["T"] = T
    return case


def _config(cases, approximations, estimators):
    return parse_config(json.dumps({"cases": cases,
                                    "approximations": approximations,
                                    "estimators": estimators}))


_SUITE = _config(
    [_case("RD", [0.0], [1.0], "sin(pi*x)", "rd-sine"),
     _case("Poisson", [0.0], [1.0], "sin(pi*x) + sin(2*pi*x)/4", "poisson-sines"),
     _case("TRD", [0.0], [1.0], "exp(-t)*sin(pi*x)", "trd-decay", 1.0),
     _case("Heat", [0.0], [1.0], "(1+t)*sin(pi*x)", "heat-growth", 1.0)],
    [{"level": "conforming_mixed", "epsilon": eps, "seed": s}
     for eps in (0.01, 0.1, 1.0) for s in (3, 41)],
    [{"name": "rd_equality"}, {"name": "poisson_two_sided", "gamma": 2.0},
     {"name": "trd_equality"}, {"name": "heat_two_sided", "gamma": 2.0},
     {"name": "trd_isometry_check"}, {"name": "heat_isometry_check"}])
_VOLUME = _config(
    [_case("RD", [0.0, 0.0, 0.0], [1.0, 2.0, 0.5],
           "sin(pi*x)*sin(pi*y/2)*sin(2*pi*z)", "rd-box3"),
     _case("Heat", [0.0, 0.0], [1.0, 1.0], "(1+t)*sin(pi*x)*sin(pi*y)",
           "heat-square", 1.0)],
    [{"level": "conforming_mixed", "epsilon": 0.1, "seed": 5}],
    [{"name": "rd_equality"}, {"name": "heat_two_sided", "gamma": 2.0}])
_MAJORANT = _config(
    [_case("RD", [0.0, 0.0], [1.0, 1.0],
           "sin(pi*x)*sin(pi*y) + sin(3*pi*x)*sin(pi*y)/3", "rd-square"),
     _case("Poisson", [0.0, 0.0], [1.0, 1.0], "sin(pi*x)*sin(2*pi*y)",
           "poisson-square")],
    [{"level": "conforming_mixed", "epsilon": 0.1, "seed": 9}],
    [{"name": "optimize_majorant", "basis_size": n} for n in (4, 16, 36)])


@pytest.mark.parametrize("config", [_SUITE, _VOLUME, _MAJORANT],
                         ids=["suite", "volume", "majorant"])
def test_workloads_take_no_grid_norm(config):
    # no norm, inner product or Gram matrix, the majorants' included,
    # samples a field on the grid
    with mock.patch.object(quadrature, "_grid_inner", _grid_only), \
            mock.patch.object(quadrature, "samples", _grid_only):
        report = run(config)
        if config is _MAJORANT:
            cs = config.cases[0]
            case = make_case(cs.kind, cs.domain(), cs.solution)
            approx = perturb(case, "non_conforming", 0.3, 9)
            reports = improve_bound(case, approx,
                                    free_fields(case, "coarse")[0],
                                    QuadratureRule(), budget=8)
            assert all(r.ordering_ok for r in reports)
    assert report.records and all(r["passed"] for r in report.records), [
        r["error"] for r in report.records if not r["passed"]]


def test_unsplittable_solution_takes_the_grid_and_passes():
    config = _config(
        [_case("RD", [0.0, 0.0], [1.0, 1.0], "sin(pi*x*y)*x*(1-x)*y*(1-y)",
               "rd-unsplit")],
        [{"level": "conforming_mixed", "epsilon": 0.1, "seed": 2}],
        [{"name": "rd_equality"}])
    calls = []
    grid_inner = quadrature._grid_inner

    def counted(*args):
        calls.append(args)
        return grid_inner(*args)

    with mock.patch.object(quadrature, "_grid_inner", counted):
        report = run(config)
    assert calls and all(r["passed"] for r in report.records)


# --------------------------------------------------------------------------
# plans: the term-pair integrals of raw factor tuples, kept per process
# --------------------------------------------------------------------------

def _reference_addends(a, b, axes):
    """c_k c_l H_kl of the terms k of the sums ``a`` and l of the sums
    ``b`` with no plan: per axis one ``weighted_gram`` of the stacked
    factor values of all terms."""
    fa = [fs for s in a for fs in s.factors]
    fb = fa if b is a else [fs for s in b for fs in s.factors]
    ca = [x for s in a for x in s.coefs]
    cb = ca if b is a else [x for s in b for x in s.coefs]
    H = 1.0
    for i, (x, w) in enumerate(axes):
        L = np.array([fs[i].on(x) for fs in fa]).reshape(len(fa), len(x))
        R = L if fb is fa else np.array([fs[i].on(x) for fs in fb]).reshape(
            len(fb), len(x))
        H = H * quadrature.weighted_gram(L, R, w)
    return np.multiply.outer(ca, cb) * H


def _reference_inner(fa, fb, axes):
    """``quadrature.separated_inner`` from each component's ``merged()``
    terms and their addends with no plan (:func:`_reference_addends`)."""
    pairs = zip(fa, fb) if isinstance(fa, tuple) else [(fa, fb)]
    total = quadrature._fsum(np.concatenate([
        _reference_addends([a.merged()], [b.merged()], axes).ravel()
        for a, b in pairs]))
    return max(total, 0.0) if fb is fa else total


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@st.composite
def _tables(draw):
    """A box of 1-3 axes (time first where it has one), a coarse rule, a
    pool of distinct trigonometric and polynomial factors, lists of factor
    tuples over the pool, with repeats within and among them, a plan bound
    below the number of distinct lists, and separated sums over the
    pool."""
    from errbounds.manufactured import _poly_factor

    axes = draw(st.integers(1, 3))
    T = draw(st.sampled_from([None, 0.5]))
    dim = axes - (T is not None) or 1
    lower = [draw(st.sampled_from([0.0, -0.5, 0.3])) for _ in range(dim)]
    dom = BoxDomain(lower, [a + draw(st.sampled_from([1.0, 2.0]))
                            for a in lower], time_horizon=T)
    rule = QuadratureRule(space_order=draw(st.integers(1, 3)),
                          time_order=draw(st.integers(1, 3)))
    pool = []
    for _ in range(draw(st.integers(3, 10))):
        if draw(st.booleans()):
            f = trig_factor(draw(st.sampled_from(["sin", "cos"])),
                            draw(st.sampled_from([1.0, 2.5, math.pi])),
                            draw(st.sampled_from([0.0, 0.3])))
        else:
            f = _poly_factor(np.array([draw(st.floats(-2.0, 2.0))
                                       for _ in range(draw(st.integers(1, 3)))]))
        if f not in pool:
            pool.append(f)
    factors = st.tuples(*[st.sampled_from(pool)] * (dim + (T is not None)))
    lists = st.lists(factors, min_size=1, max_size=8).map(tuple)
    batches = draw(st.lists(lists, min_size=2, max_size=6).filter(
        lambda b: len(set(b)) > 1))
    bound = draw(st.integers(1, len(set(batches)) - 1))
    term = st.tuples(st.floats(-2.0, 2.0).filter(bool), factors)
    sums = [fields.SeparatedSum(*zip(*draw(st.lists(term, min_size=1,
                                                    max_size=5))))
            for _ in range(draw(st.integers(2, 4)))]
    return dom, rule, bound, batches, sums


@given(_tables())
@settings(max_examples=40, deadline=None)
def test_plans_hold_each_pairs_own_integral(problem):
    dom, rule, bound, batches, sums = problem
    axes = quadrature.axis_rules(dom, rule)

    def own(fs, gs):
        H = 1.0
        for f, g, (x, w) in zip(fs, gs, axes):
            H = H * quadrature.weighted_gram(f.on(x)[None], g.on(x)[None],
                                             w)[0, 0]
        return H

    with mock.patch.object(quadrature, "_PLANS", {}), \
            mock.patch.object(quadrature, "PLAN_MEMO", bound):
        for batch in batches:
            slots, H = quadrature._plan(batch, axes)
            assert len(quadrature._PLANS) <= bound
            terms = list(dict.fromkeys(batch))
            assert [terms[k] for k in slots] == list(batch)
            # every entry, before and after a restart, is the product of
            # its own pair's einsums, whatever else the plan holds
            assert _hex(H) == _hex([[own(f, g) for g in terms]
                                    for f in terms])
        # more distinct lists than the bound: the memo restarted
        assert len(quadrature._PLANS) < len(set(batches))

        # norms, inner products and Grams through the restarting plans
        # equal those of stacked values contracted per call, bit for bit
        forms = [*sums, *(tuple(sums[(k + j) % len(sums)]
                                for j in range(dom.dim))
                          for k in range(len(sums)))]
        fs = [(fields.VectorField if isinstance(f, tuple) else
               fields.ScalarField)(_grid_only, dim=dom.dim,
                                   time_dependent=dom.is_parabolic,
                                   form=lambda f=f: f) for f in forms]
        for group in (range(len(sums)), range(len(sums), len(forms))):
            pairs = [(i, j) for i in group for j in group]
            assert _hex([l2_inner(fs[i], fs[j], dom, rule)
                         for i, j in pairs]) == _hex(
                [_reference_inner(forms[i], forms[j], axes)
                 for i, j in pairs])
            left, right = [fs[i] for i in group], [fs[j] for j in group]
            assert _hex(l2_gram(left, left, dom, rule)) == _hex(
                [_reference_inner(forms[i], forms[j], axes)
                 for i, j in pairs])
            assert _hex(l2_gram(left[1:], right, dom, rule)) == _hex(
                [_reference_inner(forms[i], forms[j], axes)
                 for i, j in pairs if i != group[0]])


def test_warm_norms_evaluate_and_integrate_no_factor(monkeypatch):
    # once the plans of some forms are kept, norms and Grams of those forms
    # only gather their entries: no factor value is taken and no pair
    # integrated again
    dom, rule = BoxDomain((0.0, -1.0), (1.0, 2.0)), QuadratureRule()
    basis = flux_basis(dom, 9)
    u = scalar_field("sin(pi*x)*sin(pi*(y + 1)/3)", dom)
    mixed = basis[2] - 0.5 * basis[7]

    def measure():
        return ([norm_sq(k, w, dom, rule) for k, w in
                 (("H1", u), ("Hdiv", basis[4]), ("L2", mixed))]
                + list(l2_gram(basis, basis, dom, rule).ravel())
                + [l2_inner(u.gradient_field(), mixed, dom, rule)])

    warm = measure()
    counts = {"on": 0, "weighted_gram": 0}
    on, weighted_gram = fields.Factor.on, quadrature.weighted_gram

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(fields.Factor, "on", counted("on", on))
    monkeypatch.setattr(quadrature, "weighted_gram",
                        counted("weighted_gram", weighted_gram))
    assert measure() == warm
    assert counts == {"on": 0, "weighted_gram": 0}
    # a new form is integrated once, one contraction per axis
    novel = scalar_field("sin(pi*x)*cos(7*y)", dom)
    norm_sq("L2", novel, dom, rule)
    assert counts["weighted_gram"] == 2 and counts["on"] > 0
    counts.update(on=0, weighted_gram=0)
    norm_sq("L2", novel, dom, rule)
    assert counts == {"on": 0, "weighted_gram": 0}


def test_equal_factors_stay_one_object():
    # factors are interned for good: the memos that make them expose no
    # clear, which would split equal factors into two objects
    from errbounds import symbolic

    assert not hasattr(fields.trig_factor, "cache_clear")
    assert not hasattr(symbolic._factor, "cache_clear")
    assert trig_factor("cos", 2.5, 0.25) is trig_factor("cos", 2.5, 0.25)
    x = symbolic.X_SYMBOLS[0]
    assert symbolic._factor(x ** 2 + 1, x) is symbolic._factor(x ** 2 + 1, x)
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    first, second = (scalar_field("(x**2 + 1)*sin(2*pi*y)", dom).separated()
                     for _ in range(2))
    assert first.factors == second.factors
    assert all(f is g for fs, gs in zip(first.factors, second.factors)
               for f, g in zip(fs, gs))
    assert first.factors[0][1] is trig_factor("sin", 2 * math.pi, 0.0)


# --------------------------------------------------------------------------
# norm plans: the structure of each raw form's norm, kept per process
# --------------------------------------------------------------------------

def _norms(forms, dom, rule):
    return _hex([quadrature.separated_inner(f, f, dom, rule) for f in forms])


def _rescaled(s, k):
    return fields.SeparatedSum([k * c for c in s.coefs], s.factors)


@st.composite
def _plan_problems(draw):
    """A box of 1-3 axes (time first where it has one), a coarse rule, and
    scalar and vector forms over a small pool of factors, so that factor
    tuples repeat within a sum: sums u and d, u + eps d - u (a term of u
    that no other term shares cancels exactly), m - m and the empty sum, m
    being u with its terms merged. Beside them the same forms of k u, of d
    with other coefficients and of k m: the same raw factor tuples."""
    from errbounds.manufactured import _poly_factor

    axes = draw(st.integers(1, 3))
    T = draw(st.sampled_from([None, 0.5]))
    dim = axes - (T is not None) or 1
    lower = [draw(st.sampled_from([0.0, -0.5, 0.3])) for _ in range(dim)]
    dom = BoxDomain(lower, [a + draw(st.sampled_from([1.0, 2.0]))
                            for a in lower], time_horizon=T)
    rule = QuadratureRule(space_order=draw(st.integers(1, 3)),
                          time_order=draw(st.integers(1, 3)))
    pool = [trig_factor(draw(st.sampled_from(["sin", "cos"])),
                        draw(st.sampled_from([1.0, 2.5, math.pi])), 0.0)
            for _ in range(draw(st.integers(1, 3)))]
    pool.append(_poly_factor(np.array([draw(st.floats(-2.0, 2.0))
                                       for _ in range(2)])))
    width = dim + (T is not None)
    tuples = st.tuples(*[st.sampled_from(pool)] * width)
    coef = st.floats(-2.0, 2.0).filter(bool)
    u, d = (fields.SeparatedSum(*zip(*draw(st.lists(
        st.tuples(coef, tuples), min_size=1, max_size=size))))
        for size in (6, 3))
    eps = draw(st.sampled_from([1e-8, 0.1, 1.0]))
    k = draw(coef)
    other = fields.SeparatedSum([draw(coef) for _ in d.coefs], d.factors)

    def forms(u, d, m):
        cancel = fields.SeparatedSum.combination([u, d, u], [1.0, eps, -1.0])
        gone = fields.SeparatedSum.combination([m, m], [1.0, -1.0])
        scalars = [u, d, cancel, gone, fields.SeparatedSum((), ())]
        return scalars + [tuple(scalars[(j + i) % len(scalars)]
                                for j in range(dim))
                          for i in range(len(scalars))]

    return dom, rule, forms(u, d, u.merged()), forms(
        _rescaled(u, k), other, _rescaled(u.merged(), k))


@given(_plan_problems())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_planned_norms_equal_the_merged_reference_bitwise(problem):
    dom, rule, forms, others = problem
    axes = quadrature.axis_rules(dom, rule)
    with mock.patch.object(quadrature, "_PLANS", {}):
        cold = _norms(forms, dom, rule)
        plans = len(quadrature._PLANS)
        warm = _norms(forms, dom, rule)
        other = _norms(others, dom, rule)
        # the other coefficients met the plans of the same raw factors
        assert len(quadrature._PLANS) == plans
    assert cold == warm == _hex([_reference_inner(f, f, axes) for f in forms])
    assert other == _hex([_reference_inner(f, f, axes) for f in others])
    # so are the addends themselves, zeros of cancelled terms dropped
    for s in forms[:5] + others[:5]:
        program = quadrature._program([(axes, None, (s,), None)])
        m = [s.merged()]
        assert _hex(quadrature._addends([1.0], program)[0]) == _hex(
            _reference_addends(m, m, axes))
    # a sum that cancels fully and the empty sum are exactly +0
    assert {cold[3], cold[4], other[3], other[4]} == {(0.0).hex()}


def test_warm_norms_take_no_merge_and_no_term_grams(monkeypatch):
    # once the plans of some raw forms are kept, norms of new fields with
    # those forms' factors and other coefficients gather from them alone
    dom = BoxDomain((0.0, -1.0), (1.0, 2.0), time_horizon=0.5)
    rule = QuadratureRule(space_order=4, time_order=3)
    u = scalar_field("(1 + t)*sin(pi*x)*sin(pi*(y + 1)/3)", dom)
    v = scalar_field("exp(-t)*x*(1 - x)*sin(pi*(y + 1)/3)", dom)
    e = scalar_field("t*sin(2*pi*x)*sin(pi*(y + 1)/3)", dom)

    def measure(c):
        w = u - v + c * e
        return [norm_sq(kind, w, dom, rule) for kind in ("Wstar", "triple")]

    measure(0.5)
    counts = {"term_grams": 0, "merged": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(quadrature, "term_grams",
                        counted("term_grams", quadrature.term_grams))
    monkeypatch.setattr(fields.SeparatedSum, "merged",
                        counted("merged", fields.SeparatedSum.merged))
    warm = measure(-0.25)
    assert counts == {"term_grams": 0, "merged": 0}
    # cold memos build the plans (and the record plans over them) again,
    # to the same bits
    monkeypatch.setattr(quadrature, "_PLANS", {})
    monkeypatch.setattr(quadrature, "_RECORDS", {})
    assert _hex(measure(-0.25)) == _hex(warm)
    assert counts["term_grams"] > 0 and counts["merged"] == 0


def _plan_sums():
    """Sums over shared factor pairs, repeated within each sum."""
    f = [trig_factor("sin", float(m), 0.0) for m in (1, 2, 3)]
    g = trig_factor("cos", 0.5, 0.0)
    return [fields.SeparatedSum([1.0, -0.5 * k, 0.25, 0.75],
                                [(f[k], g), (g, f[k]), (f[k], g), (f[k], f[k])])
            for k in range(3)] + [
        fields.SeparatedSum([2.0, 1.0], [(f[0], f[1]), (f[1], f[0])])]


def test_norm_plans_restart_past_their_bound_bit_for_bit(monkeypatch):
    dom, rule = BoxDomain((0.0, 0.0), (1.0, 2.0)), QuadratureRule(space_order=3)
    sums = _plan_sums()
    monkeypatch.setattr(quadrature, "_PLANS", {})
    unbounded = _norms(sums, dom, rule)
    assert len(quadrature._PLANS) == len(sums)
    monkeypatch.setattr(quadrature, "_PLANS", {})
    monkeypatch.setattr(quadrature, "PLAN_MEMO", 2)
    built = []
    plan = quadrature._plan

    def spied(factors, axes):
        before = quadrature._PLANS.get((id(axes), factors))
        out = plan(factors, axes)
        built.append(before is None)
        return out

    monkeypatch.setattr(quadrature, "_plan", spied)
    for order in (sums, sums[::-1], sums[::2] * 2):
        for s in order:
            k = sums.index(s)
            assert _norms([s], dom, rule) == [unbounded[k]]
            assert len(quadrature._PLANS) <= 2
    # the memo restarted: more plans were built than there are forms
    assert sum(built) > len(sums)


def test_the_same_factors_on_another_box_or_rule_get_their_own_plan(
        monkeypatch):
    s = _plan_sums()[0]
    places = [(BoxDomain((0.0, 0.0), (1.0, 1.0)), QuadratureRule()),
              (BoxDomain((0.0, 0.0), (1.0, 2.0)), QuadratureRule()),
              (BoxDomain((0.0, 0.0), (1.0, 1.0)), QuadratureRule(space_order=3))]
    monkeypatch.setattr(quadrature, "_PLANS", {})
    norms = [_norms([s], dom, rule)[0] for dom, rule in places]
    assert len(quadrature._PLANS) == len(places)
    assert norms == [
        _hex([_reference_inner(s, s, quadrature.axis_rules(*p))])[0]
        for p in places]
    # in the other order, each place still takes its own plan
    monkeypatch.setattr(quadrature, "_PLANS", {})
    assert [_norms([s], dom, rule)[0] for dom, rule in places[::-1]] == (
        norms[::-1])


@st.composite
def _reductions(draw):
    """A box, a coarse rule and separated forms whose plans hold from none
    to 24 distinct factor tuples: scalar sums, and vector forms with one
    component of fewer than 12 and one of 12 or more, in either order. A
    tuple's raw terms are shuffled among the others, some take a
    coefficient 0.0, -0.0 or one whose square underflows, and some get a
    last term that cancels its slot exactly."""
    T = draw(st.sampled_from([None, 1.0]))
    dim = draw(st.integers(1, 2))
    dom = BoxDomain([0.0] * dim, [1.0 + k for k in range(dim)],
                    time_horizon=T)
    rule = QuadratureRule(space_order=2, time_order=2)
    pool = [trig_factor(f, float(k), 0.0)
            for f in ("sin", "cos") for k in range(1, 13)]
    tuples = st.tuples(*[st.sampled_from(pool)] * (dim + (T is not None)))
    coef = st.one_of(st.floats(-2.0, 2.0),
                     st.sampled_from([0.0, -0.0, 1e-170, -1e-170]))
    bound = 12

    def raw_sum(lo, hi):
        n = draw(st.integers(lo, hi))
        distinct = draw(st.lists(tuples, unique=True, min_size=n, max_size=n))
        terms = [(draw(coef), fs) for fs in distinct
                 for _ in range(draw(st.integers(1, 2)))]
        terms = draw(st.permutations(terms))
        for fs in distinct:
            if draw(st.booleans()):
                # the slot's coefficients add from 0.0 in raw-term order
                terms.append((-sum((c for c, gs in terms if gs is fs), 0.0),
                              fs))
        return fields.SeparatedSum([c for c, _ in terms],
                                   [fs for _, fs in terms])

    scalars = [raw_sum(0, 2 * bound) for _ in range(3)]
    vector = [raw_sum(0, bound - 1), raw_sum(bound, 2 * bound)]
    return dom, rule, scalars + [tuple(draw(st.permutations(vector)))]


@given(_reductions())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_kept_program_gathers_each_pattern_of_zero_slots_afresh(problem):
    # one program of a pair of forms, kept as a plan keeps it, its second
    # form scaled so that slots vanish or come back, reduces each scale as
    # a program built for that scale alone, to the addends: the pairs it
    # gathers are kept per pattern of zero slots
    dom, rule, forms = problem
    axes = quadrature.axis_rules(dom, rule)
    with mock.patch.object(quadrature, "_PLANS", {}):
        for a, b in zip(forms, forms[1:] + forms[:1]):
            if isinstance(a, tuple) != isinstance(b, tuple):
                continue
            pieces = [(axes, None, (a, b), None)]
            kept = quadrature._program(pieces)
            for x in (1.0, 0.0, -1.0, 0.5, 0.0, 1.0):
                fresh = quadrature._program(pieces)
                assert _hex(quadrature._addends([1.0, x], kept)[0]) == _hex(
                    quadrature._addends([1.0, x], fresh)[0])
                assert _hex(quadrature._norms([1.0, x], kept)) == _hex(
                    quadrature._norms([1.0, x], fresh))
            assert len(kept[1][-1]) <= 4


def test_a_node_builds_each_form_once(monkeypatch):
    dom = BoxDomain((0.0, 0.0), (1.0, 2.0), time_horizon=0.5)
    u = scalar_field("(1 + t)*sin(pi*x)*sin(pi*y/2)", dom)
    w = u - 0.5 * u
    built = []
    build = fields._Field._build_form
    monkeypatch.setattr(fields._Field, "_build_form", lambda self, name: (
        built.append((id(self), name)) or build(self, name)))
    names = ("value", "grad", "laplacian", "dt")
    first = [w.form(n) for n in names]
    assert len(built) == len(set(built)) > len(names)
    count = len(built)
    # a second request of any name on any node reads its memo
    assert all(a is b for a, b in zip([w.form(n) for n in names], first))
    assert w.separated() is first[0]
    assert len(built) == count
    # a view builds its own form once, from its base's memo
    g = w.gradient_field()
    assert g.separated() is g.separated() is first[1]
    assert len(built) == count + 1
    # a capability the node lacks is refused at every request
    r = w.restricted()
    for _ in range(2):
        with pytest.raises(fields.CapabilityError):
            r.form("grad")


# --------------------------------------------------------------------------
# norms of signed atom terms equal those of the field expressions they state
# --------------------------------------------------------------------------

# the field each view of a field is
_VIEWED = {"value": lambda w: w, "grad": lambda w: w.gradient_field(),
           "div": lambda w: w.div_field(), "dt": lambda w: w.dt_field(),
           "laplacian": lambda w: w.laplacian_field()}
# the rank of each view of a field of each rank
_VIEW_RANKS = {"scalar": {"value": "scalar", "grad": "vector",
                          "laplacian": "scalar", "dt": "scalar"},
               "vector": {"value": "vector", "div": "scalar",
                          "dt": "vector"}}


def _atoms(dom, seed, eps):
    """(rank, field) of fields of both ranks on ``dom``: perturbation
    directions, a perturbed and restricted field, a scaled field, symbolic
    fields that split, the approximations :func:`perturb` makes of the
    symbolic pair at every level with the scale ``eps``, scaled sums,
    flux-basis fields on an elliptic box, and fields without forms (one
    that does not split, and copies without forms)."""
    d = manufactured.directions(dom, seed)
    names = "xyz"[:dom.dim]
    text = "*".join(f"sin({1 + i}*{s} + 1)" for i, s in enumerate(names))
    text += "*(1 + t**2)" if dom.is_parabolic else ""
    u = scalar_field(text, dom)
    q = vector_field([text.replace(names[0], "(2*" + names[0] + ")")] * dom.dim,
                     dom)
    scalars = [d.conforming, u, 0.9 * u,
               (u + 0.3 * d.conforming).restricted(grad=True, dt=True),
               without_forms(d.conforming)]
    if dom.dim == 2:
        scalars.append(scalar_field("sin(pi*x*y)*x*(1-x)*y*(1-y)"
                                    + ("*exp(-t)" if dom.is_parabolic else ""),
                                    dom))
    vectors = [d.gradient, d.flux, q, u.gradient_field() - 0.5 * d.gradient,
               without_forms(q)]
    case = manufactured.ProblemCase("TRD" if dom.is_parabolic else "RD", dom,
                                    u, None, u, u.gradient_field())
    for level in manufactured.LEVELS:
        approx = perturb(case, level, eps, seed)
        scalars.append(approx.u_tilde)
        vectors.append(approx.p_tilde)
    # scales of scaled sums: a node whose leaf terms are its operand's form
    scalars.append(3.0 * (0.9 * u + 0.7 * d.conforming))
    vectors.append(0.5 * approx.p_tilde)
    if not dom.is_parabolic:
        vectors += flux_basis(dom, 3)
    return [("scalar", w) for w in scalars] + [("vector", v) for v in vectors]


@st.composite
def _term_norms(draw):
    """A shifted, anisotropic box (d = 1..3, elliptic or space-time), a
    coarse rule, and a norm of signed atom terms: each term's view one its
    atom carries, the norm at no time or at 0 or T (its space-time atoms
    sliced there, beside fields of the spatial box, and no dt of a slice),
    and the terms, or parenthesised groups of them; the approximations
    among the atoms perturbed by a drawn scale, and a plan and program
    bound of 8, or the default one. A norm at a slice time is stated on
    the space-time box it slices."""
    dim = draw(st.integers(1, 3))
    lower = [draw(st.integers(-30, 30)) / 10 for _ in range(dim)]
    sides = [draw(st.integers(2, 40)) / 10 for _ in range(dim)]
    T = draw(st.sampled_from([None, 0.5, 2.0]))
    dom = BoxDomain(lower, [a + b for a, b in zip(lower, sides)],
                    time_horizon=T)
    at = draw(st.sampled_from([None, 0.0, T])) if T is not None else None
    on = dom if at is None else dom.spatial()
    seed = draw(st.integers(0, 3))
    eps = draw(st.sampled_from([0.0, 1e-300, 1e-8, 0.3, 1.0]))
    pool = _atoms(dom, seed, eps) + (_atoms(on, seed, eps) if at is not None
                                     else [])
    rank = draw(st.sampled_from(["scalar", "vector"]))
    choices = [(w, name) for r, w in pool
               for name, out in _VIEW_RANKS[r].items()
               if out == rank and (name == "value" or name in w.capabilities)
               and not (at is not None and name == "dt")]

    def drawn(n):
        return [(draw(st.sampled_from([1.0, -1.0])),
                 *draw(st.sampled_from(choices))) for _ in range(n)]

    if draw(st.booleans()):
        terms = drawn(draw(st.integers(1, 4)))
    else:
        # a tuple of lists of terms: the sum of parenthesised groups
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        terms = tuple(drawn(n) for n in sizes)
    rule = QuadratureRule(space_order=draw(st.integers(1, 3)),
                          time_order=draw(st.integers(1, 3)))
    memo = draw(st.sampled_from([quadrature.PLAN_MEMO, 8]))
    return dom, rule, terms, at, memo


def _expression(terms, at):
    """The expression of field nodes the terms state, as estimators wrote
    them: a left fold of ``+`` and ``-``, each group parenthesised, each
    space-time atom sliced at ``at`` unless it is None."""
    out = None
    for t in terms:
        if isinstance(t, list):
            sign, w = 1.0, _expression(t, at)
        else:
            sign, atom, name = t
            sliced = at is not None and atom.time_dependent
            w = _VIEWED[name](atom.at_time(at) if sliced else atom)
        out = ((w if sign > 0 else -w) if out is None
               else out + w if sign > 0 else out - w)
    return out


@given(_term_norms())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_terms_norm_equals_the_node_expression_bitwise(problem):
    dom, rule, terms, at, memo = problem
    with mock.patch.object(quadrature, "PLAN_MEMO", memo):
        _check_terms_norm(dom, rule, terms, at)


def _check_terms_norm(dom, rule, terms, at):
    """The norms of ``terms`` on ``dom``, at ``at`` unless it is None,
    equal those of the node expression they state on the box it lives on,
    and, in L2, the norm of that expression's own form, in hex."""
    on = dom if at is None else dom.spatial()
    expression = _expression(terms, at)
    flat = [u for t in terms for u in (t if isinstance(t, list) else [t])]
    kinds = ["L2", "H1" if isinstance(expression, fields.ScalarField)
             else "Hdiv"]
    views = ["value"]
    if all(name == "value" for _, _, name in flat):
        views += [v for v in _VIEWED if v != "value"
                  and v in expression.capabilities]
    for view in views:
        node = _VIEWED[view](expression)
        for kind in kinds if view == "value" else ["L2"]:
            if kind != "L2" and {"grad", "div"}.isdisjoint(node.capabilities):
                continue
            got = quadrature.terms_norm_sq(dom, rule, terms, view, kind,
                                           at).hex()
            assert got == norm_sq(kind, node, on, rule).hex(), (view, kind)
            form = node.separated()
            if kind == "L2" and form is not None:
                # the norm of the concatenated form the nodes build
                assert got == quadrature.separated_inner(
                    form, form, on, rule).hex(), view


_REFUSALS = ["dt at a time", "no such view", "rank mismatch",
              "Hdiv of a scalar", "domain mismatch", "sign 2.0", "sign 0.5",
              "at nan", "at inf", "at below 0", "at past T",
              "at on an elliptic box"]
_REFUSAL_BOX = BoxDomain((0.0, -1.0), (1.0, 0.5), time_horizon=1.0)
_REFUSAL_RULE = QuadratureRule(space_order=2, time_order=2)


def _refusal(case, u, q):
    """The box, the norm ``(terms, view, kind, at)`` and the error of the
    refusal ``case`` of the space-time scalar ``u`` and vector ``q`` of
    :data:`_REFUSAL_BOX`."""
    dom = _REFUSAL_BOX
    box, terms, view, kind, at, error = {
        "dt at a time": (dom, [(1.0, u, "dt")], "value", "L2", 0.5,
                         fields.CapabilityError),
        "no such view": (dom, [(1.0, u, "grad")], "grad", "L2", None,
                         fields.CapabilityError),
        "rank mismatch": (dom, [(1.0, u, "value"), (-1.0, q, "value")],
                          "value", "L2", None, TypeError),
        "Hdiv of a scalar": (dom, [(1.0, u, "value")], "value", "Hdiv",
                             None, TypeError),
        "domain mismatch": (BoxDomain((0.0, -1.0), (1.0, 0.5)),
                            [(1.0, u, "value")], "value", "L2", None,
                            ValueError),
        "sign 2.0": (dom, [(1.0, u, "value"), (2.0, u, "grad")], "value",
                     "L2", None, ValueError),
        "sign 0.5": (dom, [(0.5, u, "value")], "value", "H1", None,
                     ValueError),
        "at nan": (dom, [(1.0, u, "value")], "value", "L2", math.nan,
                   ValueError),
        "at inf": (dom, [(1.0, u, "value")], "grad", "L2", math.inf,
                   ValueError),
        "at below 0": (dom, [(1.0, u, "value")], "value", "H1", -0.5,
                       ValueError),
        "at past T": (dom, [(1.0, u, "value")], "value", "L2", 5.0,
                      ValueError),
        "at on an elliptic box": (dom.spatial(), [(1.0, u, "value")],
                                  "value", "L2", 0.5, ValueError)}[case]
    return box, (terms, view, kind, at), error


def _refusal_atoms():
    u = scalar_field("sin(x + 1)*sin(2*y + 1)*(1 + t**2)", _REFUSAL_BOX)
    return u, u.gradient_field()


@pytest.mark.parametrize("case", _REFUSALS)
def test_terms_norm_refuses_alike_with_and_without_forms(case):
    # a norm of atoms with forms and the same norm of copies without forms
    # (taken on the grid) are refused with the same error
    rule = _REFUSAL_RULE

    def refusal(u, q):
        box, norm, error = _refusal(case, u, q)
        with pytest.raises(error) as info:
            quadrature.terms_norm_sq(box, rule, *norm)
        return str(info.value)

    u, q = _refusal_atoms()
    message = refusal(u, q)
    assert message == refusal(without_forms(u), without_forms(q))
    if case.startswith("sign"):
        assert message.startswith(f"term ({case[5:]}, ")
    elif case.startswith("at"):
        assert message.startswith("slice time at=")


@pytest.mark.parametrize("case", _REFUSALS)
def test_a_record_refuses_its_first_refused_norm(case):
    # inside a table, between a norm that is taken and one that is refused
    # otherwise, a refused norm raises what its one-entry call raises, with
    # and without forms
    u, q = _refusal_atoms()
    for atoms in ((u, q), (without_forms(u), without_forms(q))):
        box, norm, error = _refusal(case, *atoms)
        with pytest.raises(error) as alone:
            quadrature.terms_norm_sq(box, _REFUSAL_RULE, *norm)
        fine = atoms[0] if box.is_parabolic else scalar_field(
            "sin(x + 1)*sin(2*y + 1)", box)
        table = {"taken": ([(1.0, fine, "value")], "value", "H1"),
                 "refused": norm,
                 "refused too": ([(1.0, fine, "value")], "value", "nope")}
        with pytest.raises(error) as inside:
            quadrature.record_norms_sq(box, _REFUSAL_RULE, table)
        assert str(inside.value) == str(alone.value)


def _table(pool, dom, T):
    """Norms, by name, of the atoms of ``pool`` and of the differences of
    neighbours of one rank: L2 and every composite kind that their
    capabilities admit, and on a space-time ``dom`` also L2 and H1 at the
    slice times 0, T/2 and T."""
    table = {}
    pairs = [([(1.0, w, "value")], rank, w.capabilities)
             for rank, w in pool]
    pairs += [(_minus_terms(a, b), ra, a.capabilities & b.capabilities)
              for (ra, a), (rb, b) in zip(pool, pool[1:])
              if ra == rb and a.time_dependent == b.time_dependent]
    for i, (terms, rank, caps) in enumerate(pairs):
        time = terms[0][1].time_dependent
        if time == dom.is_parabolic:
            kinds = ["L2", "Hdiv" if rank == "vector" and "div" in caps
                     else None]
            if rank == "scalar" and "grad" in caps:
                kinds += ["H1", "V" if "laplacian" in caps else None]
                if time and "dt" in caps:
                    kinds += ["H11"] + (["Wstar", "triple"]
                                        if "laplacian" in caps else [])
            table.update({f"{i} {k}": (terms, "value", k)
                          for k in kinds if k})
        if T is not None:
            for at in (0.0, T / 2, T):
                table[f"{i} L2 at {at}"] = (terms, "value", "L2", at)
                if rank == "scalar" and "grad" in caps:
                    table[f"{i} H1 at {at}"] = (terms, "value", "H1", at)
    return table


def _minus_terms(a, b):
    return [(1.0, a, "value"), (-1.0, b, "value")]


@pytest.mark.parametrize("eps", [0.0, 1e-300, 1e-8, 0.3, 1.0])
@pytest.mark.parametrize("T", [None, 1.0], ids=["elliptic", "space-time"])
def test_a_record_takes_each_norm_as_its_one_entry_call_bitwise(
        monkeypatch, eps, T):
    # one call over a table of norms of the atoms at every level, at slice
    # times and in every composite kind, equals the one-entry call of each
    # in hex: their pieces share one program, each in its own slots
    dom = BoxDomain((0.0, -0.5)[:1 if T else 2], (1.0, 1.5)[:1 if T else 2],
                    time_horizon=T)
    rule = QuadratureRule(space_order=2, time_order=2)
    pool = _atoms(dom, 1, eps) + (_atoms(dom.spatial(), 1, eps) if T else [])
    table = _table(pool, dom, T)
    assert len(table) > 80
    got = quadrature.record_norms_sq(dom, rule, table)
    assert list(got) == list(table)
    assert {k: v.hex() for k, v in got.items()} == {
        k: quadrature.terms_norm_sq(dom, rule, *spec).hex()
        for k, spec in table.items()}
    # a formless atom in every norm sends the whole table to the grid
    formless = {type(w): w for _, w in pool if w.separated() is None
                and w.time_dependent == dom.is_parabolic}
    grid = {k: ([*terms, (-1.0, formless[type(terms[0][1])], "value")],
                view, kind)
            for k, (terms, view, kind, *at) in table.items()
            if terms[0][1].time_dependent == dom.is_parabolic and not at}
    looked = []
    program = quadrature._program
    monkeypatch.setattr(quadrature, "_program",
                        lambda *a: looked.append(a) or program(*a))
    got = quadrature.record_norms_sq(dom, rule, grid)
    assert looked == [] and len(grid) > 20
    monkeypatch.undo()
    assert {k: v.hex() for k, v in got.items()} == {
        k: quadrature.terms_norm_sq(dom, rule, *spec).hex()
        for k, spec in grid.items()}


def _suite_cases():
    return {cs.kind: make_case(cs.kind, cs.domain(), cs.solution)
            for cs in default_suite_config(n_seeds=1).cases}


def _estimator_calls(case, approx, rule, free):
    """The estimator calls of elliptic and parabolic that take norms of a
    record of ``case`` at the level of ``approx``, by name, with the free
    pair ``free``."""
    from errbounds import elliptic, parabolic
    cf = elliptic.friedrichs_constant(case.dom.spatial()).value
    phi, flux = free
    ut, pt = approx.u_tilde, approx.p_tilde
    calls = {
        ("RD", "conforming_mixed"): {
            "rd_equality": lambda: elliptic.rd_equality(case, approx, rule)},
        ("RD", "very_conforming"): {
            "rd_very_conforming_equality":
                lambda: elliptic.rd_very_conforming_equality(case, ut, rule),
            "friedrichs_margin":
                lambda: elliptic.friedrichs_margin(ut, cf, case.dom, rule),
            "cftwo_check": lambda: elliptic.cftwo_check(ut, cf, case.dom, rule)},
        ("RD", "semi_conforming_primal"): {
            "rd_semiconforming_bounds": lambda: elliptic.rd_semiconforming_bounds(
                case, approx, flux, 2.0, rule)},
        ("RD", "semi_conforming_dual"): {
            "rd_semiconforming_bounds": lambda: elliptic.rd_semiconforming_bounds(
                case, approx, phi, 2.0, rule)},
        ("RD", "non_conforming"): {
            "rd_nonconforming_bounds": lambda: elliptic.rd_nonconforming_bounds(
                case, approx, phi, flux, 2.0, "iii", rule)},
        ("Poisson", "conforming_mixed"): {
            "poisson_two_sided":
                lambda: elliptic.poisson_two_sided(case, approx, cf, rule)},
        ("Poisson", "very_conforming"): {
            "poisson_very_conforming_equality":
                lambda: elliptic.poisson_very_conforming_equality(case, ut, rule)},
        ("Poisson", "semi_conforming_primal"): {
            "poisson_nonconforming": lambda: elliptic.poisson_nonconforming(
                case, ut, pt, phi, flux, cf, "mixed-i", rule)},
        ("Poisson", "semi_conforming_dual"): {
            "poisson_nonconforming": lambda: elliptic.poisson_nonconforming(
                case, ut, pt, phi, flux, cf, "mixed-ii", rule)},
        ("Poisson", "non_conforming"): {
            f"poisson_nonconforming {which}":
                (lambda w=which: elliptic.poisson_nonconforming(
                    case, ut, pt, phi, flux, cf, w, rule))
            for which in ("i", "ii")},
        ("TRD", "conforming_mixed"): {
            "trd_equality": lambda: parabolic.trd_equality(case, approx, rule)},
        ("TRD", "very_conforming"): {
            "trd_very_conforming_equality":
                lambda: parabolic.trd_very_conforming_equality(case, ut, rule)},
        ("Heat", "conforming_mixed"): {
            "heat_two_sided":
                lambda: parabolic.heat_two_sided(case, approx, cf, rule)},
        ("Heat", "very_conforming"): {
            "heat_very_conforming_equality":
                lambda: parabolic.heat_very_conforming_equality(case, ut, rule)},
    }
    return calls.get((case.kind, approx.level), {})


@pytest.mark.parametrize("strategy", ["exact", "coarse", "basis"])
def test_a_warm_record_builds_no_field_node(monkeypatch, strategy):
    # after a first record warms the case, a record of a fresh
    # approximation takes every norm without a combination or view node
    rule = QuadratureRule()
    built = []
    combine, view = fields.combination, fields._Field._view

    def counted_combination(*args):
        built.append("combination")
        return combine(*args)

    def counted_view(self, *args, **kw):
        built.append("view")
        return view(self, *args, **kw)

    seen = set()
    for case in _suite_cases().values():
        free = free_fields(case, strategy)
        for level in manufactured.LEVELS:
            warm = _estimator_calls(case, perturb(case, level, 0.1, 0), rule,
                                    free)
            for call in warm.values():
                call()
            fresh = perturb(case, level, 0.1, 1)
            for name, call in _estimator_calls(case, fresh, rule, free).items():
                with monkeypatch.context() as m:
                    m.setattr(fields, "combination", counted_combination)
                    m.setattr(quadrature, "combination", counted_combination)
                    m.setattr(fields._Field, "_view", counted_view)
                    call()
                assert built == [], (name, case.kind, level)
                seen.add(name.split()[0])
    assert len(seen) == 13


def test_a_warm_estimator_call_looks_up_one_program_and_builds_none(
        monkeypatch):
    # once a record of an approximation's directions has run, a record of
    # another scale of them binds its atoms to the plan the first one kept:
    # no norm is checked again, no program or plan looked up, and no leaf
    # terms of the fresh approximation built
    from errbounds import parabolic

    rule, seen = QuadratureRule(), set()
    for case in _suite_cases().values():
        free = free_fields(case, "coarse")
        for level in manufactured.LEVELS:
            approxs = [perturb(case, level, eps, 0) for eps in (0.1, 0.3)]
            calls = [_estimator_calls(case, a, rule, free) for a in approxs]
            if case.kind in ("TRD", "Heat") and level == "conforming_mixed":
                check = getattr(parabolic, f"{case.kind.lower()}_isometry_check")
                for c in calls:
                    c["isometry"] = lambda check=check: check(case, rule)
            for call in calls[0].values():
                call()
            fresh = {id(approxs[1].u_tilde), id(approxs[1].p_tilde)}
            for name, call in calls[1].items():
                counts = {"_resolve": 0, "_program": 0, "_plan": 0}
                leaves = []
                with monkeypatch.context() as m:
                    for fn in counts:
                        m.setattr(quadrature, fn, lambda *a, fn=fn,
                                  real=getattr(quadrature, fn): (
                                      counts.__setitem__(fn, counts[fn] + 1)
                                      or real(*a)))
                    real = fields._Field.leaf_terms
                    m.setattr(fields._Field, "leaf_terms", lambda self, n: (
                        leaves.append(id(self)) or real(self, n)))
                    call()
                assert counts == dict.fromkeys(counts, 0), (
                    name, case.kind, level)
                assert fresh.isdisjoint(leaves), (name, case.kind, level)
                seen.add(name.split()[0])
    assert len(seen) == 14


@pytest.mark.parametrize("path", ["floats", "numpy"])
def test_sliced_norms_round_as_the_sliced_forms(monkeypatch, path):
    # at a slice time a space-time leaf term's coefficient is taken times
    # its multiplier and then times its time factor there, as the sliced
    # form of the expression rounds it: (eps a) t, not eps (a t); the
    # term coefficients and the slice time may be Python floats or numpy
    # scalars, and round alike
    scalar = float if path == "floats" else np.float64
    monkeypatch.setattr(quadrature, "_PLANS", {})
    monkeypatch.setattr(quadrature, "_RECORDS", {})
    rule = QuadratureRule(space_order=3, time_order=2)
    for kind, dom, solution in [
            ("TRD", BoxDomain((0.0,), (1.0,), 1.0), "exp(-t)*sin(pi*x)"),
            ("Heat", BoxDomain((0.0, -0.5), (1.0, 1.5), 0.5),
             "(1 + t)*sin(pi*x)*sin(pi*(y + 0.5)/2)")]:
        case = make_case(kind, dom, solution)
        u, p, box = case.exact_u, case.exact_p, dom.spatial()
        for level in manufactured.LEVELS:
            for eps in (1e-8, 0.3, 0.7, 1.3):
                approx = perturb(case, level, eps, 2)
                ut, pt = approx.u_tilde, approx.p_tilde
                for at in (0.0, dom.time_horizon / 3, dom.time_horizon):
                    pairs = [(u, ut, "value"), (p, pt, "value")]
                    if ut.has_grad:
                        pairs.append((u, ut, "grad"))
                    for a, b, name in pairs:
                        got = quadrature.terms_norm_sq(
                            dom, rule,
                            [(scalar(1.0), a, name), (scalar(-1.0), b, name)],
                            at=scalar(at))
                        node = _VIEWED[name](a.at_time(at) - b.at_time(at))
                        form = node.separated()
                        assert got.hex() == quadrature.separated_inner(
                            form, form, box, rule).hex(), (kind, level, eps)


def test_a_warm_suite_takes_its_norms_from_leaf_terms(monkeypatch):
    # once its cases and directions exist, a default-suite run takes every
    # norm, at a slice time too, from the leaf terms of its atoms: no norm
    # combines forms, and no form is built, not even of a fresh
    # approximation
    config = default_suite_config()
    run(config)
    calls = []
    combination, build = fields.SeparatedSum.combination, fields._Field._build_form
    monkeypatch.setattr(fields.SeparatedSum, "combination", staticmethod(
        lambda *args: calls.append("combination") or combination(*args)))
    monkeypatch.setattr(fields._Field, "_build_form", lambda self, name: (
        calls.append(("form", name)) or build(self, name)))
    report = run(config)
    assert all(r["status"] == "ok" for r in report.records)
    assert calls == []


@pytest.mark.parametrize("config", [_SUITE, _VOLUME, _MAJORANT],
                         ids=["suite", "volume", "majorant"])
def test_a_warm_workload_pass_adds_no_norm_program(monkeypatch, config):
    # the record plans, flux steps' among them, are keyed by the atoms'
    # record keys, never by a fresh approximation itself, so a second pass
    # meets every one and keeps it
    monkeypatch.setattr(quadrature, "_RECORDS", {})

    def workload():
        run(config)
        if config is _MAJORANT:
            cs = config.cases[0]
            case = make_case(cs.kind, cs.domain(), cs.solution)
            improve_bound(case, perturb(case, "non_conforming", 0.3, 9),
                          free_fields(case, "coarse")[0], QuadratureRule(),
                          budget=8)

    workload()
    records = dict(quadrature._RECORDS)
    # a flux step's plan is kept with its basis
    assert {bool(held) for held, *_ in records} == (
        {False, True} if config is _MAJORANT else {False})
    workload()
    assert quadrature._RECORDS.keys() == records.keys()
    assert all(quadrature._RECORDS[k] is v for k, v in records.items())


def test_a_suite_pass_keeps_one_record_plan_per_program(monkeypatch):
    # a sum atom is keyed by which operands it takes flat, not by which
    # coefficients are +-1: the scales of one seed's directions, 1.0 among
    # them, share the plan of their leaf forms, so no two plans of a
    # default-suite pass compile one program (its cases and directions
    # are built first)
    run(default_suite_config())
    monkeypatch.setattr(quadrature, "_RECORDS", {})
    programs, program = [], quadrature._program
    monkeypatch.setattr(quadrature, "_program", lambda pieces: programs.append(
        tuple((id(a), at, forms, sizes) for a, at, forms, sizes in pieces))
        or program(pieces))
    report = run(default_suite_config())
    assert all(r["status"] == "ok" for r in report.records)
    assert len(quadrature._RECORDS) == len(programs) == len(set(programs))
    assert len(programs) > 20


def _literal(terms, atoms):
    """Declared terms with each role replaced by its atom in ``atoms``."""
    if type(terms[0][0]) is tuple:
        return tuple(_literal(g, atoms) for g in terms)
    return [(s, atoms[r], n) for s, r, n in terms]


def _recorded(monkeypatch):
    """The calls of record_norms_sq that elliptic and parabolic make."""
    from errbounds import elliptic, parabolic
    calls = []

    def record(dom, rule, table, atoms):
        got = quadrature.record_norms_sq(dom, rule, table, atoms)
        calls.append((dom, rule, table, dict(atoms), got))
        return got

    for module in (elliptic, parabolic):
        monkeypatch.setattr(module, "record_norms_sq", record)
    return calls


@pytest.mark.parametrize("strategy", ["exact", "basis"])
def test_every_estimator_norm_is_its_literal_one_entry_call(monkeypatch,
                                                             strategy):
    # each norm of each estimator, bound from its declared table, equals in
    # hex the one-entry call of its terms with the fields written in, at
    # every level, scale and a second box of another horizon, a plan met
    # again at the second scale after a first
    from errbounds import parabolic
    rule, calls, seen = QuadratureRule(3, 2), _recorded(monkeypatch), set()
    for case in _suite_cases().values():
        cases = [case]
        if case.dom.is_parabolic:
            cases.append(dataclasses.replace(case, dom=dataclasses.replace(
                case.dom, time_horizon=case.dom.time_horizon / 2)))
        for c in cases:
            free = free_fields(c, strategy)
            for level in manufactured.LEVELS:
                for eps in (0.0, 1e-300, 1e-8, 0.3, 1.0, 0.3):
                    todo = _estimator_calls(c, perturb(c, level, eps, 0), rule,
                                            free)
                    if c.dom.is_parabolic and level == "conforming_mixed":
                        check = getattr(parabolic,
                                        f"{c.kind.lower()}_isometry_check")
                        todo[check.__name__] = lambda: check(c, rule)
                    for name, call in todo.items():
                        call()
                        seen.add(name.split()[0])
    for dom, rule, table, atoms, got in calls:
        for name, terms, view, kind, at in table:
            at = dom.time_horizon if at == "T" else at
            # the literal call compiles a plan of its own
            with mock.patch.object(quadrature, "_RECORDS", {}):
                assert got[name].hex() == quadrature.terms_norm_sq(
                    dom, rule, _literal(terms, atoms), view, kind, at).hex(), name
    assert len(seen) == 15


def test_a_sum_atom_binds_at_any_coefficient_bitwise():
    # a sum atom of a sum whose multipliers are not all +-1 takes its
    # operand's leaf terms at a coefficient +-1 and its operand's own form
    # otherwise; each binding, in either order, and two sum atoms of their
    # own coefficients give the bits of the form of the node they state
    dom, rule = BoxDomain((0.0, -0.5), (1.0, 1.5)), QuadratureRule(3, 2)
    case = make_case("RD", dom, "sin(pi*x)*sin(pi*(y + 0.5)/2)")
    u, (du, _) = case.exact_u, manufactured.directions(dom, 3).at(
        "very_conforming")
    inner = fields.combination([u, du], [0.9, 0.7])
    table = quadrature.norm_table({
        "a": [(1.0, "a", "value")],
        "ab": [(1.0, "a", "value"), (-1.0, "b", "value")]})
    for coefs in ((-1.0, 0.5, 1.0, 0.3), (0.5, -1.0, 0.3, 1.0, 0.7)):
        for k, c in enumerate(coefs):
            a = c * inner
            b = fields.combination([u, du], [1.0, 0.1 + k])
            got = quadrature.record_norms_sq(dom, rule, table,
                                             {"u": u, "a": a, "b": b})
            for name, node in (("a", a), ("ab", a - b)):
                form = node.separated()
                assert got[name].hex() == quadrature.separated_inner(
                    form, form, dom, rule).hex(), (name, c)


@pytest.mark.parametrize("bind", ["restricted", "rank", "domain"])
def test_a_refused_bind_raises_the_literal_error_and_keeps_no_plan(
        monkeypatch, bind):
    # a declared table bound to atoms of another class raises what the
    # literal call of the same terms raises, before and after a plan for
    # other atoms exists, and keeps no plan
    from errbounds import elliptic
    monkeypatch.setattr(quadrature, "_RECORDS", {})
    rule, table = QuadratureRule(3, 2), elliptic._RD_EQUALITY
    cases = _suite_cases()
    case = cases["RD"]
    approx = perturb(case, "conforming_mixed", 0.3, 0)
    atoms = elliptic._atoms(case, ut=approx.u_tilde, pt=approx.p_tilde)
    wrong = dict(atoms)
    if bind == "restricted":
        # the same sum, without the gradient
        wrong["ut"] = fields.combination(*approx.u_tilde._args, {"value"})
    elif bind == "rank":
        wrong["pt"] = approx.u_tilde
    else:
        wrong["ut"] = perturb(cases["TRD"], "conforming_mixed", 0.3,
                              0).u_tilde
    literal = {n: (_literal(t, wrong), v, k, a) for n, t, v, k, a in table}
    with pytest.raises(Exception) as alone:
        quadrature.record_norms_sq(case.dom, rule, literal)
    for warm in (False, True):
        if warm:
            quadrature.record_norms_sq(case.dom, rule, table, atoms)
        plans = dict(quadrature._RECORDS)
        with pytest.raises(type(alone.value)) as bound:
            quadrature.record_norms_sq(case.dom, rule, table, wrong)
        assert str(bound.value) == str(alone.value)
        assert quadrature._RECORDS == plans
