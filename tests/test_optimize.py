import contextlib
import json
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from errbounds import (
    ApproxPair,
    BoxDomain,
    QuadratureRule,
    combine_vector_fields,
    flux_basis,
    free_fields,
    improve_bound,
    l2_gram,
    make_case,
    minimize_flux_majorant,
    norm_sq,
    optimal_gamma,
    parse_config,
    perturb,
    rd_nonconforming_bounds,
    run,
    vector_field,
    zero_vector,
)
from errbounds.fields import ScalarField, VectorField
from errbounds.manufactured import _gradient, _random_trig, _rotgrad
from errbounds.quadrature import space_nodes, spacetime_nodes

RULE = QuadratureRule()
DOM1 = BoxDomain((0.0,), (1.0,))
RD = make_case("RD", DOM1, "sin(pi*x)")
RD_RICH = make_case("RD", DOM1, "sin(pi*x) + sin(3*pi*x)/3")


def young_objective(gamma, A, B):
    return (1 + 1 / gamma) * A + (1 + gamma) * B


def test_optimal_gamma_closed_form():
    gamma, bound = optimal_gamma(4.0, 1.0)
    assert gamma == pytest.approx(2.0)
    assert bound == pytest.approx(9.0)


def test_optimal_gamma_degenerate():
    gamma, bound = optimal_gamma(4.0, 0.0)
    assert math.isinf(gamma) and bound == 4.0
    gamma, bound = optimal_gamma(0.0, 5.0)
    assert gamma == 0.0 and bound == 5.0
    with pytest.raises(ValueError):
        optimal_gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        optimal_gamma(1.0, -1.0)


def test_optimal_gamma_rejects_nan_and_keeps_infinite_limits():
    for args, name in (((math.nan, 1.0), "A"), ((1.0, math.nan), "B"),
                       ((math.nan, 0.0), "A"), ((0.0, math.nan), "B")):
        with pytest.raises(ValueError, match=f"{name} = nan"):
            optimal_gamma(*args)
    inf = math.inf
    assert optimal_gamma(inf, 1.0) == (inf, inf)
    assert optimal_gamma(1.0, inf) == (0.0, inf)
    assert optimal_gamma(inf, 0.0) == (inf, inf)
    assert optimal_gamma(0.0, inf) == (0.0, inf)


def test_optimal_gamma_matches_grid_search():
    rng = np.random.default_rng(123)
    for _ in range(50):
        A, B = rng.uniform(1e-3, 10.0, size=2)
        _, bound = optimal_gamma(A, B)
        # coarse log grid, then local refinement around its argmin
        grid = np.logspace(-4, 4, 1000)
        vals = young_objective(grid, A, B)
        k = int(np.argmin(vals))
        fine = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, 999)], 4001)
        best = float(np.min(young_objective(fine, A, B)))
        assert bound == pytest.approx(best, rel=1e-6)


@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-4, max_value=1e4))
@settings(max_examples=200, deadline=None)
def test_optimal_gamma_is_global_minimum(A, B, gamma):
    _, bound = optimal_gamma(A, B)
    assert bound <= young_objective(gamma, A, B) * (1 + 1e-12)


def test_minimize_flux_majorant_exact_flux_in_span():
    # with u_tilde = u and the exact flux in the span, the majorant is zero
    basis = flux_basis(DOM1, 3)
    phi, report, coeffs = minimize_flux_majorant(RD, RD.exact_u, basis, RULE)
    assert report.upper_bound == pytest.approx(0.0, abs=1e-18)
    X = np.linspace(0.1, 0.9, 7)[:, None]
    assert phi.value(X) == pytest.approx(RD.exact_p.value(X), abs=1e-8)


def test_minimize_flux_majorant_zero_basis():
    # a zero basis forces phi = 0: majorant = ||f - ut||^2 + ||grad ut||^2
    ut = RD.exact_u
    _, report, _ = minimize_flux_majorant(RD, ut, [zero_vector(DOM1)], RULE)
    expected = (norm_sq("L2", RD.f - ut, DOM1, RULE)
                + norm_sq("L2", ut.gradient_field(), DOM1, RULE))
    assert report.upper_bound == pytest.approx(expected, rel=1e-10)


def test_minimize_flux_majorant_beats_any_single_coefficient():
    ut = 0.9 * RD.exact_u
    basis = flux_basis(DOM1, 4)
    phi, report, coeffs = minimize_flux_majorant(RD, ut, basis, RULE)
    # local grid refinement around the solved coefficients cannot do better
    rng = np.random.default_rng(5)
    for _ in range(20):
        trial = coeffs + rng.uniform(-0.05, 0.05, size=len(coeffs))
        cand = combine_vector_fields(basis, trial)
        value = (norm_sq("L2", RD.f - ut + cand.div_field(), DOM1, RULE)
                 + norm_sq("L2", cand - ut.gradient_field(), DOM1, RULE))
        assert report.upper_bound <= value + 1e-12


def test_minimize_flux_majorant_nested_monotone():
    ut = perturb(RD_RICH, "conforming_mixed", 0.3, 2).u_tilde
    prev = math.inf
    for n in (1, 2, 3, 4):
        _, report, _ = minimize_flux_majorant(
            RD_RICH, ut, flux_basis(DOM1, n), RULE)
        assert report.upper_bound <= prev + 1e-12
        prev = report.upper_bound


def test_minimize_flux_majorant_validation():
    with pytest.raises(ValueError):
        minimize_flux_majorant(RD, RD.exact_u, [], RULE)
    heat = make_case("Heat", BoxDomain((0.0,), (1.0,), time_horizon=1.0),
                     "exp(-t)*sin(pi*x)")
    with pytest.raises(ValueError):
        minimize_flux_majorant(heat, heat.exact_u,
                               flux_basis(DOM1, 1), RULE)


def _minimized(report):
    """The functional minimize_flux_majorant minimizes, from its report."""
    return report.checks["residual_sq"] + report.checks["gap_sq"]


DOM2 = BoxDomain((0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("n", [1, 4, 16])
def test_poisson_majorant_is_a_bound_where_the_functional_is_not(n):
    # u = sin(pi x) sin(pi y), u_tilde = 0.9 u: the minimized functional is
    # ||grad e||^2 lam / (lam + 1), lam = 2 pi^2, below the error
    po = make_case("Poisson", DOM2, "sin(pi*x)*sin(pi*y)")
    _, report, _ = minimize_flux_majorant(po, 0.9 * po.exact_u,
                                          flux_basis(DOM2, n), RULE)
    lam = 2 * math.pi ** 2
    assert report.true_total == pytest.approx(0.01 * math.pi ** 2 / 2)
    assert _minimized(report) == pytest.approx(0.046969, abs=1e-6)
    assert _minimized(report) == pytest.approx(
        report.true_total * lam / (lam + 1), rel=1e-9)
    # the bound is sharp here: it may round below the error in the last bits
    assert report.upper_bound >= report.true_total * (1 - 1e-12)
    assert report.ordering_ok


@st.composite
def _majorant_problems(draw):
    """A kind, a shifted box with faces at exact decimals and sides in
    [0.1, 10], its lowest sine mode as solution, and a perturbation."""
    dim = draw(st.sampled_from([1, 2]))
    lower = [draw(st.integers(-50, 50)) for _ in range(dim)]  # tenths
    sides = [draw(st.integers(1, 100)) for _ in range(dim)]
    dom = BoxDomain(tuple(a / 10 for a in lower),
                    tuple((a + b) / 10 for a, b in zip(lower, sides)))
    solution = "*".join(f"sin(pi*({v} - ({a})/10)*10/{b})"
                        for v, a, b in zip("xy", lower, sides))
    case = make_case(draw(st.sampled_from(["RD", "Poisson"])), dom, solution)
    approx = perturb(case, "conforming_mixed",
                     draw(st.sampled_from([0.01, 0.1, 1.0])),
                     draw(st.integers(0, 2 ** 16)))
    return case, approx.u_tilde, draw(st.integers(1, 9))


@given(_majorant_problems())
@settings(max_examples=80, deadline=None)
def test_minimize_flux_majorant_bounds_the_error(problem):
    case, ut, n = problem
    _, report, _ = minimize_flux_majorant(
        case, ut, flux_basis(case.dom, n), RULE)
    assert report.ordering_ok, report.to_record()


def test_young_parameter_clamp_keeps_records_json():
    from errbounds.optimize import _young

    assert _young(4.0, 1.0) == (2.0, 9.0)
    assert _young(4.0, 0.0) == (1.0, 4.0)
    assert _young(0.0, 5.0) == (1.0, 5.0)
    # a zero basis and u_tilde = 0 make phi = grad u_tilde = 0, so the
    # gap term vanishes and the optimal beta is infinite
    po = make_case("Poisson", DOM1, "sin(pi*x)")
    _, report, _ = minimize_flux_majorant(po, 0.0 * po.exact_u,
                                          [zero_vector(DOM1)], RULE)
    assert report.checks["gap_sq"] == 0.0 and report.gamma == 1.0
    assert report.upper_bound == pytest.approx(
        norm_sq("L2", po.f, DOM1, RULE) / math.pi ** 2, rel=1e-12)
    assert report.ordering_ok
    json.dumps(report.to_record(), allow_nan=False)


def test_improve_bound_monotone_and_guaranteed():
    ap = perturb(RD_RICH, "non_conforming", 0.3, 4)
    phi, _ = free_fields(RD_RICH, "coarse")
    reports = improve_bound(RD_RICH, ap, phi, RULE, budget=4)
    assert len(reports) == 4
    uppers = [r.upper_bound for r in reports]
    for a, b in zip(uppers, uppers[1:]):
        assert b <= a + 1e-10
    for r in reports:
        assert r.upper_bound >= r.true_total - 1e-10
    effs = [r.efficiency_upper for r in reports]
    for a, b in zip(effs, effs[1:]):
        assert b <= a + 1e-10


def test_improve_bound_budget_one():
    ap = perturb(RD, "non_conforming", 0.2, 1)
    phi, _ = free_fields(RD, "exact")
    reports = improve_bound(RD, ap, phi, RULE, budget=1)
    assert len(reports) == 1
    assert reports[0].ordering_ok
    with pytest.raises(ValueError):
        improve_bound(RD, ap, phi, RULE, budget=0)


def test_improve_bound_exact_approximation_stays_zero():
    ap = ApproxPair(RD.exact_u.restricted(), RD.exact_p.restricted(),
                    "non_conforming")
    phi, _ = free_fields(RD, "exact")
    reports = improve_bound(RD, ap, phi, RULE, budget=2)
    for r in reports:
        assert r.true_total == pytest.approx(0.0, abs=1e-18)
        assert r.upper_bound <= 1e-12


@contextlib.contextmanager
def _no_field_evaluated():
    """Inside, evaluating any field at points, the grid's nodes included,
    raises: the separated path integrates forms, never values."""
    def refuse(*args):
        raise AssertionError("a field was evaluated")

    with mock.patch.object(ScalarField, "value", refuse), \
            mock.patch.object(VectorField, "value", refuse):
        yield


def test_minimize_flux_majorant_evaluates_no_field_on_the_grid():
    poisson = make_case("Poisson", DOM2, "sin(pi*x)*sin(2*pi*y)")
    for case in (RD_RICH, poisson):
        ut = perturb(case, "conforming_mixed", 0.3, 2).u_tilde
        with _no_field_evaluated():
            flux, report, _ = minimize_flux_majorant(
                case, ut, flux_basis(case.dom, 5), RULE)
        assert report.ordering_ok
        # its checks are the norms of the flux it returns, bit for bit
        d = case.f - ut if case.kind == "RD" else case.f
        assert report.checks == {
            "residual_sq": norm_sq("L2", d + flux.div_field(), case.dom, RULE),
            "gap_sq": norm_sq("L2", flux - ut.gradient_field(), case.dom,
                              RULE)}


def test_improve_bound_evaluates_no_field_on_the_grid():
    ap = perturb(RD_RICH, "non_conforming", 0.3, 4)
    phi, _ = free_fields(RD_RICH, "coarse")
    with _no_field_evaluated():
        reports = improve_bound(RD_RICH, ap, phi, RULE, budget=4, start_size=2)
    # a longer run repeats the steps of a shorter one to the last bit
    shorter = improve_bound(RD_RICH, ap, phi, RULE, budget=2, start_size=2)
    assert [r.to_record() for r in shorter] == [
        r.to_record() for r in reports[:2]]


def test_flux_step_samples_fields_without_forms_once(monkeypatch):
    # a solution that does not separate leaves f and u_tilde without forms:
    # the flux step evaluates d and the target once each, whatever its
    # number of steps, samples the basis from its forms, and takes the
    # norms of every step from those samples
    from errbounds.optimize import _flux_step

    case = make_case("RD", DOM2, "sin(pi*x)*sin(pi*y)*exp(x*y)")
    ut = perturb(case, "conforming_mixed", 0.1, 3).u_tilde
    d, t = case.f - ut, ut.gradient_field()
    assert d.separated() is None and t.separated() is None
    basis = flux_basis(DOM2, 6)
    evaluated = Counter()
    for cls in (ScalarField, VectorField):
        def counting(self, *args, real=cls.value, name=cls.__name__):
            evaluated[name] += 1
            return real(self, *args)

        monkeypatch.setattr(cls, "value", counting)
    step = _flux_step(basis, [(1.0, case.f, "value"), (-1.0, ut, "value")],
                      ([(1.0, ut, "grad")],), DOM2, RULE)
    results = [step(n, 1.0, 0.0) for n in (2, 4, 6)]
    assert evaluated == {"ScalarField": 1, "VectorField": 1}
    monkeypatch.undo()
    for n, (coeffs, residual_sq, gap_sq) in zip((2, 4, 6), results):
        psi = combine_vector_fields(basis[:n], coeffs)
        for value, w in ((residual_sq, d + psi.div_field()), (gap_sq, psi - t)):
            assert value == pytest.approx(norm_sq("L2", w, DOM2, RULE),
                                          rel=1e-12)
    # and the minimiser reports a checked bound from them
    _, report, _ = minimize_flux_majorant(case, ut, basis, RULE)
    assert report.ordering_ok


def _hexed(record):
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in record.items()}


# a shifted, anisotropic box, its faces at exact decimals
SHIFTED = BoxDomain((-0.3, 0.45), (0.9, 1.2))
RD_SHIFTED = make_case("RD", SHIFTED, "sin(pi*(x + 3/10)*5/6)"
                                      "*sin(2*pi*(y - 9/20)*4/3)")


@pytest.mark.parametrize("case", [RD_RICH, RD_SHIFTED],
                         ids=["rich-1d", "shifted-2d"])
def test_improve_bound_reports_equal_rd_nonconforming_bounds(monkeypatch,
                                                             case):
    from errbounds import optimize

    solved = []
    real = optimize._solve_normal_equations

    def solve(G, rhs):
        solved.append(real(G, rhs))
        return solved[-1]

    monkeypatch.setattr(optimize, "_solve_normal_equations", solve)
    ap = perturb(case, "non_conforming", 0.3, 4)
    phi, _ = free_fields(case, "coarse")
    reports = improve_bound(case, ap, phi, RULE, budget=4, start_size=2)
    basis = flux_basis(case.dom.spatial(), 5)
    assert len(solved) == len(reports) == 4
    # each step's report is the quadrature report of the step's flux and
    # gamma, to the last bit
    for rep, coeffs in zip(reports, solved):
        flux = combine_vector_fields(basis[:len(coeffs)], coeffs)
        ref = rd_nonconforming_bounds(case, ap, phi, flux, rep.gamma, "iii",
                                      RULE)
        assert _hexed(rep.to_record()) == _hexed(ref.to_record())


@pytest.mark.parametrize("budget", [1, 4, 8])
def test_improve_bound_takes_three_norms_in_one_record_call(monkeypatch,
                                                            budget):
    from errbounds import elliptic, optimize

    calls = []
    # the estimators of elliptic, and improve_bound, take the norms of a
    # record in one call
    for module in (optimize, elliptic):
        def counted(dom, rule, table, real=module.record_norms_sq,
                    name=module.__name__):
            calls.append((name, {k: v[1:] for k, v in table.items()}))
            return real(dom, rule, table)

        monkeypatch.setattr(module, "record_norms_sq", counted)
    built = []
    monkeypatch.setattr(optimize, "combine_vector_fields",
                        lambda *args: built.append(args))
    ap = perturb(RD_RICH, "non_conforming", 0.3, 4)
    phi, _ = free_fields(RD_RICH, "coarse")
    improve_bound(RD_RICH, ap, phi, RULE, budget=budget)
    # ||phi - u_tilde||^2 and the two true errors in L2, whatever the budget
    assert calls == [("errbounds.optimize",
                      {"u_dist_sq": (), "err_u": (), "err_p": ()})]
    # and no flux is built: the reports take the steps' norms
    assert built == []


@pytest.mark.parametrize("T", [None, 1.0], ids=["elliptic", "parabolic"])
def test_combination_is_the_fold_of_its_two_term_cases_bitwise(T):
    # one step, with the evaluators and forms of the fold of + over scaled
    # fields that it replaced, bit for bit: values on the grid and on
    # columns, and the coefficients and factors of every form
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0), time_horizon=T)
    rng = np.random.default_rng(1)
    sums = [_random_trig(dom, rng, nonconforming=True) for _ in range(3)]
    fields = ([_gradient(s, dom) for s in sums]
              + [_rotgrad(s, dom) for s in sums]
              + [vector_field(["exp(-t)*sin(pi*x)*sin(pi*y)", "t*x*(1-x)*y"]
                              if T else ["sin(pi*x)*sin(pi*y)", "x*(1-x)*y"],
                              dom)])
    if T is None:
        fields += flux_basis(dom, 9)
    coeffs = rng.standard_normal(len(fields))
    one = combine_vector_fields(fields, coeffs)
    fold = float(coeffs[0]) * fields[0]
    for c, f in zip(coeffs[1:], fields[1:]):
        fold = fold + float(c) * f
    names = sorted(one.capabilities)
    assert names == sorted(fold.capabilities) == sorted(
        n for n in one.capabilities if one.form(n) is not None) == sorted(
        n for n in fold.capabilities if fold.form(n) is not None)
    assert len(names) == (3 if T else 2)
    args = (spacetime_nodes(dom, RULE)[:2] if T else space_nodes(dom, RULE)[:1])
    for on in (args, tuple(a.copy() for a in args)):
        for name in names:
            assert np.array_equal(getattr(one, name)(*on),
                                  getattr(fold, name)(*on)), name
    for name in names:
        a, b = one.form(name), fold.form(name)
        for sa, sb in zip(*((s if isinstance(s, tuple) else (s,))
                            for s in (a, b))):
            assert list(map(float.hex, sa.coefs)) == list(
                map(float.hex, sb.coefs)), name
            assert sa.factors == sb.factors, name


def test_combine_vector_fields_validation():
    basis = flux_basis(DOM1, 2)
    with pytest.raises(ValueError):
        combine_vector_fields(basis, [1.0])
    with pytest.raises(ValueError):
        combine_vector_fields([], [])
    with pytest.raises(ValueError):
        combine_vector_fields([basis[0], flux_basis(DOM2, 1)[0]], [1.0, 1.0])
    with pytest.raises(TypeError):
        combine_vector_fields([basis[0], RD.exact_u], [1.0, 1.0])


# --------------------------------------------------------------------------
# the flux basis shared by a run's records
# --------------------------------------------------------------------------


def _majorant_config(sizes=(4, 16, 36)):
    """RD and Poisson on one box, each at basis sizes ``sizes``."""
    box = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
    return parse_config(json.dumps({
        "cases": [
            {"kind": "RD", "solution": "sin(pi*x)*sin(pi*y)", "label": "rd",
             **box},
            {"kind": "Poisson", "solution": "sin(pi*x)*sin(2*pi*y)",
             "label": "poisson", **box}],
        "approximations": [
            {"level": "conforming_mixed", "epsilon": 0.1, "seed": 3}],
        "estimators": [{"name": "optimize_majorant", "basis_size": n}
                       for n in sizes],
    }))


def test_run_evaluates_no_field_on_the_grid():
    config = _majorant_config()
    expected = [r["majorant"] for r in run(config).records]
    # bases of different sizes on one box are other fields with one set of
    # factors, so they meet the same plans
    for a, b in zip(flux_basis(DOM2, 4), flux_basis(DOM2, 36)):
        assert a is not b
        assert [s.factors for s in a.separated()] == \
            [s.factors for s in b.separated()]
    with _no_field_evaluated():
        report = run(config)
    assert [r["majorant"] for r in report.records] == expected
    assert all(r["passed"] for r in report.records)


def _clear_flux_memos():
    from errbounds import manufactured, optimize

    manufactured._flux_fields.cache_clear()
    optimize._basis_grams.cache_clear()


def test_majorant_records_do_not_depend_on_the_order_of_basis_sizes():
    # each size builds its own basis and Grams, whose terms meet the plans
    # that the sizes before it left
    runs = []
    for sizes in ((4, 16, 36), (36, 4, 16), (16,)):
        _clear_flux_memos()
        runs.append({(r["case"], r["basis_size"]): _hexed(
            {k: v for k, v in r.items() if k != "wall_time_s"})
            for r in run(_majorant_config(sizes)).records})
    assert len(runs[0]) == 6 and runs[1] == runs[0]
    assert runs[2] == {k: v for k, v in runs[0].items() if k[1] == 16}


def _assert_same_fields(kept, fresh):
    """The fields of two flux bases have the same forms (one set of
    factors) and, bit for bit, the same values and divergences."""
    X = space_nodes(DOM2, RULE)[0]
    assert len(kept) == len(fresh)
    for f, g in zip(kept, fresh):
        assert [(s.coefs, s.factors) for s in f.separated()] == \
            [(s.coefs, s.factors) for s in g.separated()]
        assert np.array_equal(f.value(X), g.value(X))
        assert np.array_equal(f.div(X), g.div(X))


def test_flux_bases_stay_whole_when_a_record_raises(monkeypatch):
    # a record that raises while its basis is built keeps no part of it: a
    # later record of that size builds it whole, a later run equals one in
    # a process that met no basis, and so does a run after a record raised
    # once its basis was kept
    from errbounds import manufactured, runner

    config = _majorant_config()
    _clear_flux_memos()
    gradient, built = manufactured._gradient, []

    def failing_once(s, dom):
        built.append(s)
        if len(built) == 4 + 7:  # the 7th field of the second record's 16
            raise RuntimeError("basis field failed")
        return gradient(s, dom)

    monkeypatch.setattr(manufactured, "_gradient", failing_once)
    report = run(config)
    assert [r["status"] for r in report.records] == ["ok", "error"] + ["ok"] * 4
    # the Poisson record of size 16 built the basis again, whole
    assert len(built) == 4 + 7 + 36 + 16
    monkeypatch.setattr(manufactured, "_gradient", gradient)
    real = runner.minimize_flux_majorant

    def escaping(*args, **kwargs):
        real(*args, **kwargs)
        raise KeyboardInterrupt

    monkeypatch.setattr(runner, "minimize_flux_majorant", escaping)
    with pytest.raises(KeyboardInterrupt):
        run(config)
    monkeypatch.setattr(runner, "minimize_flux_majorant", real)
    warm = run(config)
    kept = {n: manufactured._flux_fields(DOM2, n) for n in (4, 16, 36)}
    _clear_flux_memos()
    fresh = [r["majorant"] for r in run(config).records]
    assert [r["majorant"] for r in warm.records] == fresh
    assert [r["majorant"] for i, r in enumerate(report.records) if i != 1] \
        == fresh[:1] + fresh[2:]
    for n, fields in kept.items():
        fresh = manufactured._flux_fields(DOM2, n)
        assert len(fields) == n and fields is not fresh
        _assert_same_fields(fields, fresh)


# --------------------------------------------------------------------------
# the basis Grams kept per basis, box and rule, and the flux step's plans
# --------------------------------------------------------------------------


def _hex(G):
    return [float.hex(v) for v in np.ravel(G)]


def _basis_gram_calls(monkeypatch):
    """The sizes of the l2_gram calls of the flux step that pair a list
    with itself, the basis Gram assemblies, from now on."""
    from errbounds import optimize

    calls, real = [], optimize.l2_gram

    def counted(left, right, dom, rule):
        if right is left:
            calls.append(len(left))
        return real(left, right, dom, rule)

    monkeypatch.setattr(optimize, "l2_gram", counted)
    return calls


def test_warm_flux_majorant_assembles_no_basis_gram(monkeypatch):
    _clear_flux_memos()
    case = make_case("Poisson", DOM2, "sin(pi*x)*sin(2*pi*y)")
    ut = perturb(case, "conforming_mixed", 0.1, 3).u_tilde
    sizes = (16, 4, 9)
    cold = [minimize_flux_majorant(case, ut, flux_basis(DOM2, n), RULE)[1]
            for n in sizes]
    calls = _basis_gram_calls(monkeypatch)
    warm = [minimize_flux_majorant(case, ut, flux_basis(DOM2, n), RULE)[1]
            for n in sizes]
    assert calls == []
    assert [r.to_record() for r in warm] == [r.to_record() for r in cold]
    # a size met for the first time is assembled once, both of its Grams
    for _ in range(2):
        minimize_flux_majorant(case, ut, flux_basis(DOM2, 20), RULE)
    assert calls == [20, 20]
    # and so is the basis of improve_bound on the box, of its budget's size
    rd = make_case("RD", DOM2, "sin(pi*x)*sin(pi*y)")
    for _ in range(2):
        improve_bound(rd, perturb(rd, "non_conforming", 0.3, 4),
                      free_fields(rd, "coarse")[0], RULE, budget=8)
    assert calls == [20, 20, 8, 8]


@pytest.mark.parametrize("sizes", [(1, 6, 13), (13, 6, 1)],
                         ids=["ascending", "descending"])
def test_basis_gram_blocks_equal_fresh_grams_bitwise(sizes):
    # the Grams of each size, and their leading blocks, which the steps of
    # improve_bound take, equal fresh Grams of the leading fields
    from errbounds import optimize

    _clear_flux_memos()
    for n in sizes:
        basis = flux_basis(SHIFTED, n)
        divs, BB, DD = optimize._basis_grams(tuple(basis), SHIFTED, RULE)
        fresh = [b.div_field() for b in basis]
        assert [f.separated() for f in divs] == [f.separated() for f in fresh]
        for m in {1, (n + 1) // 2, n}:
            lead, lead_divs = basis[:m], fresh[:m]
            assert _hex(BB[:m, :m]) == _hex(l2_gram(lead, lead, SHIFTED, RULE))
            assert _hex(DD[:m, :m]) == _hex(l2_gram(lead_divs, lead_divs,
                                                    SHIFTED, RULE))


def test_basis_grams_recompute_for_new_fields_rules_and_boxes(monkeypatch):
    from errbounds import manufactured, optimize

    optimize._basis_grams.cache_clear()
    calls = _basis_gram_calls(monkeypatch)
    wide = BoxDomain((0.0, 0.0), (2.0, 1.0))
    coarse = QuadratureRule(space_order=3)
    kept = tuple(flux_basis(DOM2, 5))
    for _ in range(2):
        optimize._basis_grams(kept, DOM2, RULE)
    assert calls == [5, 5]
    manufactured._flux_fields.cache_clear()
    fresh = tuple(flux_basis(DOM2, 5))
    for basis, dom, rule in (
            (fresh, DOM2, RULE),  # new field objects
            (fresh, DOM2, coarse),  # another rule
            (tuple(2.0 * b for b in fresh), DOM2, coarse),  # other fields
            (tuple(flux_basis(wide, 5)), wide, coarse)):  # another box
        del calls[:]
        _, BB, _ = optimize._basis_grams(basis, dom, rule)
        assert calls == [5, 5]
        monkeypatch.undo()
        assert _hex(BB) == _hex(l2_gram(basis, basis, dom, rule))
        calls = _basis_gram_calls(monkeypatch)


def test_basis_grams_memo_stays_within_its_bound():
    from errbounds import manufactured, optimize

    bound = manufactured.FLUX_BASIS_MEMO
    optimize._basis_grams.cache_clear()
    for k in range(bound + 3):
        dom = BoxDomain((0.0,), (1.0 + k / 8,))
        optimize._basis_grams(tuple(flux_basis(dom, 1)), dom, RULE)
    info = optimize._basis_grams.cache_info()
    assert info.maxsize == bound and info.currsize == bound
    assert info.misses == bound + 3


def test_basis_gram_blocks_are_read_only():
    from errbounds import optimize

    _, BB, DD = optimize._basis_grams(tuple(flux_basis(DOM2, 4)), DOM2, RULE)
    for G in (BB, DD):
        with pytest.raises(ValueError, match="read-only"):
            G[0, 0] = 1.0


@st.composite
def _flux_steps(draw):
    """A shifted, anisotropic box of dimension 1 to 3, the d and targets
    that one caller of the flux step (minimize_flux_majorant on RD or
    Poisson, or improve_bound) hands it there, a basis size N of at least
    7, a step size n <= N, weights (wa, wb) and d and the targets as the
    signed atom terms the caller hands the step. From N = 7 on the basis
    holds every mode that a conforming perturbation draws, so the terms of
    its gradient, the target of RD and Poisson, merge with those of the
    basis, and the terms of RD's d with those of the divergences."""
    dim = draw(st.integers(1, 3))
    lower = [draw(st.integers(-50, 50)) for _ in range(dim)]  # tenths
    sides = [draw(st.integers(1, 100)) for _ in range(dim)]
    dom = BoxDomain(tuple(a / 10 for a in lower),
                    tuple((a + b) / 10 for a, b in zip(lower, sides)))
    solution = "*".join(f"sin(pi*({v} - ({a})/10)*10/{b})"
                        for v, a, b in zip("xyz", lower, sides))
    caller = draw(st.sampled_from(["RD", "Poisson", "improve_bound"]))
    case = make_case("Poisson" if caller == "Poisson" else "RD", dom,
                     solution)
    eps, seed = (draw(st.sampled_from([0.01, 0.1, 1.0])),
                 draw(st.integers(0, 2 ** 16)))
    if caller == "improve_bound":
        phi = free_fields(case, "coarse")[0]
        pt = perturb(case, "non_conforming", eps, seed).p_tilde
        d, terms = case.f - phi, [(1.0, case.f, "value"), (-1.0, phi, "value")]
        targets = (phi.gradient_field(), pt)
        ends = ([(1.0, phi, "grad")], [(1.0, pt, "value")])
    else:
        ut = perturb(case, "conforming_mixed", eps, seed).u_tilde
        d = case.f - ut if caller == "RD" else case.f
        terms = [(1.0, case.f, "value")] + (
            [(-1.0, ut, "value")] if caller == "RD" else [])
        targets, ends = (ut.gradient_field(),), ([(1.0, ut, "grad")],)
    N = draw(st.integers(7, 12))
    weights = st.floats(0.0, 10.0, allow_subnormal=False)
    return (caller, dom, d, targets, flux_basis(dom, N),
            draw(st.integers(1, N)), draw(weights.filter(lambda w: w > 0)),
            draw(weights), terms, ends)


@given(_flux_steps())
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_flux_step_norms_are_norm_sq_of_its_flux_bitwise(problem):
    from errbounds.optimize import _flux_step

    caller, dom, d, targets, basis, n, wa, wb, terms, ends = problem
    if caller != "improve_bound":
        assert set(targets[0].separated()[0].factors) & {
            fs for b in basis for fs in b.separated()[0].factors}
    if caller == "RD":
        assert set(d.separated().factors) & {
            fs for b in basis for fs in b.div_field().separated().factors}
    step = _flux_step(basis, terms, ends, dom, RULE)
    for size in (n, len(basis)):
        coeffs, residual_sq, *gaps = step(size, wa, wb)
        psi = combine_vector_fields(basis[:size], coeffs)
        assert residual_sq.hex() == norm_sq(
            "L2", d + psi.div_field(), dom, RULE).hex()
        assert [g.hex() for g in gaps] == [
            norm_sq("L2", psi - t, dom, RULE).hex() for t in targets]


@given(_flux_steps())
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_flux_step_blocks_equal_fresh_grams_bitwise(problem):
    # the blocks of the leading n fields and of all N, in either order,
    # whatever plans the other size left
    from errbounds import optimize

    _, dom, d, targets, basis, n, _, _, terms, ends = problem
    for size in (len(basis), n, len(basis)):
        divs = optimize._basis_grams(tuple(basis[:size]), dom, RULE)[0]
        RD, RT, _ = optimize._flux_terms(basis[:size], divs, terms, ends,
                                         dom, RULE)
        fresh = [b.div_field() for b in basis[:size]]
        assert _hex(RD) == _hex(l2_gram([d], fresh, dom, RULE)[0])
        assert _hex(RT) == _hex(l2_gram(list(targets), basis[:size], dom,
                                        RULE))


def test_warm_flux_step_integrates_nothing(monkeypatch):
    from errbounds import optimize, quadrature

    _clear_flux_memos()
    # the mode (7, 5) is not among the first 16 of the basis: d and the
    # target bring terms that the basis lacks
    case = make_case("RD", DOM2, "sin(pi*x)*sin(pi*y) + "
                                 "sin(7*pi*x)*sin(5*pi*y)/10")
    ut = perturb(case, "conforming_mixed", 0.1, 3).u_tilde
    cold = minimize_flux_majorant(case, ut, flux_basis(DOM2, 16), RULE)[1]
    minimize_flux_majorant(case, ut, flux_basis(DOM2, 9), RULE)
    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, call)

    counted(optimize, "l2_gram")
    counted(quadrature, "_separated_gram")
    counted(quadrature, "term_grams")
    for n in (16, 9):
        report = minimize_flux_majorant(case, ut, flux_basis(DOM2, n), RULE)[1]
        assert calls == {}
        if n == 16:
            assert report.checks == cold.checks


class _NoListArrays:
    """numpy, but making an array of a Python list fails."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def asarray(a, *args, **kwargs):
        assert not isinstance(a, list), "a list was made an array"
        return np.asarray(a, *args, **kwargs)

    @staticmethod
    def array(a, *args, **kwargs):
        assert not isinstance(a, list), "a list was made an array"
        return np.array(a, *args, **kwargs)


def test_a_warm_majorant_pass_builds_no_program(monkeypatch):
    # the flux steps of a warm pass of majorant records and improve_bound
    # take their blocks and norms from the programs a first pass kept, and
    # a block reads the program's arrays as they are
    from errbounds import optimize, quadrature

    config = _majorant_config()
    rd = make_case("RD", DOM2, "sin(pi*x)*sin(pi*y)")

    def workload():
        run(config)
        improve_bound(rd, perturb(rd, "non_conforming", 0.3, 9),
                      free_fields(rd, "coarse")[0], RULE, budget=8)

    workload()
    programs = dict(quadrature._PROGRAMS)
    # a program, kept or not, is built from the plans of its pieces
    built, blocks = [], []
    plan = quadrature._plan
    monkeypatch.setattr(quadrature, "_plan",
                        lambda *a: built.append(a) or plan(*a))
    block = quadrature._block

    def spied(*args):
        blocks.append(args)
        with mock.patch.object(quadrature, "np", _NoListArrays()):
            return block(*args)

    monkeypatch.setattr(quadrature, "_block", spied)
    monkeypatch.setattr(optimize, "_block", spied)
    workload()
    assert built == [] and len(blocks) == 2 * (6 + 1)
    assert quadrature._PROGRAMS == programs


# a field of each kind that does not fit the 2-D elliptic box of a step
_HEAT = make_case("Heat", BoxDomain((0.0, 0.0), (1.0, 1.0), 1.0),
                  "exp(-t)*sin(pi*x)*sin(pi*y)")


_RD2 = make_case("RD", DOM2, "sin(pi*x)*sin(pi*y)")


@pytest.mark.parametrize("role, field, error, match", [
    ("target", _RD2.f, TypeError, "rank mismatch"),
    ("target", RD.exact_p, ValueError, "dimension"),
    ("target", _HEAT.exact_p, ValueError, "time_horizon"),
    ("d", _RD2.exact_p, TypeError, "rank mismatch"),
    ("d", RD.f, ValueError, "dimension"),
    ("d", _HEAT.f, ValueError, "time_horizon")],
    ids=["target-rank", "target-dim", "target-time", "d-rank", "d-dim",
         "d-time"])
def test_flux_step_checks_d_and_targets_against_the_box(role, field, error,
                                                        match):
    from errbounds.optimize import _flux_step

    ut = perturb(_RD2, "conforming_mixed", 0.1, 3).u_tilde
    d = [(1.0, _RD2.f, "value"), (-1.0, ut, "value")]
    targets = [[(1.0, ut, "grad")]]
    if role == "d":
        d = [(1.0, field, "value")]
    else:
        targets.append([(1.0, field, "value")])
    with pytest.raises(error, match=match):
        _flux_step(flux_basis(DOM2, 4), d, targets, DOM2, RULE)


def _close_hex(values, pinned, rel=1e-13):
    """Whether each float of ``values`` is within ``rel`` of the float.hex
    at the same place of ``pinned``."""
    flat = [float.fromhex(h) for h in np.ravel(pinned)]
    return all(abs(v - p) <= rel * abs(p)
               for v, p in zip(np.ravel(values), flat, strict=True))


def test_improve_bound_and_majorant_match_pinned_values():
    # float.hex of results computed before norms of separated fields went
    # axis by axis (first column of pins), then before the flux step took
    # its Gram blocks and its flux norms from separated forms (second):
    # each moves them in their last bits, so the results stay within 1e-13
    # of both old pins and equal the new ones (third) exactly. The
    # minimized functional of a majorant is the norm of a residual that
    # nearly cancels; it holds to the old pins because the sin and cos
    # factors of f are the trig factors of the flux basis, so separated
    # norms combine their terms before they square them
    dom2_rd = make_case("RD", DOM2, "sin(pi*x)*sin(pi*y) + "
                                    "sin(3*pi*x)*sin(pi*y)/3")
    for case, kw, grid_pinned, sampled_pinned, pinned in (
            (RD_RICH, dict(budget=4, start_size=2),
             [("0x1.605ff050d97fcp+9", "0x1.eaecaed1ff76ap+1"),
              ("0x1.87c5bb6dfa18dp+4", "0x1.af47028c3a076p-3"),
              ("0x1.3d614968196cep+4", "0x1.43fd2977aa6dap-4"),
              ("0x1.3d2e27d26763bp+4", "0x1.40cf0a7aefb11p-4")],
             [("0x1.605ff050d97fcp+9", "0x1.eaecaed1ff769p+1"),
              ("0x1.87c5bb6dfa189p+4", "0x1.af47028c3a05bp-3"),
              ("0x1.3d614968196cep+4", "0x1.43fd2977aa6dbp-4"),
              ("0x1.3d2e27d26763bp+4", "0x1.40cf0a7aefb11p-4")],
             [("0x1.605ff050d97fdp+9", "0x1.eaecaed1ff76ap+1"),
              ("0x1.87c5bb6dfa1a6p+4", "0x1.af47028c3a0c1p-3"),
              ("0x1.3d614968196cfp+4", "0x1.43fd2977aa6eap-4"),
              ("0x1.3d2e27d26763cp+4", "0x1.40cf0a7aefb20p-4")]),
            (dom2_rd, dict(budget=3),
             [("0x1.b51f8b0637a7ep+8", "0x1.e41298e946813p+1"),
              ("0x1.b50831d296cd9p+8", "0x1.e4cabd164f698p+1"),
              ("0x1.b465278211aefp+8", "0x1.e87bed23becabp+1")],
             [("0x1.b51f8b0637a7ep+8", "0x1.e41298e946813p+1"),
              ("0x1.b50831d296cd9p+8", "0x1.e4cabd164f698p+1"),
              ("0x1.b465278211aefp+8", "0x1.e87bed23becabp+1")],
             [("0x1.b51f8b0637a7fp+8", "0x1.e41298e946811p+1"),
              ("0x1.b50831d296cdcp+8", "0x1.e4cabd164f697p+1"),
              ("0x1.b465278211af2p+8", "0x1.e87bed23becabp+1")])):
        ap = perturb(case, "non_conforming", 0.3, 4)
        phi, _ = free_fields(case, "coarse")
        reports = improve_bound(case, ap, phi, RULE, **kw)
        values = [(r.upper_bound, r.gamma) for r in reports]
        assert _close_hex(values, grid_pinned)
        assert _close_hex(values, sampled_pinned)
        assert [(u.hex(), g.hex()) for u, g in values] == pinned
    poisson = make_case("Poisson", DOM2, "sin(pi*x)*sin(2*pi*y)")
    for case, grid_pinned, sampled_pinned, pinned in (
            (dom2_rd, ["0x1.11aef80218753p+8", "0x1.71c5ed9f9957ap-2"],
             ["0x1.11aef80218753p+8", "0x1.71c5ed9f9957cp-2"],
             ["0x1.11aef80218753p+8", "0x1.71c5ed9f9957dp-2"]),
            (poisson, ["0x1.5e790acace89dp-2", "0x1.5da75171e46e1p-2"],
             ["0x1.5e790acace89fp-2", "0x1.5da75171e46e3p-2"],
             ["0x1.5e790acace8a0p-2", "0x1.5da75171e46e8p-2"])):
        ut = perturb(case, "conforming_mixed", 0.1, 3).u_tilde
        values = [_minimized(minimize_flux_majorant(
            case, ut, flux_basis(DOM2, n), RULE)[1]) for n in (4, 16)]
        assert _close_hex(values, grid_pinned)
        assert _close_hex(values, sampled_pinned)
        assert [v.hex() for v in values] == pinned


@pytest.mark.parametrize("kwargs, name", [
    (dict(gamma0=0.0), "gamma0"), (dict(gamma0=-1.0), "gamma0"),
    (dict(gamma0=math.nan), "gamma0"), (dict(gamma0=math.inf), "gamma0"),
    (dict(start_size=0), "start_size")])
def test_improve_bound_rejects_bad_input(kwargs, name):
    ap = perturb(RD, "non_conforming", 0.2, 1)
    phi, _ = free_fields(RD, "exact")
    with pytest.raises(ValueError, match=name):
        improve_bound(RD, ap, phi, RULE, **kwargs)
