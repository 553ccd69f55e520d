import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from errbounds import (
    ApproxPair,
    BoxDomain,
    QuadratureRule,
    combine_vector_fields,
    flux_basis,
    free_fields,
    improve_bound,
    make_case,
    minimize_flux_majorant,
    norm_sq,
    optimal_gamma,
    perturb,
    zero_vector,
)
from test_quadrature import _counting

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
    phi, majorant, coeffs = minimize_flux_majorant(RD, RD.exact_u, basis, RULE)
    assert majorant == pytest.approx(0.0, abs=1e-18)
    X = np.linspace(0.1, 0.9, 7)[:, None]
    assert phi.value(X) == pytest.approx(RD.exact_p.value(X), abs=1e-8)


def test_minimize_flux_majorant_zero_basis():
    # a zero basis forces phi = 0: majorant = ||f - ut||^2 + ||grad ut||^2
    ut = RD.exact_u
    _, majorant, _ = minimize_flux_majorant(RD, ut, [zero_vector(DOM1)], RULE)
    expected = (norm_sq("L2", RD.f - ut, DOM1, RULE)
                + norm_sq("L2", ut.gradient_field(), DOM1, RULE))
    assert majorant == pytest.approx(expected, rel=1e-10)


def test_minimize_flux_majorant_beats_any_single_coefficient():
    ut = 0.9 * RD.exact_u
    basis = flux_basis(DOM1, 4)
    phi, majorant, coeffs = minimize_flux_majorant(RD, ut, basis, RULE)
    # local grid refinement around the solved coefficients cannot do better
    rng = np.random.default_rng(5)
    for _ in range(20):
        trial = coeffs + rng.uniform(-0.05, 0.05, size=len(coeffs))
        cand = combine_vector_fields(basis, trial)
        value = (norm_sq("L2", RD.f - ut + cand.div_field(), DOM1, RULE)
                 + norm_sq("L2", cand - ut.gradient_field(), DOM1, RULE))
        assert majorant <= value + 1e-12


def test_minimize_flux_majorant_nested_monotone():
    ut = perturb(RD_RICH, "conforming_mixed", 0.3, 2).u_tilde
    prev = math.inf
    for n in (1, 2, 3, 4):
        _, majorant, _ = minimize_flux_majorant(
            RD_RICH, ut, flux_basis(DOM1, n), RULE)
        assert majorant <= prev + 1e-12
        prev = majorant


def test_minimize_flux_majorant_validation():
    with pytest.raises(ValueError):
        minimize_flux_majorant(RD, RD.exact_u, [], RULE)
    with pytest.raises(ValueError):
        minimize_flux_majorant(RD, RD.exact_u, flux_basis(DOM1, 1), RULE,
                               weights=(-1.0, 1.0))
    heat = make_case("Heat", BoxDomain((0.0,), (1.0,), time_horizon=1.0),
                     "exp(-t)*sin(pi*x)")
    with pytest.raises(ValueError):
        minimize_flux_majorant(heat, heat.exact_u,
                               flux_basis(DOM1, 1), RULE)


def test_minimize_flux_majorant_poisson_weights():
    po = make_case("Poisson", DOM1, "sin(pi*x)")
    cf = 1 / math.pi
    weights = (1 + 4 * cf ** 2, 2.0)
    ut = 0.95 * po.exact_u
    _, majorant, _ = minimize_flux_majorant(po, ut, flux_basis(DOM1, 2),
                                            RULE, weights=weights)
    true = norm_sq("L2", (po.exact_u - ut).gradient_field(), DOM1, RULE)
    assert majorant >= true - 1e-12


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


def _counting_assembly(monkeypatch, counts):
    """Snapshots of ``counts`` taken when each solve combines its basis,
    i.e. right after the Gram assembly of every normal-equation system."""
    from errbounds import optimize

    snapshots = []

    def combine(basis, coeffs):
        snapshots.append(dict(counts))
        return combine_vector_fields(basis, coeffs)

    monkeypatch.setattr(optimize, "combine_vector_fields", combine)
    return snapshots


def _counting_basis(dom, n, counts):
    return [_counting(b, counts, f"b{i}.")
            for i, b in enumerate(flux_basis(dom, n))]


def _once_each(n):
    return {f"b{i}.{p}": 1 for i in range(n) for p in ("value", "div")}


def test_minimize_flux_majorant_evaluates_each_basis_field_once(monkeypatch):
    ut = perturb(RD_RICH, "conforming_mixed", 0.3, 2).u_tilde
    _, expected, expected_coeffs = minimize_flux_majorant(
        RD_RICH, ut, flux_basis(DOM1, 5), RULE)
    counts = Counter()
    snapshots = _counting_assembly(monkeypatch, counts)
    basis = _counting_basis(DOM1, 5, counts)
    _, majorant, coeffs = minimize_flux_majorant(RD_RICH, ut, basis, RULE)
    assert snapshots == [_once_each(5)]
    # counting copies of the basis leave the result unchanged
    assert majorant == expected and np.array_equal(coeffs, expected_coeffs)


def test_improve_bound_evaluates_each_basis_field_once(monkeypatch):
    import errbounds.manufactured as manufactured

    counts = Counter()
    snapshots = _counting_assembly(monkeypatch, counts)
    monkeypatch.setattr(manufactured, "flux_basis",
                        lambda dom, n: _counting_basis(dom, n, counts))
    ap = perturb(RD_RICH, "non_conforming", 0.3, 4)
    phi, _ = free_fields(RD_RICH, "coarse")
    reports = improve_bound(RD_RICH, ap, phi, RULE, budget=4, start_size=2)
    # one Gram assembly for all four steps, before the first solve
    assert len(snapshots) == 4 and snapshots[0] == _once_each(5)
    # a longer run repeats the steps of a shorter one to the last bit
    shorter = improve_bound(RD_RICH, ap, phi, RULE, budget=2, start_size=2)
    assert [r.to_record() for r in shorter] == [
        r.to_record() for r in reports[:2]]


def test_combine_vector_fields_validation():
    basis = flux_basis(DOM1, 2)
    with pytest.raises(ValueError):
        combine_vector_fields(basis, [1.0])
    with pytest.raises(ValueError):
        combine_vector_fields([], [])
