import math

import pytest

from errbounds import (
    ApproxPair,
    BoxDomain,
    ConformityError,
    QuadratureRule,
    friedrichs_constant,
    heat_isometry_check,
    heat_two_sided,
    heat_very_conforming_equality,
    make_case,
    norm_sq,
    perturb,
    relative_residual,
    scalar_field,
    trace_norm_sq,
    trd_equality,
    trd_isometry_check,
    trd_very_conforming_equality,
)

RULE = QuadratureRule()
TDOM = BoxDomain((0.0,), (1.0,), time_horizon=1.0)
TRD = make_case("TRD", TDOM, "exp(-t)*sin(pi*x)")
HEAT = make_case("Heat", TDOM, "exp(-t)*sin(pi*x)")


def omega_identity_check(w, omega, dom, rule):
    """Relative residual of the expansion of ||(dt - lap + omega) w||^2 into
    norms plus time traces; omega = 1 and 0 give the two isometry norms."""
    if not w.vanishes_on_boundary:
        raise ConformityError("w must vanish on the mantle boundary")
    T = dom.time_horizon
    lhs = norm_sq("L2", w.dt_field() - w.laplacian_field() + omega * w, dom, rule)
    rhs = math.fsum([
        norm_sq("L2", w.dt_field(), dom, rule),
        omega ** 2 * norm_sq("L2", w, dom, rule),
        2.0 * omega * norm_sq("L2", w.gradient_field(), dom, rule),
        norm_sq("L2", w.laplacian_field(), dom, rule),
        trace_norm_sq(w, T, "gradient", dom, rule),
        -trace_norm_sq(w, 0.0, "gradient", dom, rule),
        omega * trace_norm_sq(w, T, "value", dom, rule),
        -omega * trace_norm_sq(w, 0.0, "value", dom, rule),
    ])
    return relative_residual(lhs, rhs)


def test_trd_isometry_analytic_value():
    rep = trd_isometry_check(TRD, RULE)
    assert rep.rel_residual <= 1e-10
    # u = e^{-t} sin(pi x): f = pi^2 u, so ||f||^2 + ||u0||_H1^2 is explicit
    decay = (1 - math.exp(-2.0)) / 2.0
    rhs = math.pi ** 4 * decay / 2 + (1 + math.pi ** 2) / 2
    assert rep.rhs_total == pytest.approx(rhs, rel=1e-12)


def test_heat_isometry_analytic_value():
    rep = heat_isometry_check(HEAT, RULE)
    assert rep.rel_residual <= 1e-10
    # f = (pi^2 - 1) u, grad u0 = pi cos(pi x)
    decay = (1 - math.exp(-2.0)) / 2.0
    rhs = (math.pi ** 2 - 1) ** 2 * decay / 2 + math.pi ** 2 / 2
    assert rep.rhs_total == pytest.approx(rhs, rel=1e-12)
    # and the left side decomposes into the three stated pieces
    lhs = (decay / 2 + math.pi ** 4 * decay / 2
           + math.pi ** 2 * math.exp(-2.0) / 2)
    assert rep.lhs_total == pytest.approx(lhs, rel=1e-12)


def test_isometry_kind_checks():
    with pytest.raises(ValueError):
        trd_isometry_check(HEAT, RULE)
    with pytest.raises(ValueError):
        heat_isometry_check(TRD, RULE)


@pytest.mark.parametrize("omega", [-1.0, 0.0, 0.5, 1.0, 10.0])
def test_omega_identity(omega):
    w = scalar_field("(1+t**2)*sin(pi*x) + t*sin(2*pi*x)/3", TDOM)
    assert omega_identity_check(w, omega, TDOM, RULE) <= 1e-12


def test_omega_identity_requires_conformity():
    w = scalar_field("(1+t)*cos(pi*x)", TDOM)
    with pytest.raises(ConformityError):
        omega_identity_check(w, 1.0, TDOM, RULE)


@pytest.mark.parametrize("eps,seed", [(0.01, 1), (0.1, 4), (1.0, 9)])
def test_trd_equality_residual(eps, seed):
    rep = trd_equality(TRD, perturb(TRD, "conforming_mixed", eps, seed), RULE)
    assert rep.rel_residual <= 1e-10
    # the middle term matches its data-side evaluation
    assert rep.checks["mid_identity_rel"] <= 1e-10


def test_trd_equality_linear_in_solution():
    # u_tilde = u/2 with p_tilde = p/2: every error component is known
    ap = ApproxPair(0.5 * TRD.exact_u, 0.5 * TRD.exact_p, "conforming_mixed")
    rep = trd_equality(TRD, ap, RULE)
    assert rep.rel_residual <= 1e-10
    # halving the pair halves each error field; the terminal L2 piece is
    # ||u(1)||^2 / 4
    term = rep.lhs_components["terminal_sq"]
    assert term == pytest.approx(math.exp(-2.0) / 8, rel=1e-12)


def test_trd_very_conforming_equality():
    ap = perturb(TRD, "very_conforming", 0.2, 3)
    rep = trd_very_conforming_equality(TRD, ap.u_tilde, RULE)
    assert rep.rel_residual <= 1e-10
    # consistency: with the compatible flux the two identities differ
    # exactly by the initial gradient term on both sides
    mixed = trd_equality(TRD, ApproxPair(ap.u_tilde,
                                         ap.u_tilde.gradient_field(),
                                         "conforming_mixed"), RULE)
    grad0 = (rep.rhs_components["initial_h1_sq"]
             - mixed.rhs_components["initial_sq"])
    assert mixed.lhs_total + grad0 == pytest.approx(rep.lhs_total, rel=1e-10)
    assert mixed.rhs_total + grad0 == pytest.approx(rep.rhs_total, rel=1e-10)


def test_heat_very_conforming_equality():
    ap = perturb(HEAT, "very_conforming", 0.2, 3)
    rep = heat_very_conforming_equality(HEAT, ap.u_tilde, RULE)
    assert rep.rel_residual <= 1e-10


def test_very_conforming_requires_capabilities():
    ap = perturb(TRD, "conforming_mixed", 0.1, 0)
    with pytest.raises(ConformityError):
        trd_very_conforming_equality(TRD, ap.u_tilde, RULE)
    aph = perturb(HEAT, "conforming_mixed", 0.1, 0)
    with pytest.raises(ConformityError):
        heat_very_conforming_equality(HEAT, aph.u_tilde, RULE)


def test_heat_two_sided_ordering():
    cf = friedrichs_constant(TDOM.spatial()).value
    for seed in range(5):
        ap = perturb(HEAT, "conforming_mixed", 0.2, seed)
        rep = heat_two_sided(HEAT, ap, cf, RULE)
        assert rep.ordering_ok
        for lb in rep.lower_bounds.values():
            assert lb <= rep.true_total + 1e-9
        assert rep.true_total <= rep.upper_bound + 1e-9
        assert rep.checks["fdivpt_identity_rel"] <= 1e-10


def test_heat_two_sided_gamma_override():
    cf = friedrichs_constant(TDOM.spatial()).value
    ap = perturb(HEAT, "conforming_mixed", 0.2, 0)
    default = heat_two_sided(HEAT, ap, cf, RULE)
    wide = heat_two_sided(HEAT, ap, cf, RULE, gamma=4.0)
    assert wide.ordering_ok
    assert wide.upper_bound != default.upper_bound
    with pytest.raises(ValueError):
        heat_two_sided(HEAT, ap, cf, RULE, gamma=1.0)


def test_parabolic_kind_checks():
    ap = perturb(HEAT, "conforming_mixed", 0.1, 0)
    with pytest.raises(ValueError):
        trd_equality(HEAT, ap, RULE)
    cf = friedrichs_constant(TDOM.spatial()).value
    with pytest.raises(ValueError):
        heat_two_sided(TRD, perturb(TRD, "conforming_mixed", 0.1, 0), cf, RULE)


@pytest.mark.parametrize("cf", [
    -5.0, math.nan, 0.9 * friedrichs_constant(TDOM.spatial()).value])
def test_heat_two_sided_refuses_cf_below_the_box_constant(cf):
    ap = perturb(HEAT, "conforming_mixed", 0.1, 0)
    with pytest.raises(ValueError, match="cf"):
        heat_two_sided(HEAT, ap, cf, RULE)


@pytest.mark.parametrize("kind, estimator", [
    ("TRD", lambda case, ap, rule: trd_equality(case, ap, rule).lhs_components["mid_sq"]),
    ("Heat", lambda case, ap, rule: heat_two_sided(
        case, ap, friedrichs_constant(case.dom.spatial()).value,
        rule).true_error["mid_sq"])])
def test_middle_term_on_the_grid_adds_its_two_sums(kind, estimator):
    # a solution that does not split takes the grid, where the middle term
    # dt(u - ut) + div(pt - p) is the sum of its two parenthesised sums, as
    # the expression of fields was, and not the left fold of four terms
    dom = BoxDomain((0.0, 0.0), (1.0, 1.0), time_horizon=1.0)
    case = make_case(kind, dom, "exp(-t)*sin(pi*x*y)*x*(1-x)*y*(1-y)")
    rule = QuadratureRule(space_order=4, time_order=4)
    u, p = case.exact_u, case.exact_p
    # an approximation whose grid values the two groupings round apart
    ap = perturb(case, "very_conforming", 0.01, 1)
    ut, pt = ap.u_tilde, ap.p_tilde
    assert u.separated() is None
    nested = (u - ut).dt_field() + (pt - p).div_field()
    folded = u.dt_field() - ut.dt_field() + pt.div_field() - p.div_field()
    mid = estimator(case, ap, rule)
    assert mid.hex() == norm_sq("L2", nested, dom, rule).hex()
    assert mid.hex() != norm_sq("L2", folded, dom, rule).hex()
