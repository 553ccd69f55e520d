import math

import pytest

from errbounds import (
    ApproxPair,
    BoxDomain,
    ConformityError,
    QuadratureRule,
    cftwo_check,
    friedrichs_constant,
    friedrichs_margin,
    make_case,
    perturb,
    poisson_nonconforming,
    poisson_two_sided,
    poisson_very_conforming_equality,
    rd_equality,
    rd_nonconforming_bounds,
    rd_semiconforming_bounds,
    rd_very_conforming_equality,
    scalar_field,
    two_sided_prefactors,
    zero_scalar,
    zero_vector,
)

RULE = QuadratureRule()
DOM1 = BoxDomain((0.0,), (1.0,))
DOM2 = BoxDomain((0.0, 0.0), (1.0, 1.0))
RD = make_case("RD", DOM1, "sin(pi*x)")
POISSON = make_case("Poisson", DOM1, "sin(pi*x)")


# --------------------------------------------------------------------------
# Friedrichs constant and its saturation
# --------------------------------------------------------------------------

def test_friedrichs_closed_form():
    assert friedrichs_constant(DOM1).value == pytest.approx(1 / math.pi)
    assert friedrichs_constant(DOM2).value == pytest.approx(
        1 / (math.pi * math.sqrt(2)))
    dom = BoxDomain((0.0, 0.0), (2.0, 1.0))
    lam = math.pi ** 2 * (0.25 + 1.0)
    assert friedrichs_constant(dom).value == pytest.approx(1 / math.sqrt(lam))
    assert friedrichs_constant(DOM1).provenance == "box_closed_form"
    user = friedrichs_constant(DOM1, value=0.5)
    assert user.value == 0.5 and user.provenance == "user_supplied"
    with pytest.raises(ValueError):
        friedrichs_constant(DOM1, value=-1.0)
    # below 1/pi, the unit interval's constant: no Friedrichs constant
    for value in (0.3, math.nan):
        with pytest.raises(ValueError, match="value"):
            friedrichs_constant(DOM1, value=value)


def test_friedrichs_margin_saturates_on_eigenfunction():
    cf = friedrichs_constant(DOM1).value
    eig = scalar_field("sin(pi*x)", DOM1)
    assert abs(friedrichs_margin(eig, cf, DOM1, RULE)) < 1e-12
    assert abs(cftwo_check(eig, cf, DOM1, RULE)) < 1e-12
    # higher modes leave strictly positive margin
    w = scalar_field("sin(3*pi*x)", DOM1)
    assert friedrichs_margin(w, cf, DOM1, RULE) > 0.1
    assert cftwo_check(w, cf, DOM1, RULE) > 0.1


def test_friedrichs_margin_requires_conformity():
    cf = friedrichs_constant(DOM1).value
    with pytest.raises(ConformityError):
        friedrichs_margin(scalar_field("cos(pi*x)", DOM1), cf, DOM1, RULE)
    with pytest.raises(ConformityError):
        cftwo_check(scalar_field("cos(pi*x)", DOM1), cf, DOM1, RULE)


# --------------------------------------------------------------------------
# reaction-diffusion equalities
# --------------------------------------------------------------------------

@pytest.mark.parametrize("eps,seed", [(0.01, 0), (0.1, 3), (1.0, 8)])
def test_rd_equality_residual(eps, seed):
    rep = rd_equality(RD, perturb(RD, "conforming_mixed", eps, seed), RULE)
    assert rep.rel_residual <= 1e-10
    assert rep.lhs_total > 0


def test_rd_equality_exact_pair_is_zero():
    rep = rd_equality(RD, perturb(RD, "conforming_mixed", 0.0, 0), RULE)
    assert rep.lhs_total == pytest.approx(0.0, abs=1e-20)
    assert rep.rhs_total == pytest.approx(0.0, abs=1e-20)
    assert rep.rel_residual <= 1e-14


def test_rd_equality_rejects_nonconforming():
    ap = perturb(RD, "non_conforming", 0.1, 0)
    with pytest.raises(ConformityError):
        rd_equality(RD, ap, RULE)
    with pytest.raises(ValueError):
        rd_equality(POISSON, perturb(RD, "conforming_mixed", 0.1, 0), RULE)


def test_rd_very_conforming_equality():
    ap = perturb(RD, "very_conforming", 0.3, 5)
    rep = rd_very_conforming_equality(RD, ap.u_tilde, RULE)
    assert rep.rel_residual <= 1e-10
    # with the compatible flux choice, the mixed identity reduces to it
    mixed = rd_equality(RD, ApproxPair(ap.u_tilde,
                                       ap.u_tilde.gradient_field(),
                                       "conforming_mixed"), RULE)
    assert mixed.lhs_total == pytest.approx(rep.lhs_total, rel=1e-10)
    assert mixed.rhs_total == pytest.approx(rep.rhs_total, rel=1e-10)
    assert mixed.rhs_components["gap_sq"] == pytest.approx(0.0, abs=1e-18)


def test_rd_very_conforming_requires_laplacian():
    ap = perturb(RD, "conforming_mixed", 0.1, 0)
    with pytest.raises(ConformityError):
        rd_very_conforming_equality(RD, ap.u_tilde, RULE)


# --------------------------------------------------------------------------
# reaction-diffusion bounds
# --------------------------------------------------------------------------

def test_rd_nonconforming_with_trivial_fields():
    # u_tilde = p_tilde = 0 and zero free fields: the residual term is
    # ||f||^2 and everything else vanishes
    ap = ApproxPair(zero_scalar(DOM1).restricted(),
                    zero_vector(DOM1).restricted(), "non_conforming")
    f_sq = (math.pi ** 2 + 1) ** 2 / 2
    u_sq, p_sq = 0.5, math.pi ** 2 / 2
    r1 = rd_nonconforming_bounds(RD, ap, zero_scalar(DOM1), zero_vector(DOM1),
                                 gamma=1.0, which="i", rule=RULE)
    assert r1.upper_bound == pytest.approx(2 * f_sq, rel=1e-12)
    assert r1.true_total == pytest.approx(u_sq, rel=1e-12)
    assert r1.ordering_ok
    r2 = rd_nonconforming_bounds(RD, ap, zero_scalar(DOM1), zero_vector(DOM1),
                                 gamma=1.0, which="ii", rule=RULE)
    assert r2.upper_bound == pytest.approx(f_sq, rel=1e-12)
    assert r2.true_total == pytest.approx(p_sq, rel=1e-12)
    assert r2.ordering_ok
    r3 = rd_nonconforming_bounds(RD, ap, zero_scalar(DOM1), zero_vector(DOM1),
                                 gamma=1.0, which="iii", rule=RULE)
    assert r3.upper_bound == pytest.approx(2 * f_sq, rel=1e-12)
    assert r3.true_total == pytest.approx(u_sq + p_sq, rel=1e-12)


def test_rd_nonconforming_sharp_with_exact_free_fields():
    ap = perturb(RD, "non_conforming", 0.4, 7)
    for gamma in (0.5, 1.0, 3.0):
        rep = rd_nonconforming_bounds(RD, ap, RD.exact_u, RD.exact_p,
                                      gamma=gamma, which="i", rule=RULE)
        # residual and gap vanish, so the bound is exactly (1+gamma) * true
        assert rep.upper_bound == pytest.approx(
            (1 + gamma) * rep.true_total, rel=1e-10)
    tight = rd_nonconforming_bounds(RD, ap, RD.exact_u, RD.exact_p,
                                    gamma=1e-6, which="iii", rule=RULE)
    assert 1.0 <= tight.upper_bound / tight.true_total <= 1 + 1e-5


def test_rd_nonconforming_validation():
    ap = perturb(RD, "non_conforming", 0.1, 0)
    with pytest.raises(ValueError):
        rd_nonconforming_bounds(RD, ap, RD.exact_u, RD.exact_p,
                                gamma=-1.0, which="i", rule=RULE)
    with pytest.raises(ValueError):
        rd_nonconforming_bounds(RD, ap, RD.exact_u, RD.exact_p,
                                gamma=1.0, which="iv", rule=RULE)
    with pytest.raises(ConformityError):
        rd_nonconforming_bounds(RD, ap, scalar_field("cos(pi*x)", DOM1),
                                RD.exact_p, gamma=1.0, which="i", rule=RULE)


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, 0.0])
def test_bounds_reject_a_gamma_that_is_not_finite_and_positive(gamma):
    # an infinite gamma made a vacuous bound that passed, a NaN one a NaN
    with pytest.raises(ValueError, match="gamma"):
        rd_nonconforming_bounds(RD, perturb(RD, "non_conforming", 0.1, 0),
                                RD.exact_u, RD.exact_p, gamma=gamma,
                                which="iii", rule=RULE)
    with pytest.raises(ValueError, match="gamma"):
        rd_semiconforming_bounds(
            RD, perturb(RD, "semi_conforming_primal", 0.1, 0), RD.exact_p,
            gamma=gamma, rule=RULE)
    with pytest.raises(ValueError, match="gamma"):
        two_sided_prefactors(0.3, gamma)


@pytest.mark.parametrize("level", ["semi_conforming_primal",
                                   "semi_conforming_dual"])
def test_rd_semiconforming_ordering(level):
    for seed in range(5):
        ap = perturb(RD, level, 0.3, seed)
        free = RD.exact_p if level == "semi_conforming_primal" else RD.exact_u
        rep = rd_semiconforming_bounds(RD, ap, free, gamma=2.0, rule=RULE)
        assert rep.ordering_ok
        assert rep.lower_bound <= rep.true_total + 1e-9
        assert rep.true_total <= rep.upper_bound + 1e-9


def test_rd_semiconforming_level_mismatch():
    ap = perturb(RD, "conforming_mixed", 0.1, 0)
    with pytest.raises(ConformityError):
        rd_semiconforming_bounds(RD, ap, RD.exact_p, gamma=1.0, rule=RULE)


# --------------------------------------------------------------------------
# Poisson estimates
# --------------------------------------------------------------------------

def test_poisson_two_sided_ordering_and_identity():
    cf = friedrichs_constant(DOM1).value
    for seed in range(5):
        ap = perturb(POISSON, "conforming_mixed", 0.2, seed)
        rep = poisson_two_sided(POISSON, ap, cf, RULE)
        assert rep.ordering_ok
        for lb in rep.lower_bounds.values():
            assert lb <= rep.true_total + 1e-9
        # ||f + div p_tilde|| = ||div(p - p_tilde)|| exactly
        assert rep.checks["fdiv_identity_rel"] <= 1e-10


def test_poisson_two_sided_prefactors():
    cf = 1 / math.pi
    a, b = two_sided_prefactors(cf, 2.0)
    assert a == pytest.approx(1 + 4 * cf ** 2)
    assert b == pytest.approx(2.0)
    with pytest.raises(ValueError):
        two_sided_prefactors(cf, 1.0)


def test_poisson_very_conforming_equality_unsquared():
    ap = perturb(POISSON, "very_conforming", 0.2, 4)
    rep = poisson_very_conforming_equality(POISSON, ap.u_tilde, RULE)
    assert rep.rel_residual <= 1e-10
    assert rep.lhs_total == pytest.approx(
        math.sqrt(rep.lhs_components["err_lap_sq"]), rel=1e-14)


def test_poisson_nonconforming_sharp_variant_i():
    ap = perturb(POISSON, "non_conforming", 0.5, 2)
    cf = friedrichs_constant(DOM1).value
    rep = poisson_nonconforming(POISSON, ap.u_tilde, ap.p_tilde,
                                POISSON.exact_u, POISSON.exact_p, cf, "i",
                                RULE)
    # with exact free fields only the distance term survives: bound = true
    assert rep.upper_bound == pytest.approx(rep.true_total, rel=1e-10)
    rep2 = poisson_nonconforming(POISSON, ap.u_tilde, ap.p_tilde,
                                 POISSON.exact_u, POISSON.exact_p, cf, "ii",
                                 RULE)
    assert rep2.ordering_ok


def test_poisson_nonconforming_mixed_variants():
    cf = friedrichs_constant(DOM1).value
    ap = perturb(POISSON, "semi_conforming_primal", 0.3, 6)
    rep = poisson_nonconforming(POISSON, ap.u_tilde, ap.p_tilde,
                                POISSON.exact_u, POISSON.exact_p, cf,
                                "mixed-i", RULE)
    assert rep.ordering_ok
    assert rep.lower_bound <= rep.true_total + 1e-9
    ap2 = perturb(POISSON, "semi_conforming_dual", 0.3, 6)
    rep2 = poisson_nonconforming(POISSON, ap2.u_tilde, ap2.p_tilde,
                                 POISSON.exact_u, POISSON.exact_p, cf,
                                 "mixed-ii", RULE)
    assert rep2.ordering_ok


def test_poisson_nonconforming_validation():
    ap = perturb(POISSON, "non_conforming", 0.1, 0)
    cf = friedrichs_constant(DOM1).value
    with pytest.raises(ValueError):
        poisson_nonconforming(POISSON, ap.u_tilde, ap.p_tilde,
                              POISSON.exact_u, POISSON.exact_p, cf, "iv",
                              RULE)
    with pytest.raises(ConformityError):
        poisson_nonconforming(POISSON, ap.u_tilde, ap.p_tilde,
                              POISSON.exact_u, POISSON.exact_p, cf,
                              "mixed-i", RULE)


def test_efficiency_indices_populated():
    cf = friedrichs_constant(DOM1).value
    ap = perturb(POISSON, "conforming_mixed", 0.2, 1)
    rep = poisson_two_sided(POISSON, ap, cf, RULE)
    assert rep.efficiency_upper >= 1.0 - 1e-12
    assert rep.efficiency_lower <= 1.0 + 1e-12


# the values of cf each estimator taking one must refuse: negative, not a
# number, and just below the closed form of the box
def _bad_cfs(dom):
    return (-5.0, math.nan, 0.9 * friedrichs_constant(dom).value)


@pytest.mark.parametrize("cf", _bad_cfs(DOM1))
def test_poisson_two_sided_refuses_cf_below_the_box_constant(cf):
    ap = perturb(POISSON, "conforming_mixed", 0.1, 0)
    with pytest.raises(ValueError, match="cf"):
        poisson_two_sided(POISSON, ap, cf, RULE)


@pytest.mark.parametrize("cf", _bad_cfs(DOM1))
def test_poisson_nonconforming_refuses_cf_below_the_box_constant(cf):
    ap = perturb(POISSON, "non_conforming", 0.1, 0)
    with pytest.raises(ValueError, match="cf"):
        poisson_nonconforming(POISSON, ap.u_tilde, ap.p_tilde,
                              POISSON.exact_u, POISSON.exact_p, cf, "ii",
                              RULE)
