"""Space-time identities, error equalities and two-sided bounds for the
time-dependent reaction-diffusion and heat problems on (0, T) x box.
"""
from __future__ import annotations

import math

from .elliptic import _check_kind, _checked_cf, _require, two_sided_prefactors
from .fields import ScalarField
from .manufactured import ApproxPair, ProblemCase
from .quadrature import QuadratureRule, norm_sq, trace_norm_sq
from .reports import BoundReport, EqualityReport, relative_residual


def trd_isometry_check(case: ProblemCase, rule: QuadratureRule) -> EqualityReport:
    """Solution-operator isometry of the parabolic reaction-diffusion problem:
    combined space-time norm of u equals ||f||^2 + ||u0||_H1^2."""
    _check_kind(case, "TRD")
    dom = case.dom
    return EqualityReport.summed(
        {"combined_norm_sq": norm_sq("Wstar", case.exact_u, dom, rule)},
        {"f_sq": norm_sq("L2", case.f, dom, rule),
         "u0_h1_sq": norm_sq("H1", case.u0, dom.spatial(), rule)})


def heat_isometry_check(case: ProblemCase, rule: QuadratureRule) -> EqualityReport:
    """Heat solution-operator isometry:
    ||dt u||^2 + ||lap u||^2 + ||grad u(T)||^2 = ||f||^2 + ||grad u0||^2."""
    _check_kind(case, "Heat")
    dom = case.dom
    return EqualityReport.summed(
        {"triple_norm_sq": norm_sq("triple", case.exact_u, dom, rule)},
        {"f_sq": norm_sq("L2", case.f, dom, rule),
         "grad_u0_sq": norm_sq("L2", case.u0.gradient_field(), dom.spatial(),
                               rule)})


def trd_equality(case: ProblemCase, approx: ApproxPair,
                 rule: QuadratureRule) -> EqualityReport:
    """Mixed space-time error equality for dt - lap + 1."""
    _check_kind(case, "TRD")
    dom = case.dom
    T = dom.time_horizon
    ut, pt = approx.u_tilde, approx.p_tilde
    _require(ut.has_grad and ut.has_dt, "u_tilde must carry grad and dt")
    _require(pt.has_div, "p_tilde must carry a divergence")
    e = case.exact_u - ut
    _require(e.vanishes_on_boundary, "u - u_tilde must vanish on the mantle boundary")
    ep = pt - case.exact_p
    mid = e.dt_field() + ep.div_field()
    mid_sq = norm_sq("L2", mid, dom, rule)
    lhs = {
        "err_l2_sq": norm_sq("L2", e, dom, rule),
        "err_grad_sq": norm_sq("L2", e.gradient_field(), dom, rule),
        "flux_l2_sq": norm_sq("L2", ep, dom, rule),
        "mid_sq": mid_sq,
        "terminal_sq": trace_norm_sq(e, T, "value", dom, rule),
    }
    residual = case.f - ut.dt_field() - ut + pt.div_field()
    rhs = {
        "residual_sq": norm_sq("L2", residual, dom, rule),
        "gap_sq": norm_sq("L2", pt - ut.gradient_field(), dom, rule),
        "initial_sq": norm_sq("L2", case.u0 - ut.at_time(0.0), dom.spatial(), rule),
    }
    # data-side surrogate of the middle term (needs the exact u)
    mid_data_sq = norm_sq(
        "L2", case.f - ut.dt_field() + pt.div_field() - case.exact_u, dom, rule)
    return EqualityReport.summed(
        lhs, rhs, {"mid_identity_rel": relative_residual(mid_sq, mid_data_sq)})


def trd_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                 rule: QuadratureRule) -> EqualityReport:
    """Primal space-time error equality for dt - lap + 1 with a very
    conforming approximation (dt, laplacian, mantle-boundary vanishing)."""
    _check_kind(case, "TRD")
    dom = case.dom
    T = dom.time_horizon
    _require(u_tilde.has_dt and u_tilde.has_laplacian,
             "u_tilde must carry dt and laplacian")
    e = case.exact_u - u_tilde
    _require(e.vanishes_on_boundary, "u - u_tilde must vanish on the mantle boundary")
    lhs = {
        "err_h11_sq": norm_sq("H11", e, dom, rule),
        "err_grad_hdiv_sq": norm_sq("Hdiv", e.gradient_field(), dom, rule),
        "terminal_h1_sq": trace_norm_sq(e, T, "H1", dom, rule),
    }
    residual = (case.f - u_tilde.dt_field() - u_tilde + u_tilde.laplacian_field())
    rhs = {
        "residual_sq": norm_sq("L2", residual, dom, rule),
        "initial_h1_sq": norm_sq("H1", case.u0 - u_tilde.at_time(0.0),
                                 dom.spatial(), rule),
    }
    return EqualityReport.summed(lhs, rhs)


def heat_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                  rule: QuadratureRule) -> EqualityReport:
    """Primal space-time error equality for the heat operator; the
    Friedrichs constant is absent."""
    _check_kind(case, "Heat")
    dom = case.dom
    T = dom.time_horizon
    _require(u_tilde.has_dt and u_tilde.has_laplacian,
             "u_tilde must carry dt and laplacian")
    e = case.exact_u - u_tilde
    _require(e.vanishes_on_boundary, "u - u_tilde must vanish on the mantle boundary")
    lhs = {
        "err_dt_sq": norm_sq("L2", e.dt_field(), dom, rule),
        "err_lap_sq": norm_sq("L2", e.laplacian_field(), dom, rule),
        "terminal_grad_sq": trace_norm_sq(e, T, "gradient", dom, rule),
    }
    residual = case.f + u_tilde.laplacian_field() - u_tilde.dt_field()
    e0 = case.u0 - u_tilde.at_time(0.0)
    rhs = {
        "residual_sq": norm_sq("L2", residual, dom, rule),
        "initial_grad_sq": norm_sq("L2", e0.gradient_field(), dom.spatial(), rule),
    }
    return EqualityReport.summed(lhs, rhs)


def heat_two_sided(case: ProblemCase, approx: ApproxPair, cf: float,
                   rule: QuadratureRule, gamma: float = 2.0) -> BoundReport:
    """Two-sided space-time estimate for the heat equation with conforming
    mixed approximations; both lower candidates are reported individually.
    A ``cf`` below the Friedrichs constant of the spatial box raises
    ValueError."""
    _check_kind(case, "Heat")
    cf = _checked_cf(case, cf)
    dom = case.dom
    T = dom.time_horizon
    ut, pt = approx.u_tilde, approx.p_tilde
    _require(ut.has_grad and ut.has_dt, "u_tilde must carry grad and dt")
    _require(pt.has_div, "p_tilde must carry a divergence")
    e = case.exact_u - ut
    _require(e.vanishes_on_boundary, "u - u_tilde must vanish on the mantle boundary")
    residual_sq = norm_sq("L2", case.f + pt.div_field() - ut.dt_field(), dom, rule)
    gap_sq = norm_sq("L2", pt - ut.gradient_field(), dom, rule)
    initial_sq = norm_sq("L2", case.u0 - ut.at_time(0.0), dom.spatial(), rule)
    ep = pt - case.exact_p
    mid_sq = norm_sq("L2", e.dt_field() + ep.div_field(), dom, rule)
    true = {
        "err_grad_sq": norm_sq("L2", e.gradient_field(), dom, rule),
        "flux_l2_sq": norm_sq("L2", ep, dom, rule),
        "mid_sq": mid_sq,
        "terminal_sq": trace_norm_sq(e, T, "value", dom, rule),
    }
    true["total"] = math.fsum(true.values())
    a, b = two_sided_prefactors(cf, gamma)
    report = BoundReport(
        lower_bounds={
            "residual_plus_half_gap": residual_sq + 0.5 * gap_sq,
            "gap_plus_initial_scaled": (gap_sq + initial_sq) / (1.0 + cf ** 2),
        },
        true_error=true,
        upper_bound=a * residual_sq + b * gap_sq + b * initial_sq,
        gamma=gamma,
        checks={"residual_sq": residual_sq, "gap_sq": gap_sq,
                "initial_sq": initial_sq,
                "fdivpt_identity_rel": relative_residual(residual_sq, mid_sq)})
    return report.finalize()
