"""Space-time identities, error equalities and two-sided bounds for the
time-dependent reaction-diffusion and heat problems on (0, T) x box. As in
:mod:`errbounds.elliptic`, each estimator takes the norms of signed atom
terms of its record in one call, from their leaf terms also at a slice time
of the cylinder (a term's time factor there multiplied last).
"""
from __future__ import annotations

import math

from .elliptic import (_check_kind, _checked_cf, _gap, _halves, _minus,
                       _require, _require_vanishing, two_sided_prefactors)
from .fields import ScalarField
from .manufactured import ApproxPair, ProblemCase
from .quadrature import QuadratureRule, record_norms_sq
from .reports import BoundReport, EqualityReport, relative_residual


def trd_isometry_check(case: ProblemCase, rule: QuadratureRule) -> EqualityReport:
    """Solution-operator isometry of the parabolic reaction-diffusion problem:
    combined space-time norm of u equals ||f||^2 + ||u0||_H1^2."""
    _check_kind(case, "TRD")
    return EqualityReport.summed(*_halves(record_norms_sq(case.dom, rule, {
        "combined_norm_sq": (_atom(case.exact_u), "value", "Wstar"),
        "f_sq": _atom(case.f),
        # u0, a field of the spatial box, is its own slice at 0
        "u0_h1_sq": (_atom(case.u0), "value", "H1", 0.0)}), 1))


def heat_isometry_check(case: ProblemCase, rule: QuadratureRule) -> EqualityReport:
    """Heat solution-operator isometry:
    ||dt u||^2 + ||lap u||^2 + ||grad u(T)||^2 = ||f||^2 + ||grad u0||^2."""
    _check_kind(case, "Heat")
    return EqualityReport.summed(*_halves(record_norms_sq(case.dom, rule, {
        "triple_norm_sq": (_atom(case.exact_u), "value", "triple"),
        "f_sq": _atom(case.f),
        "grad_u0_sq": (_atom(case.u0), "grad", "L2", 0.0)}), 1))


def _atom(w) -> list:
    return [(1.0, w, "value")]


def _mixed(case: ProblemCase, approx: ApproxPair):
    """The norms of the mixed estimators' records that they share, after
    their checks: errors of grad u, p, dt u + div p, u(T); gap, initial
    error."""
    u, p, T = case.exact_u, case.exact_p, case.dom.time_horizon
    ut, pt = approx.u_tilde, approx.p_tilde
    _require(ut.has_grad and ut.has_dt, "u_tilde must carry grad and dt")
    _require(pt.has_div, "p_tilde must carry a divergence")
    _require_vanishing(u, ut, "mantle boundary")
    return {"err_grad_sq": (_minus(u, ut), "grad"),
            "flux_l2_sq": _minus(pt, p),
            "mid_sq": (([(1.0, u, "dt"), (-1.0, ut, "dt")],
                        [(1.0, pt, "div"), (-1.0, p, "div")]),),
            "terminal_sq": (_minus(u, ut), "value", "L2", T),
            "gap_sq": _gap(pt, ut),
            "initial_sq": (_minus(case.u0, ut), "value", "L2", 0.0)}


def trd_equality(case: ProblemCase, approx: ApproxPair,
                 rule: QuadratureRule) -> EqualityReport:
    """Mixed space-time error equality for dt - lap + 1."""
    _check_kind(case, "TRD")
    f, u, ut, pt = case.f, case.exact_u, approx.u_tilde, approx.p_tilde
    n = record_norms_sq(case.dom, rule, {
        **_mixed(case, approx),
        "residual_sq": [(1.0, f, "value"), (-1.0, ut, "dt"),
                        (-1.0, ut, "value"), (1.0, pt, "div")],
        # data-side surrogate of the middle term (needs the exact u)
        "mid_data_sq": [(1.0, f, "value"), (-1.0, ut, "dt"), (1.0, pt, "div"),
                        (-1.0, u, "value")],
        "err_l2_sq": _minus(u, ut)})
    true = ("err_l2_sq", "err_grad_sq", "flux_l2_sq", "mid_sq", "terminal_sq")
    return EqualityReport.summed(
        {k: n[k] for k in true},
        {k: n[k] for k in ("residual_sq", "gap_sq", "initial_sq")},
        {"mid_identity_rel": relative_residual(n["mid_sq"], n["mid_data_sq"])})


def trd_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                 rule: QuadratureRule) -> EqualityReport:
    """Primal space-time error equality for dt - lap + 1 with a very
    conforming approximation (dt, laplacian, mantle-boundary vanishing)."""
    _check_kind(case, "TRD")
    u, ut, T = case.exact_u, u_tilde, case.dom.time_horizon
    _require(ut.has_dt and ut.has_laplacian,
             "u_tilde must carry dt and laplacian")
    _require_vanishing(u, ut, "mantle boundary")
    e = _minus(u, ut)
    return EqualityReport.summed(*_halves(record_norms_sq(case.dom, rule, {
        "err_h11_sq": (e, "value", "H11"), "err_grad_hdiv_sq": (e, "grad", "Hdiv"),
        "terminal_h1_sq": (e, "value", "H1", T),
        "residual_sq": [(1.0, case.f, "value"), (-1.0, ut, "dt"),
                        (-1.0, ut, "value"), (1.0, ut, "laplacian")],
        "initial_h1_sq": (_minus(case.u0, ut), "value", "H1", 0.0)}), 3))


def heat_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                  rule: QuadratureRule) -> EqualityReport:
    """Primal space-time error equality for the heat operator; the
    Friedrichs constant is absent."""
    _check_kind(case, "Heat")
    u, ut, T = case.exact_u, u_tilde, case.dom.time_horizon
    _require(ut.has_dt and ut.has_laplacian,
             "u_tilde must carry dt and laplacian")
    _require_vanishing(u, ut, "mantle boundary")
    e = _minus(u, ut)
    return EqualityReport.summed(*_halves(record_norms_sq(case.dom, rule, {
        "err_dt_sq": (e, "dt"), "err_lap_sq": (e, "laplacian"),
        "terminal_grad_sq": (e, "grad", "L2", T),
        "residual_sq": [(1.0, case.f, "value"), (1.0, ut, "laplacian"),
                        (-1.0, ut, "dt")],
        "initial_grad_sq": (_minus(case.u0, ut), "grad", "L2", 0.0)}), 3))


def heat_two_sided(case: ProblemCase, approx: ApproxPair, cf: float,
                   rule: QuadratureRule, gamma: float = 2.0) -> BoundReport:
    """Two-sided space-time estimate for the heat equation with conforming
    mixed approximations; both lower candidates are reported individually.
    A ``cf`` below the Friedrichs constant of the spatial box raises
    ValueError."""
    _check_kind(case, "Heat")
    cf = _checked_cf(case, cf)
    n = record_norms_sq(case.dom, rule, {
        **_mixed(case, approx),
        "residual_sq": [(1.0, case.f, "value"), (1.0, approx.p_tilde, "div"),
                        (-1.0, approx.u_tilde, "dt")]})
    true, rest = _halves(n, 4)
    gap_sq, initial_sq, residual_sq = rest.values()
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
                "initial_sq": initial_sq, "fdivpt_identity_rel":
                relative_residual(residual_sq, true["mid_sq"])})
    return report.finalize()
