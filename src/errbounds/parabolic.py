"""Space-time identities, error equalities and two-sided bounds for the
time-dependent reaction-diffusion and heat problems on (0, T) x box. Norms
are of signed atom terms, as in :mod:`errbounds.elliptic`, taken from their
leaf terms also at a slice time of the cylinder (a term's time factor there
multiplied last).
"""
from __future__ import annotations

import math
from functools import partial

from .elliptic import (_check_kind, _checked_cf, _gap, _minus,
                       _require, _require_vanishing, two_sided_prefactors)
from .fields import ScalarField
from .manufactured import ApproxPair, ProblemCase
from .quadrature import QuadratureRule, norm_sq, terms_norm_sq
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
         "grad_u0_sq": terms_norm_sq(dom.spatial(), rule,
                                     [(1.0, case.u0, "grad")])})


def _mixed(case: ProblemCase, approx: ApproxPair, rule: QuadratureRule):
    """Checks of the mixed estimators, their cylinder norms and the norms
    they share: errors of grad u, p, dt u + div p, u(T); gap, initial error."""
    dom, u, p = case.dom, case.exact_u, case.exact_p
    sq, T = partial(terms_norm_sq, dom, rule), dom.time_horizon
    ut, pt = approx.u_tilde, approx.p_tilde
    _require(ut.has_grad and ut.has_dt, "u_tilde must carry grad and dt")
    _require(pt.has_div, "p_tilde must carry a divergence")
    _require_vanishing(u, ut, "mantle boundary")
    true = {"err_grad_sq": sq(_minus(u, ut), "grad"),
            "flux_l2_sq": sq(_minus(pt, p)),
            "mid_sq": sq(([(1.0, u, "dt"), (-1.0, ut, "dt")],
                          [(1.0, pt, "div"), (-1.0, p, "div")])),
            "terminal_sq": sq(_minus(u, ut), at=T)}
    return sq, true, sq(_gap(pt, ut)), sq(_minus(case.u0, ut), at=0.0)


def trd_equality(case: ProblemCase, approx: ApproxPair,
                 rule: QuadratureRule) -> EqualityReport:
    """Mixed space-time error equality for dt - lap + 1."""
    _check_kind(case, "TRD")
    sq, true, gap_sq, initial_sq = _mixed(case, approx, rule)
    f, u, ut, pt = case.f, case.exact_u, approx.u_tilde, approx.p_tilde
    rhs = {"residual_sq": sq([(1.0, f, "value"), (-1.0, ut, "dt"),
                              (-1.0, ut, "value"), (1.0, pt, "div")]),
           "gap_sq": gap_sq, "initial_sq": initial_sq}
    # data-side surrogate of the middle term (needs the exact u)
    mid_data_sq = sq([(1.0, f, "value"), (-1.0, ut, "dt"), (1.0, pt, "div"),
                      (-1.0, u, "value")])
    return EqualityReport.summed(
        {"err_l2_sq": sq(_minus(u, ut)), **true}, rhs,
        {"mid_identity_rel": relative_residual(true["mid_sq"], mid_data_sq)})


def trd_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                 rule: QuadratureRule) -> EqualityReport:
    """Primal space-time error equality for dt - lap + 1 with a very
    conforming approximation (dt, laplacian, mantle-boundary vanishing)."""
    _check_kind(case, "TRD")
    dom, u, ut = case.dom, case.exact_u, u_tilde
    sq, T = partial(terms_norm_sq, dom, rule), dom.time_horizon
    _require(ut.has_dt and ut.has_laplacian,
             "u_tilde must carry dt and laplacian")
    _require_vanishing(u, ut, "mantle boundary")
    e = _minus(u, ut)
    lhs = {"err_h11_sq": sq(e, kind="H11"),
           "err_grad_hdiv_sq": sq(e, "grad", "Hdiv"),
           "terminal_h1_sq": sq(e, kind="H1", at=T)}
    rhs = {"residual_sq": sq([(1.0, case.f, "value"), (-1.0, ut, "dt"),
                              (-1.0, ut, "value"), (1.0, ut, "laplacian")]),
           "initial_h1_sq": sq(_minus(case.u0, ut), kind="H1", at=0.0)}
    return EqualityReport.summed(lhs, rhs)


def heat_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                  rule: QuadratureRule) -> EqualityReport:
    """Primal space-time error equality for the heat operator; the
    Friedrichs constant is absent."""
    _check_kind(case, "Heat")
    dom, u, ut = case.dom, case.exact_u, u_tilde
    sq, T = partial(terms_norm_sq, dom, rule), dom.time_horizon
    _require(ut.has_dt and ut.has_laplacian,
             "u_tilde must carry dt and laplacian")
    _require_vanishing(u, ut, "mantle boundary")
    e = _minus(u, ut)
    lhs = {"err_dt_sq": sq(e, "dt"), "err_lap_sq": sq(e, "laplacian"),
           "terminal_grad_sq": sq(e, "grad", at=T)}
    rhs = {"residual_sq": sq([(1.0, case.f, "value"), (1.0, ut, "laplacian"),
                              (-1.0, ut, "dt")]),
           "initial_grad_sq": sq(_minus(case.u0, ut), "grad", at=0.0)}
    return EqualityReport.summed(lhs, rhs)


def heat_two_sided(case: ProblemCase, approx: ApproxPair, cf: float,
                   rule: QuadratureRule, gamma: float = 2.0) -> BoundReport:
    """Two-sided space-time estimate for the heat equation with conforming
    mixed approximations; both lower candidates are reported individually.
    A ``cf`` below the Friedrichs constant of the spatial box raises
    ValueError."""
    _check_kind(case, "Heat")
    cf = _checked_cf(case, cf)
    sq, true, gap_sq, initial_sq = _mixed(case, approx, rule)
    residual_sq = sq([(1.0, case.f, "value"), (1.0, approx.p_tilde, "div"),
                      (-1.0, approx.u_tilde, "dt")])
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
