"""Space-time identities, error equalities and two-sided bounds for the
time-dependent reaction-diffusion and heat problems on (0, T) x box. As in
:mod:`errbounds.elliptic`, each estimator declares the norms of its record
once, as a table of atoms named by role (``"u0"`` too; a slice time may be
``"T"``, the horizon of the case's box), and binds them in one call, their
leaf terms taken also at a slice time of the cylinder (a term's time factor
there multiplied last).
"""
from __future__ import annotations

import math

from .elliptic import (_E, _atoms, _check_kind, _checked_cf, _gap, _halves,
                       _minus, _require, _require_vanishing,
                       two_sided_prefactors)
from .fields import ScalarField
from .manufactured import ApproxPair, ProblemCase
from .quadrature import QuadratureRule, norm_table, record_norms_sq
from .reports import BoundReport, EqualityReport, relative_residual

# a table per estimator, of atoms named by role as in elliptic, u0 the
# initial value; "T" is the horizon of the case's box
_ATOM = {role: [(1.0, role, "value")] for role in ("u", "f", "u0")}
_TRD_ISOMETRY = norm_table({
    "combined_norm_sq": (_ATOM["u"], "value", "Wstar"), "f_sq": _ATOM["f"],
    # u0, a field of the spatial box, is its own slice at 0
    "u0_h1_sq": (_ATOM["u0"], "value", "H1", 0.0)})
_HEAT_ISOMETRY = norm_table({
    "triple_norm_sq": (_ATOM["u"], "value", "triple"), "f_sq": _ATOM["f"],
    "grad_u0_sq": (_ATOM["u0"], "grad", "L2", 0.0)})
# the norms the mixed estimators share: errors of grad u, p, dt u + div p,
# u(T); gap, initial error
_MIXED = {"err_grad_sq": (_E, "grad"), "flux_l2_sq": _minus("pt", "p"),
          "mid_sq": (([(1.0, "u", "dt"), (-1.0, "ut", "dt")],
                      [(1.0, "pt", "div"), (-1.0, "p", "div")]),),
          "terminal_sq": (_E, "value", "L2", "T"), "gap_sq": _gap("pt", "ut"),
          "initial_sq": (_minus("u0", "ut"), "value", "L2", 0.0)}
_TRD_EQUALITY = norm_table({
    **_MIXED,
    "residual_sq": [(1.0, "f", "value"), (-1.0, "ut", "dt"),
                    (-1.0, "ut", "value"), (1.0, "pt", "div")],
    # data-side surrogate of the middle term (needs the exact u)
    "mid_data_sq": [(1.0, "f", "value"), (-1.0, "ut", "dt"), (1.0, "pt", "div"),
                    (-1.0, "u", "value")],
    "err_l2_sq": _E})
_HEAT_TWO_SIDED = norm_table({
    **_MIXED, "residual_sq": [(1.0, "f", "value"), (1.0, "pt", "div"),
                              (-1.0, "ut", "dt")]})
_TRD_VERY_CONFORMING = norm_table({
    "err_h11_sq": (_E, "value", "H11"), "err_grad_hdiv_sq": (_E, "grad", "Hdiv"),
    "terminal_h1_sq": (_E, "value", "H1", "T"),
    "residual_sq": [(1.0, "f", "value"), (-1.0, "ut", "dt"),
                    (-1.0, "ut", "value"), (1.0, "ut", "laplacian")],
    "initial_h1_sq": (_minus("u0", "ut"), "value", "H1", 0.0)})
_HEAT_VERY_CONFORMING = norm_table({
    "err_dt_sq": (_E, "dt"), "err_lap_sq": (_E, "laplacian"),
    "terminal_grad_sq": (_E, "grad", "L2", "T"),
    "residual_sq": [(1.0, "f", "value"), (1.0, "ut", "laplacian"),
                    (-1.0, "ut", "dt")],
    "initial_grad_sq": (_minus("u0", "ut"), "grad", "L2", 0.0)})


def _norms(case: ProblemCase, table, rule: QuadratureRule, **atoms) -> dict:
    return record_norms_sq(case.dom, rule, table,
                           _atoms(case, u0=case.u0, **atoms))


def trd_isometry_check(case: ProblemCase, rule: QuadratureRule) -> EqualityReport:
    """Solution-operator isometry of the parabolic reaction-diffusion problem:
    combined space-time norm of u equals ||f||^2 + ||u0||_H1^2."""
    _check_kind(case, "TRD")
    return EqualityReport.summed(*_halves(
        _norms(case, _TRD_ISOMETRY, rule), 1))


def heat_isometry_check(case: ProblemCase, rule: QuadratureRule) -> EqualityReport:
    """Heat solution-operator isometry:
    ||dt u||^2 + ||lap u||^2 + ||grad u(T)||^2 = ||f||^2 + ||grad u0||^2."""
    _check_kind(case, "Heat")
    return EqualityReport.summed(*_halves(
        _norms(case, _HEAT_ISOMETRY, rule), 1))


def _mixed(case: ProblemCase, approx: ApproxPair, table, rule):
    """The norms of the record of a mixed estimator, after the checks they
    share."""
    ut, pt = approx.u_tilde, approx.p_tilde
    _require(ut.has_grad and ut.has_dt, "u_tilde must carry grad and dt")
    _require(pt.has_div, "p_tilde must carry a divergence")
    _require_vanishing(case.exact_u, ut, "mantle boundary")
    return _norms(case, table, rule, ut=ut, pt=pt)


def trd_equality(case: ProblemCase, approx: ApproxPair,
                 rule: QuadratureRule) -> EqualityReport:
    """Mixed space-time error equality for dt - lap + 1."""
    _check_kind(case, "TRD")
    n = _mixed(case, approx, _TRD_EQUALITY, rule)
    true = ("err_l2_sq", "err_grad_sq", "flux_l2_sq", "mid_sq", "terminal_sq")
    return EqualityReport.summed(
        {k: n[k] for k in true},
        {k: n[k] for k in ("residual_sq", "gap_sq", "initial_sq")},
        {"mid_identity_rel": relative_residual(n["mid_sq"], n["mid_data_sq"])})


def _very_conforming(case: ProblemCase, ut, table, rule):
    """The report of a primal space-time equality, after its checks."""
    _require(ut.has_dt and ut.has_laplacian,
             "u_tilde must carry dt and laplacian")
    _require_vanishing(case.exact_u, ut, "mantle boundary")
    return EqualityReport.summed(*_halves(_norms(case, table, rule, ut=ut), 3))


def trd_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                 rule: QuadratureRule) -> EqualityReport:
    """Primal space-time error equality for dt - lap + 1 with a very
    conforming approximation (dt, laplacian, mantle-boundary vanishing)."""
    _check_kind(case, "TRD")
    return _very_conforming(case, u_tilde, _TRD_VERY_CONFORMING, rule)


def heat_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                  rule: QuadratureRule) -> EqualityReport:
    """Primal space-time error equality for the heat operator; the
    Friedrichs constant is absent."""
    _check_kind(case, "Heat")
    return _very_conforming(case, u_tilde, _HEAT_VERY_CONFORMING, rule)


def heat_two_sided(case: ProblemCase, approx: ApproxPair, cf: float,
                   rule: QuadratureRule, gamma: float = 2.0) -> BoundReport:
    """Two-sided space-time estimate for the heat equation with conforming
    mixed approximations; both lower candidates are reported individually.
    A ``cf`` below the Friedrichs constant of the spatial box raises
    ValueError."""
    _check_kind(case, "Heat")
    cf = _checked_cf(case, cf)
    n = _mixed(case, approx, _HEAT_TWO_SIDED, rule)
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
