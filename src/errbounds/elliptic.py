"""Error equalities and two-sided bounds for the two elliptic model problems:
the reaction-diffusion operator (-laplace + 1) and the Poisson operator.
"""
from __future__ import annotations

import dataclasses
import math

from .fields import BoxDomain, ConformityError, ScalarField, VectorField
from .manufactured import ApproxPair, ProblemCase
from .quadrature import QuadratureRule, norm_sq
from .reports import BoundReport, EqualityReport, relative_residual

# the bounds each non-conforming estimator can be asked for (``which``)
RD_NONCONFORMING_WHICH = ("i", "ii", "iii")
POISSON_NONCONFORMING_WHICH = ("i", "ii", "mixed-i", "mixed-ii")


@dataclasses.dataclass(frozen=True)
class FriedrichsConstant:
    value: float
    provenance: str  # "box_closed_form" or "user_supplied"


def friedrichs_constant(dom: BoxDomain, value: float | None = None) -> FriedrichsConstant:
    """Exact first-Dirichlet-eigenvalue constant for a box, or a user
    override no smaller (a smaller one voids every bound built on it)."""
    lam = math.pi ** 2 * math.fsum(1.0 / L ** 2 for L in dom.spatial().sides)
    exact = 1.0 / math.sqrt(lam)
    if value is None:
        return FriedrichsConstant(exact, "box_closed_form")
    if not float(value) >= exact:
        raise ValueError(f"value {value!r} is below the box's Friedrichs "
                         f"constant {exact!r}")
    return FriedrichsConstant(float(value), "user_supplied")


def _checked_cf(case, cf: float) -> float:
    """``cf`` if it is no smaller than the Friedrichs constant of the case's
    spatial box (see :func:`friedrichs_constant`), else ValueError."""
    try:
        return friedrichs_constant(case.dom.spatial(), value=cf).value
    except ValueError as exc:
        raise ValueError(f"cf: {exc}") from None


def friedrichs_margin(w: ScalarField, cf: float, dom: BoxDomain,
                      rule: QuadratureRule) -> float:
    """cf * ||grad w|| - ||w||; non-negative for boundary-vanishing fields."""
    if not w.vanishes_on_boundary:
        raise ConformityError("Friedrichs inequality needs a boundary-vanishing field")
    return (cf * math.sqrt(norm_sq("L2", w.gradient_field(), dom, rule))
            - math.sqrt(norm_sq("L2", w, dom, rule)))


def cftwo_check(w: ScalarField, cf: float, dom: BoxDomain,
                rule: QuadratureRule) -> float:
    """cf * ||laplacian w|| - ||grad w|| for boundary-vanishing w; >= 0."""
    if not w.vanishes_on_boundary:
        raise ConformityError("field must vanish on the boundary")
    return (cf * math.sqrt(norm_sq("L2", w.laplacian_field(), dom, rule))
            - math.sqrt(norm_sq("L2", w.gradient_field(), dom, rule)))


def _require(cond: bool, msg: str):
    if not cond:
        raise ConformityError(msg)


def _check_kind(case: ProblemCase, kind: str):
    if case.kind != kind:
        raise ValueError(f"estimator expects a {kind} case, got {case.kind}")


def rd_equality(case: ProblemCase, approx: ApproxPair,
                rule: QuadratureRule) -> EqualityReport:
    """Mixed error equality for -laplace + 1:
    ||u-ut||_H1^2 + ||p-pt||_Hdiv^2 = ||f - ut + div pt||^2 + ||pt - grad ut||^2.
    """
    _check_kind(case, "RD")
    dom = case.dom
    ut, pt = approx.u_tilde, approx.p_tilde
    _require(ut.has_grad, "u_tilde must carry a gradient")
    _require(pt.has_div, "p_tilde must carry a divergence")
    e = case.exact_u - ut
    _require(e.vanishes_on_boundary, "u - u_tilde must vanish on the boundary")
    ep = case.exact_p - pt
    lhs = {
        "err_l2_sq": norm_sq("L2", e, dom, rule),
        "err_grad_sq": norm_sq("L2", e.gradient_field(), dom, rule),
        "flux_l2_sq": norm_sq("L2", ep, dom, rule),
        "flux_div_sq": norm_sq("L2", ep.div_field(), dom, rule),
    }
    residual = case.f - ut + pt.div_field()
    gap = pt - ut.gradient_field()
    rhs = {
        "residual_sq": norm_sq("L2", residual, dom, rule),
        "gap_sq": norm_sq("L2", gap, dom, rule),
    }
    return EqualityReport.summed(lhs, rhs)


def rd_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                rule: QuadratureRule) -> EqualityReport:
    """Primal error equality for -laplace + 1 when u_tilde has a laplacian:
    V-norm of the error equals ||f - ut + laplacian ut||^2."""
    _check_kind(case, "RD")
    dom = case.dom
    _require(u_tilde.has_laplacian, "u_tilde must carry a laplacian")
    e = case.exact_u - u_tilde
    _require(e.vanishes_on_boundary, "u - u_tilde must vanish on the boundary")
    lhs = {
        "err_l2_sq": norm_sq("L2", e, dom, rule),
        "err_grad_sq": 2.0 * norm_sq("L2", e.gradient_field(), dom, rule),
        "err_lap_sq": norm_sq("L2", e.laplacian_field(), dom, rule),
    }
    residual = case.f - u_tilde + u_tilde.laplacian_field()
    rhs = {"residual_sq": norm_sq("L2", residual, dom, rule)}
    return EqualityReport.summed(lhs, rhs)


def _check_gamma(gamma: float, above: float = 0.0):
    if not (math.isfinite(gamma) and gamma > above):
        raise ValueError(f"gamma must be finite and > {above:g}, "
                         f"got {gamma!r}")


def rd_nonconforming_report(gamma: float, which: str, *, residual_sq: float,
                            gap_sq: float, u_dist_sq: float, p_dist_sq: float,
                            err_u: float, err_p: float) -> BoundReport:
    """The report of :func:`rd_nonconforming_bounds` from its terms: the
    squared norms of the residual f - phi + div psi, the gap psi - grad phi,
    phi - u_tilde and psi - p_tilde, and the true errors ||u - u_tilde||^2
    and ||p - p_tilde||^2."""
    _check_gamma(gamma)
    if which not in RD_NONCONFORMING_WHICH:
        raise ValueError(f"which must be one of {RD_NONCONFORMING_WHICH}")
    a = 1.0 + 1.0 / gamma
    b = 1.0 + gamma
    if which == "i":
        upper = a * (residual_sq + 0.5 * gap_sq) + b * u_dist_sq
        true = {"err_u_l2_sq": err_u, "total": err_u}
    elif which == "ii":
        upper = a * (0.5 * residual_sq + gap_sq) + b * p_dist_sq
        true = {"err_p_l2_sq": err_p, "total": err_p}
    else:
        upper = a * (residual_sq + gap_sq) + b * (u_dist_sq + p_dist_sq)
        true = {"err_u_l2_sq": err_u, "err_p_l2_sq": err_p,
                "total": math.fsum([err_u, err_p])}
    report = BoundReport(
        lower_bounds={}, true_error=true, upper_bound=upper, gamma=gamma,
        checks={"residual_sq": residual_sq, "gap_sq": gap_sq,
                "u_dist_sq": u_dist_sq, "p_dist_sq": p_dist_sq})
    return report.finalize()


def rd_nonconforming_bounds(case: ProblemCase, approx: ApproxPair,
                            phi_free: ScalarField, flux_free: VectorField,
                            gamma: float, which: str,
                            rule: QuadratureRule) -> BoundReport:
    """Upper bounds for merely-L2 approximations of -laplace + 1, using a
    conforming free pair and a Young parameter.  ``which`` selects the bound
    on the primal error (i), the dual error (ii) or their sum (iii); see
    :func:`rd_nonconforming_report`."""
    _check_kind(case, "RD")
    dom = case.dom
    _require(phi_free.vanishes_on_boundary and phi_free.has_grad,
             "free scalar field must be conforming")
    _require(flux_free.has_div, "free flux must carry a divergence")
    return rd_nonconforming_report(
        gamma, which,
        residual_sq=norm_sq("L2", case.f - phi_free + flux_free.div_field(),
                            dom, rule),
        gap_sq=norm_sq("L2", flux_free - phi_free.gradient_field(), dom, rule),
        u_dist_sq=norm_sq("L2", phi_free - approx.u_tilde, dom, rule),
        p_dist_sq=norm_sq("L2", flux_free - approx.p_tilde, dom, rule),
        err_u=norm_sq("L2", case.exact_u - approx.u_tilde, dom, rule),
        err_p=norm_sq("L2", case.exact_p - approx.p_tilde, dom, rule))


def rd_semiconforming_bounds(case: ProblemCase, approx: ApproxPair, free,
                             gamma: float, rule: QuadratureRule) -> BoundReport:
    """Two-sided bounds for -laplace + 1 when only one of (u_tilde, p_tilde)
    is conforming.  ``free`` is a div-conforming flux for the primal level or
    a conforming scalar field for the dual level."""
    _check_kind(case, "RD")
    _check_gamma(gamma)
    dom = case.dom
    ut, pt = approx.u_tilde, approx.p_tilde
    if approx.level == "semi_conforming_primal":
        _require(ut.vanishes_on_boundary and ut.has_grad,
                 "primal level requires a conforming u_tilde")
        _require(isinstance(free, VectorField) and free.has_div,
                 "primal level requires a div-conforming free flux")
        gap_sq = norm_sq("L2", pt - ut.gradient_field(), dom, rule)
        lower = {"half_gap_sq": 0.5 * gap_sq}
        e = case.exact_u - ut
        true_components = {
            "err_h1_sq": norm_sq("H1", e, dom, rule),
            "err_p_l2_sq": norm_sq("L2", case.exact_p - pt, dom, rule),
        }
        residual_sq = norm_sq("L2", case.f - ut + free.div_field(), dom, rule)
        free_gap_sq = norm_sq("L2", free - ut.gradient_field(), dom, rule)
        free_dist_sq = norm_sq("L2", free - pt, dom, rule)
        upper = ((1.0 + 0.5 / gamma) * residual_sq
                 + (1.0 + 1.0 / gamma) * free_gap_sq
                 + (1.0 + gamma) * free_dist_sq)
    elif approx.level == "semi_conforming_dual":
        _require(pt.has_div, "dual level requires a div-conforming p_tilde")
        _require(isinstance(free, ScalarField) and free.vanishes_on_boundary
                 and free.has_grad, "dual level requires a conforming free field")
        data_residual_sq = norm_sq("L2", case.f - ut + pt.div_field(), dom, rule)
        lower = {"half_residual_sq": 0.5 * data_residual_sq}
        true_components = {
            "err_u_l2_sq": norm_sq("L2", case.exact_u - ut, dom, rule),
            "err_p_hdiv_sq": norm_sq("Hdiv", case.exact_p - pt, dom, rule),
        }
        residual_sq = norm_sq("L2", case.f - free + pt.div_field(), dom, rule)
        free_gap_sq = norm_sq("L2", pt - free.gradient_field(), dom, rule)
        free_dist_sq = norm_sq("L2", free - ut, dom, rule)
        upper = ((1.0 + 1.0 / gamma) * residual_sq
                 + (1.0 + 0.5 / gamma) * free_gap_sq
                 + (1.0 + gamma) * free_dist_sq)
    else:
        raise ConformityError(
            f"approximation level {approx.level!r} is not semi-conforming")
    true_components["total"] = math.fsum(true_components.values())
    report = BoundReport(lower_bounds=lower, true_error=true_components,
                         upper_bound=upper, gamma=gamma)
    return report.finalize()


def two_sided_prefactors(cf: float, gamma: float):
    # derived from the Young-inequality chain of the two-sided proofs;
    # gamma = 2 reproduces the stated (1 + 4 cf^2, 2) pair; the derivation
    # needs gamma > 1
    _check_gamma(gamma, above=1.0)
    a = 1.0 + gamma ** 2 * cf ** 2 / (gamma - 1.0)
    b = gamma / (gamma - 1.0)
    return a, b


def poisson_two_sided(case: ProblemCase, approx: ApproxPair, cf: float,
                      rule: QuadratureRule, gamma: float = 2.0) -> BoundReport:
    """Two-sided estimate for the Poisson problem with conforming mixed
    approximations; both lower candidates are reported individually. A
    ``cf`` below the box's Friedrichs constant raises ValueError."""
    _check_kind(case, "Poisson")
    cf = _checked_cf(case, cf)
    dom = case.dom
    ut, pt = approx.u_tilde, approx.p_tilde
    _require(ut.has_grad, "u_tilde must carry a gradient")
    _require(pt.has_div, "p_tilde must carry a divergence")
    e = case.exact_u - ut
    _require(e.vanishes_on_boundary, "u - u_tilde must vanish on the boundary")
    residual_sq = norm_sq("L2", case.f + pt.div_field(), dom, rule)
    gap_sq = norm_sq("L2", pt - ut.gradient_field(), dom, rule)
    ep = case.exact_p - pt
    div_err_sq = norm_sq("L2", ep.div_field(), dom, rule)
    true_components = {
        "err_grad_sq": norm_sq("L2", e.gradient_field(), dom, rule),
        "err_p_l2_sq": norm_sq("L2", ep, dom, rule),
        "err_p_div_sq": div_err_sq,
    }
    true_components["total"] = math.fsum(true_components.values())
    a, b = two_sided_prefactors(cf, gamma)
    report = BoundReport(
        lower_bounds={
            "residual_plus_half_gap": residual_sq + 0.5 * gap_sq,
            "gap_scaled": gap_sq / (1.0 + cf ** 2),
        },
        true_error=true_components,
        upper_bound=a * residual_sq + b * gap_sq,
        gamma=gamma,
        checks={"fdiv_identity_rel": relative_residual(residual_sq, div_err_sq)})
    return report.finalize()


def poisson_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                     rule: QuadratureRule) -> EqualityReport:
    """||laplacian(u - ut)|| = ||f + laplacian ut||; Friedrichs-constant free."""
    _check_kind(case, "Poisson")
    dom = case.dom
    _require(u_tilde.has_laplacian, "u_tilde must carry a laplacian")
    e = case.exact_u - u_tilde
    _require(e.vanishes_on_boundary, "u - u_tilde must vanish on the boundary")
    lhs_sq = norm_sq("L2", e.laplacian_field(), dom, rule)
    rhs_sq = norm_sq("L2", case.f + u_tilde.laplacian_field(), dom, rule)
    lhs_total = math.sqrt(lhs_sq)
    rhs_total = math.sqrt(rhs_sq)
    return EqualityReport({"err_lap_sq": lhs_sq}, {"residual_sq": rhs_sq},
                          lhs_total, rhs_total,
                          relative_residual(lhs_total, rhs_total))


def poisson_nonconforming(case: ProblemCase, u_tilde: ScalarField,
                          p_tilde: VectorField, phi_free: ScalarField,
                          flux_free: VectorField, cf: float, which: str,
                          rule: QuadratureRule, theta=None, psi=None) -> BoundReport:
    """Poisson bounds for non- and semi-conforming approximations.

    ``which``: 'i' bounds ||u - ut|| (unsquared), 'ii' bounds ||p - pt||^2,
    'mixed-i' / 'mixed-ii' are the combined semi-conforming estimates with
    optional extra free fields ``theta`` (flux) and ``psi`` (scalar). A
    ``cf`` below the box's Friedrichs constant raises ValueError.
    """
    _check_kind(case, "Poisson")
    cf = _checked_cf(case, cf)
    dom = case.dom
    _require(phi_free.vanishes_on_boundary and phi_free.has_grad,
             "free scalar field must be conforming")
    _require(flux_free.has_div, "free flux must carry a divergence")
    theta = flux_free if theta is None else theta
    psi = phi_free if psi is None else psi

    def nrm(field):
        return math.sqrt(norm_sq("L2", field, dom, rule))

    res_phi = nrm(case.f + flux_free.div_field())
    if which == "i":
        bound = (cf ** 2 * res_phi
                 + cf * nrm(flux_free - phi_free.gradient_field())
                 + nrm(phi_free - u_tilde))
        err = nrm(case.exact_u - u_tilde)
        report = BoundReport(
            lower_bounds={}, true_error={"err_u_l2": err, "total": err},
            upper_bound=bound, checks={"bound_sq": bound ** 2, "true_sq": err ** 2})
    elif which == "ii":
        bound = ((cf * res_phi + nrm(flux_free - p_tilde)) ** 2
                 + norm_sq("L2", p_tilde - phi_free.gradient_field(), dom, rule))
        err_sq = norm_sq("L2", case.exact_p - p_tilde, dom, rule)
        report = BoundReport(
            lower_bounds={}, true_error={"err_p_l2_sq": err_sq, "total": err_sq},
            upper_bound=bound)
    elif which == "mixed-i":
        _require(u_tilde.vanishes_on_boundary and u_tilde.has_grad,
                 "mixed-i requires a conforming u_tilde")
        _require(theta.has_div, "theta must carry a divergence")
        gap_sq = norm_sq("L2", p_tilde - u_tilde.gradient_field(), dom, rule)
        bound = ((cf * nrm(case.f + theta.div_field())
                  + nrm(theta - u_tilde.gradient_field())) ** 2
                 + (cf * res_phi + nrm(flux_free - p_tilde)) ** 2
                 + norm_sq("L2", p_tilde - phi_free.gradient_field(), dom, rule))
        e = case.exact_u - u_tilde
        true = {
            "err_grad_sq": norm_sq("L2", e.gradient_field(), dom, rule),
            "err_p_l2_sq": norm_sq("L2", case.exact_p - p_tilde, dom, rule),
        }
        true["total"] = math.fsum(true.values())
        report = BoundReport(lower_bounds={"half_gap_sq": 0.5 * gap_sq},
                             true_error=true, upper_bound=bound)
    elif which == "mixed-ii":
        _require(p_tilde.has_div, "mixed-ii requires a div-conforming p_tilde")
        _require(psi.vanishes_on_boundary and psi.has_grad,
                 "psi must be a conforming scalar field")
        _require(theta.has_div, "theta must carry a divergence")
        data_residual = nrm(case.f + p_tilde.div_field())
        bound = ((cf ** 2 * nrm(case.f + theta.div_field())
                  + cf * nrm(theta - psi.gradient_field())
                  + nrm(psi - u_tilde)) ** 2
                 + (cf * res_phi + nrm(flux_free - p_tilde)) ** 2
                 + norm_sq("L2", p_tilde - phi_free.gradient_field(), dom, rule)
                 + data_residual ** 2)
        true = {
            "err_u_l2_sq": norm_sq("L2", case.exact_u - u_tilde, dom, rule),
            "err_p_hdiv_sq": norm_sq("Hdiv", case.exact_p - p_tilde, dom, rule),
        }
        true["total"] = math.fsum(true.values())
        report = BoundReport(lower_bounds={}, true_error=true, upper_bound=bound)
    else:
        raise ValueError(f"which must be one of {POISSON_NONCONFORMING_WHICH}")
    return report.finalize()
