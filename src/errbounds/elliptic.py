"""Error equalities and two-sided bounds for the two elliptic model problems:
the reaction-diffusion operator (-laplace + 1) and the Poisson operator.

A norm is of signed atom terms, f - ut + div pt ``[(1.0, f, "value"), (-1.0,
ut, "value"), (1.0, pt, "div")]``, taken bit for bit from the atoms' leaf
terms (ut's are u's and du's forms). An estimator states its record's norms
once, as a module-level :func:`quadrature.norm_table` of atoms named by role
(``"u"``, ``"ut"``, ``"pt"``, ``"f"``, ``"p"`` and the free fields), and
binds them (:func:`_atoms`) in one :func:`quadrature.record_norms_sq`.
"""
from __future__ import annotations

import dataclasses
import math

from .fields import BoxDomain, ConformityError, ScalarField, VectorField
from .manufactured import ApproxPair, ProblemCase
from .quadrature import QuadratureRule, norm_table, record_norms_sq
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


# a table per estimator (and per bound it can be asked for): the norms of
# its record by name, of atoms named by role (see _atoms)
_FRIEDRICHS, _CFTWO = (norm_table({v: [(1.0, "w", v)] for v in views})
                       for views in (("grad", "value"), ("laplacian", "grad")))


def friedrichs_margin(w: ScalarField, cf: float, dom: BoxDomain,
                      rule: QuadratureRule) -> float:
    """cf * ||grad w|| - ||w||; non-negative for boundary-vanishing fields."""
    if not w.vanishes_on_boundary:
        raise ConformityError("Friedrichs inequality needs a boundary-vanishing field")
    n = record_norms_sq(dom, rule, _FRIEDRICHS, {"w": w})
    return cf * math.sqrt(n["grad"]) - math.sqrt(n["value"])


def cftwo_check(w: ScalarField, cf: float, dom: BoxDomain,
                rule: QuadratureRule) -> float:
    """cf * ||laplacian w|| - ||grad w|| for boundary-vanishing w; >= 0."""
    if not w.vanishes_on_boundary:
        raise ConformityError("field must vanish on the boundary")
    n = record_norms_sq(dom, rule, _CFTWO, {"w": w})
    return cf * math.sqrt(n["laplacian"]) - math.sqrt(n["grad"])


def _require(cond: bool, msg: str):
    if not cond:
        raise ConformityError(msg)


def _require_vanishing(u, ut, where: str = "boundary"):
    _require(u.vanishes_on_boundary and ut.vanishes_on_boundary,
             f"u - u_tilde must vanish on the {where}")


# the terms of a - b, q - grad w and f - w + div q (f + div q if no w)
def _minus(a, b) -> list:
    return [(1.0, a, "value"), (-1.0, b, "value")]


def _gap(q, w) -> list:
    return [(1.0, q, "value"), (-1.0, w, "grad")]


def _residual(f, q, w=None) -> list:
    minus_w = [] if w is None else [(-1.0, w, "value")]
    return [(1.0, f, "value"), *minus_w, (1.0, q, "div")]


def _atoms(case: ProblemCase, **atoms) -> dict:
    """The atoms of a record of ``case`` by role: the exact pair u, p, the
    data f, and ``atoms`` (the approximation ut, pt, the free fields)."""
    return {"u": case.exact_u, "p": case.exact_p, "f": case.f, **atoms}


def _halves(norms: dict, k: int):
    """The first ``k`` norms of a record, and the others, in order."""
    items = list(norms.items())
    return dict(items[:k]), dict(items[k:])


def _check_kind(case: ProblemCase, kind: str):
    if case.kind != kind:
        raise ValueError(f"estimator expects a {kind} case, got {case.kind}")


_E, _EP = _minus("u", "ut"), _minus("p", "pt")
_RD_EQUALITY = norm_table({
    "err_l2_sq": _E, "err_grad_sq": (_E, "grad"), "flux_l2_sq": _EP,
    "flux_div_sq": (_EP, "div"), "residual_sq": _residual("f", "pt", "ut"),
    "gap_sq": _gap("pt", "ut")})


def rd_equality(case: ProblemCase, approx: ApproxPair,
                rule: QuadratureRule) -> EqualityReport:
    """Mixed error equality for -laplace + 1:
    ||u-ut||_H1^2 + ||p-pt||_Hdiv^2 = ||f - ut + div pt||^2 + ||pt - grad ut||^2.
    """
    _check_kind(case, "RD")
    u, ut, pt = case.exact_u, approx.u_tilde, approx.p_tilde
    _require(ut.has_grad, "u_tilde must carry a gradient")
    _require(pt.has_div, "p_tilde must carry a divergence")
    _require_vanishing(u, ut)
    return EqualityReport.summed(*_halves(record_norms_sq(
        case.dom, rule, _RD_EQUALITY, _atoms(case, ut=ut, pt=pt)), 4))


_RD_VERY_CONFORMING = norm_table({
    "err_l2_sq": _E, "err_grad_sq": (_E, "grad"), "err_lap_sq": (_E, "laplacian"),
    "residual_sq": [(1.0, "f", "value"), (-1.0, "ut", "value"),
                    (1.0, "ut", "laplacian")]})


def rd_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                rule: QuadratureRule) -> EqualityReport:
    """Primal error equality for -laplace + 1 when u_tilde has a laplacian:
    V-norm of the error equals ||f - ut + laplacian ut||^2."""
    _check_kind(case, "RD")
    _require(u_tilde.has_laplacian, "u_tilde must carry a laplacian")
    _require_vanishing(case.exact_u, u_tilde)
    lhs, rhs = _halves(record_norms_sq(case.dom, rule, _RD_VERY_CONFORMING,
                                       _atoms(case, ut=u_tilde)), 3)
    lhs["err_grad_sq"] *= 2.0
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


_RD_NONCONFORMING = norm_table({
    "residual_sq": _residual("f", "flux", "phi"), "gap_sq": _gap("flux", "phi"),
    "u_dist_sq": _minus("phi", "ut"), "p_dist_sq": _minus("flux", "pt"),
    "err_u": _E, "err_p": _EP})


def rd_nonconforming_bounds(case: ProblemCase, approx: ApproxPair,
                            phi_free: ScalarField, flux_free: VectorField,
                            gamma: float, which: str,
                            rule: QuadratureRule) -> BoundReport:
    """Upper bounds for merely-L2 approximations of -laplace + 1, using a
    conforming free pair and a Young parameter.  ``which`` selects the bound
    on the primal error (i), the dual error (ii) or their sum (iii); see
    :func:`rd_nonconforming_report`."""
    _check_kind(case, "RD")
    ut, pt = approx.u_tilde, approx.p_tilde
    _require(phi_free.vanishes_on_boundary and phi_free.has_grad,
             "free scalar field must be conforming")
    _require(flux_free.has_div, "free flux must carry a divergence")
    return rd_nonconforming_report(gamma, which, **record_norms_sq(
        case.dom, rule, _RD_NONCONFORMING,
        _atoms(case, ut=ut, pt=pt, phi=phi_free, flux=flux_free)))


_RD_SEMI_PRIMAL = norm_table({
    "gap": _gap("pt", "ut"), "err_h1_sq": (_E, "value", "H1"),
    "err_p_l2_sq": _EP, "residual": _residual("f", "free", "ut"),
    "free_gap": _gap("free", "ut"), "free_dist": _minus("free", "pt")})
_RD_SEMI_DUAL = norm_table({
    "data_residual": _residual("f", "pt", "ut"), "err_u_l2_sq": _E,
    "err_p_hdiv_sq": (_EP, "value", "Hdiv"),
    "residual": _residual("f", "pt", "free"), "free_gap": _gap("pt", "free"),
    "free_dist": _minus("free", "ut")})


def rd_semiconforming_bounds(case: ProblemCase, approx: ApproxPair, free,
                             gamma: float, rule: QuadratureRule) -> BoundReport:
    """Two-sided bounds for -laplace + 1 when only one of (u_tilde, p_tilde)
    is conforming.  ``free`` is a div-conforming flux for the primal level or
    a conforming scalar field for the dual level."""
    _check_kind(case, "RD")
    _check_gamma(gamma)
    ut, pt = approx.u_tilde, approx.p_tilde
    atoms = _atoms(case, ut=ut, pt=pt, free=free)
    if approx.level == "semi_conforming_primal":
        _require(ut.vanishes_on_boundary and ut.has_grad,
                 "primal level requires a conforming u_tilde")
        _require(isinstance(free, VectorField) and free.has_div,
                 "primal level requires a div-conforming free flux")
        n = record_norms_sq(case.dom, rule, _RD_SEMI_PRIMAL, atoms)
        lower = {"half_gap_sq": 0.5 * n["gap"]}
        true_components = {k: n[k] for k in ("err_h1_sq", "err_p_l2_sq")}
        upper = ((1.0 + 0.5 / gamma) * n["residual"]
                 + (1.0 + 1.0 / gamma) * n["free_gap"]
                 + (1.0 + gamma) * n["free_dist"])
    elif approx.level == "semi_conforming_dual":
        _require(pt.has_div, "dual level requires a div-conforming p_tilde")
        _require(isinstance(free, ScalarField) and free.vanishes_on_boundary
                 and free.has_grad, "dual level requires a conforming free field")
        n = record_norms_sq(case.dom, rule, _RD_SEMI_DUAL, atoms)
        lower = {"half_residual_sq": 0.5 * n["data_residual"]}
        true_components = {k: n[k] for k in ("err_u_l2_sq", "err_p_hdiv_sq")}
        upper = ((1.0 + 1.0 / gamma) * n["residual"]
                 + (1.0 + 0.5 / gamma) * n["free_gap"]
                 + (1.0 + gamma) * n["free_dist"])
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


_POISSON_TWO_SIDED = norm_table({
    "residual": _residual("f", "pt"), "gap": _gap("pt", "ut"),
    "err_p_div_sq": (_EP, "div"), "err_grad_sq": (_E, "grad"),
    "err_p_l2_sq": _EP})


def poisson_two_sided(case: ProblemCase, approx: ApproxPair, cf: float,
                      rule: QuadratureRule, gamma: float = 2.0) -> BoundReport:
    """Two-sided estimate for the Poisson problem with conforming mixed
    approximations; both lower candidates are reported individually. A
    ``cf`` below the box's Friedrichs constant raises ValueError."""
    _check_kind(case, "Poisson")
    cf = _checked_cf(case, cf)
    u, ut, pt = case.exact_u, approx.u_tilde, approx.p_tilde
    _require(ut.has_grad, "u_tilde must carry a gradient")
    _require(pt.has_div, "p_tilde must carry a divergence")
    _require_vanishing(u, ut)
    n = record_norms_sq(case.dom, rule, _POISSON_TWO_SIDED, _atoms(case, ut=ut, pt=pt))
    residual_sq, gap_sq, div_err_sq = n["residual"], n["gap"], n["err_p_div_sq"]
    true_components = {k: n[k] for k in ("err_grad_sq", "err_p_l2_sq",
                                         "err_p_div_sq")}
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


_POISSON_VERY_CONFORMING = norm_table({
    "lhs": (_E, "laplacian"),
    "rhs": [(1.0, "f", "value"), (1.0, "ut", "laplacian")]})


def poisson_very_conforming_equality(case: ProblemCase, u_tilde: ScalarField,
                                     rule: QuadratureRule) -> EqualityReport:
    """||laplacian(u - ut)|| = ||f + laplacian ut||; Friedrichs-constant free."""
    _check_kind(case, "Poisson")
    _require(u_tilde.has_laplacian, "u_tilde must carry a laplacian")
    _require_vanishing(case.exact_u, u_tilde)
    lhs_sq, rhs_sq = record_norms_sq(case.dom, rule, _POISSON_VERY_CONFORMING,
                                     _atoms(case, ut=u_tilde)).values()
    lhs_total = math.sqrt(lhs_sq)
    rhs_total = math.sqrt(rhs_sq)
    return EqualityReport({"err_lap_sq": lhs_sq}, {"residual_sq": rhs_sq},
                          lhs_total, rhs_total,
                          relative_residual(lhs_total, rhs_total))


# ||f + div flux_free|| is every bound's, the norms of flux_free - pt and
# pt - grad phi_free all but i's
_RES_PHI = {"res_phi": _residual("f", "flux")}
_TAIL = {"flux_dist": _minus("flux", "pt"), "free_gap": _gap("pt", "phi")}
_POISSON_NONCONFORMING = {which: norm_table(table) for which, table in {
    "i": {**_RES_PHI, "gap": _gap("flux", "phi"), "dist": _minus("phi", "ut"),
          "err": _E},
    "ii": {**_RES_PHI, **_TAIL, "err_p_l2_sq": _EP},
    "mixed-i": {**_RES_PHI, "gap": _gap("pt", "ut"),
                "theta_res": _residual("f", "theta"),
                "theta_gap": _gap("theta", "ut"), **_TAIL,
                "err_grad_sq": (_E, "grad"), "err_p_l2_sq": _EP},
    "mixed-ii": {**_RES_PHI, "data_residual": _residual("f", "pt"),
                 "theta_res": _residual("f", "theta"),
                 "theta_gap": _gap("theta", "psi"),
                 "psi_dist": _minus("psi", "ut"), **_TAIL, "err_u_l2_sq": _E,
                 "err_p_hdiv_sq": (_EP, "value", "Hdiv")}}.items()}


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
    _require(phi_free.vanishes_on_boundary and phi_free.has_grad,
             "free scalar field must be conforming")
    _require(flux_free.has_div, "free flux must carry a divergence")
    theta = flux_free if theta is None else theta
    psi = phi_free if psi is None else psi
    atoms = _atoms(case, ut=u_tilde, pt=p_tilde, phi=phi_free, flux=flux_free,
                   theta=theta, psi=psi)

    def norms():
        n = record_norms_sq(case.dom, rule, _POISSON_NONCONFORMING[which],
                            atoms)
        return n, {k: math.sqrt(v) for k, v in n.items()}

    if which == "i":
        n, r = norms()
        bound = cf ** 2 * r["res_phi"] + cf * r["gap"] + r["dist"]
        err = r["err"]
        report = BoundReport(
            lower_bounds={}, true_error={"err_u_l2": err, "total": err},
            upper_bound=bound, checks={"bound_sq": bound ** 2, "true_sq": err ** 2})
    elif which == "ii":
        n, r = norms()
        bound = ((cf * r["res_phi"] + r["flux_dist"]) ** 2 + n["free_gap"])
        err_sq = n["err_p_l2_sq"]
        report = BoundReport(
            lower_bounds={}, true_error={"err_p_l2_sq": err_sq, "total": err_sq},
            upper_bound=bound)
    elif which == "mixed-i":
        _require(u_tilde.vanishes_on_boundary and u_tilde.has_grad,
                 "mixed-i requires a conforming u_tilde")
        _require(theta.has_div, "theta must carry a divergence")
        n, r = norms()
        bound = ((cf * r["theta_res"] + r["theta_gap"]) ** 2
                 + (cf * r["res_phi"] + r["flux_dist"]) ** 2 + n["free_gap"])
        true = {k: n[k] for k in ("err_grad_sq", "err_p_l2_sq")}
        true["total"] = math.fsum(true.values())
        report = BoundReport(lower_bounds={"half_gap_sq": 0.5 * n["gap"]},
                             true_error=true, upper_bound=bound)
    elif which == "mixed-ii":
        _require(p_tilde.has_div, "mixed-ii requires a div-conforming p_tilde")
        _require(psi.vanishes_on_boundary and psi.has_grad,
                 "psi must be a conforming scalar field")
        _require(theta.has_div, "theta must carry a divergence")
        n, r = norms()
        bound = ((cf ** 2 * r["theta_res"] + cf * r["theta_gap"]
                  + r["psi_dist"]) ** 2
                 + (cf * r["res_phi"] + r["flux_dist"]) ** 2
                 + n["free_gap"] + r["data_residual"] ** 2)
        true = {k: n[k] for k in ("err_u_l2_sq", "err_p_hdiv_sq")}
        true["total"] = math.fsum(true.values())
        report = BoundReport(lower_bounds={}, true_error=true, upper_bound=bound)
    else:
        raise ValueError(f"which must be one of {POISSON_NONCONFORMING_WHICH}")
    return report.finalize()
