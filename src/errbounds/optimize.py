"""Young-parameter and flux-reconstruction optimization for the majorants."""
from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .elliptic import _require, friedrichs_constant, rd_nonconforming_report
from .fields import ScalarField, VectorField, combination
from .manufactured import ApproxPair, ProblemCase
from .quadrature import (QuadratureRule, l2_gram, l2_inner, norm_sq,
                         samples, weighted_gram)
from .reports import BoundReport


def optimal_gamma(A: float, B: float) -> Tuple[float, float]:
    """Minimizer and minimum of gamma -> (1 + 1/gamma) A + (1 + gamma) B
    over gamma > 0.

    Conventions at the boundary of the admissible data: B = 0 pushes the
    minimizer to infinity with limit value A; A = 0 pushes it to zero with
    limit value B.
    """
    if A < 0 or B < 0:
        raise ValueError("optimal_gamma needs nonnegative A and B")
    if B == 0.0:
        return math.inf, A
    if A == 0.0:
        return 0.0, B
    gamma = math.sqrt(A / B)
    return gamma, (math.sqrt(A) + math.sqrt(B)) ** 2


def combine_vector_fields(basis: Sequence[VectorField],
                          coeffs: Sequence[float]) -> VectorField:
    """Linear combination of vector fields sharing dim/time-dependence, in
    one step (see :func:`fields.combination`)."""
    if len(basis) != len(coeffs) or not basis:
        raise ValueError("need equally many basis fields and coefficients")
    return combination(basis, coeffs)


def _solve_normal_equations(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G c = rhs with the diagonal of G (modified in place) lifted by
    1e-12 (1 + tr G / n), so that a singular Gram matrix of a zero or
    dependent basis still yields a minimizer."""
    n = len(rhs)
    G[np.diag_indices(n)] += 1e-12 * (1.0 + np.trace(G) / n)
    return np.linalg.solve(G, rhs)


def _young(A: float, B: float) -> Tuple[float, float]:
    """:func:`optimal_gamma`, its minimizer 1.0 where not finite and > 0."""
    gamma, value = optimal_gamma(A, B)
    return (gamma if math.isfinite(gamma) and gamma > 0.0 else 1.0), value


def _flux_step(basis: Sequence[VectorField], d: ScalarField, targets, dom,
               rule):
    """The flux step as a function of (n, wa, wb): the psi in the span of
    the leading n fields of ``basis`` that minimizes
    wa (||d + div psi||^2 + ||psi - t0||^2) + wb ||psi - t1||^2, its
    coefficients, then ||d + div psi||^2 and ||psi - t||^2 per t of
    ``targets``, (t0, t1) or (t0,) with t1 = t0. The Gram blocks come from
    :func:`quadrature.l2_gram` and the norms are ``norm_sq("L2", ...)`` of
    psi's terms, unless d or a target carries no separated form: then the
    fields are sampled once and the blocks and norms taken from the rows."""
    divs = [b.div_field() for b in basis]
    targets = list(targets)
    BB = l2_gram(basis, basis, dom, rule)
    DD = l2_gram(divs, divs, dom, rule)
    if all(f.separated() is not None for f in (d, *targets)):
        RT = l2_gram(targets, basis, dom, rule)
        RD = l2_gram([d], divs, dom, rule)[0]

        def norms(psi, coeffs):
            return [l2_inner(w, w, dom, rule) for w in
                    (d + psi.div_field(), *(psi - t for t in targets))]
    else:
        values, wv = samples(basis, dom, rule)
        div_rows, w = samples(divs, dom, rule)
        rows = samples(targets, dom, rule)[0]
        data = samples([d], dom, rule)[0]
        RT = weighted_gram(rows, values, wv)
        RD = weighted_gram(data, div_rows, w)[0]

        def norms(psi, coeffs):
            r = data + coeffs @ div_rows[:len(coeffs)]
            gaps = coeffs @ values[:len(coeffs)] - rows
            return [float(weighted_gram(r, r, w)[0, 0]),
                    *map(float, weighted_gram(gaps, gaps, wv).diagonal())]

    def step(n: int, wa: float, wb: float):
        rhs = -wa * RD[:n] + wa * RT[0, :n] + wb * RT[-1, :n]
        coeffs = _solve_normal_equations(
            wa * (DD[:n, :n] + BB[:n, :n]) + wb * BB[:n, :n], rhs)
        psi = combine_vector_fields(basis[:n], coeffs)
        return (psi, coeffs, *norms(psi, coeffs))

    return step


def minimize_flux_majorant(case: ProblemCase, u_tilde: ScalarField,
                           basis: Sequence[VectorField], rule: QuadratureRule,
                           ) -> Tuple[VectorField, BoundReport, np.ndarray]:
    """Minimize ||d + div phi||^2 + ||phi - grad u_tilde||^2 over phi in
    span(basis), d = f - u_tilde (RD) or f (Poisson), and bound the error
    with the minimizer: for RD by the functional, which bounds ||u -
    u_tilde||_H1^2 by the mixed equality; for Poisson, where it is no bound,
    by (1 + beta) ||phi - grad u_tilde||^2 + (1 + 1/beta) C_F^2 ||f + div
    phi||^2 at the closed-form beta (the report's gamma), which bounds
    ||grad(u - u_tilde)||^2. The report's checks are the functional's terms.

    Returns (optimal flux, report, coefficient vector).
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    if case.kind not in ("RD", "Poisson"):
        raise ValueError(f"flux majorant supports RD and Poisson, got {case.kind}")
    dom, rd, e = case.dom, case.kind == "RD", case.exact_u - u_tilde
    _require(e.vanishes_on_boundary, "u - u_tilde must vanish on the boundary")
    flux, coeffs, residual_sq, gap_sq = _flux_step(
        basis, case.f - u_tilde if rd else case.f,
        (u_tilde.gradient_field(),), dom, rule)(len(basis), 1.0, 0.0)
    if rd:
        gamma, upper = None, residual_sq + gap_sq
        name, err = "err_h1_sq", norm_sq("H1", e, dom, rule)
    else:
        cf = friedrichs_constant(dom).value
        gamma, upper = _young(cf ** 2 * residual_sq, gap_sq)
        name, err = "err_grad_sq", norm_sq("L2", e.gradient_field(), dom, rule)
    report = BoundReport({}, {name: err, "total": err}, upper, gamma,
                         checks={"residual_sq": residual_sq, "gap_sq": gap_sq})
    return flux, report.finalize(), coeffs


def improve_bound(case: ProblemCase, approx: ApproxPair,
                  phi_free: ScalarField, rule: QuadratureRule,
                  budget: int = 4, start_size: int = 1,
                  gamma0: float = 1.0) -> List[BoundReport]:
    """Iteratively tighten the combined non-conforming majorant

        (1 + 1/gamma) (||f - phi + div psi||^2 + ||psi - grad phi||^2)
            + (1 + gamma) (||phi - u_tilde||^2 + ||psi - p_tilde||^2)

    by adding one trigonometric flux mode per step and re-optimizing first
    the flux coefficients (the step of :func:`minimize_flux_majorant` at
    the current gamma) and then gamma itself (closed form).  Returns
    ``budget`` reports with non-increasing upper bounds, each still a
    guaranteed bound: the report of :func:`elliptic.rd_nonconforming_bounds`
    (``which="iii"``) of the step's flux and gamma. The norms that do not
    depend on the flux are computed once.
    """
    from .manufactured import flux_basis as make_flux_basis

    if case.kind != "RD":
        raise ValueError("improve_bound targets the reaction-diffusion majorant")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if start_size < 1:
        raise ValueError(f"start_size must be at least 1, got {start_size!r}")
    if not (math.isfinite(gamma0) and gamma0 > 0):
        raise ValueError(f"gamma0 must be finite and positive, got {gamma0!r}")
    _require(phi_free.vanishes_on_boundary and phi_free.has_grad,
             "free scalar field must be conforming")
    dom = case.dom
    ut, pt = approx.u_tilde, approx.p_tilde
    u_dist_sq = norm_sq("L2", phi_free - ut, dom, rule)
    err_u = norm_sq("L2", case.exact_u - ut, dom, rule)
    err_p = norm_sq("L2", case.exact_p - pt, dom, rule)
    basis = list(make_flux_basis(dom.spatial(), start_size + budget - 1))
    step = _flux_step(basis, case.f - phi_free,
                      (phi_free.gradient_field(), pt), dom, rule)
    gamma = gamma0
    reports: List[BoundReport] = []
    for n in range(start_size, start_size + budget):
        *_, residual_sq, gap_sq, p_dist_sq = step(
            n, 1.0 + 1.0 / gamma, 1.0 + gamma)
        gamma, _ = _young(math.fsum([residual_sq, gap_sq]),
                          math.fsum([u_dist_sq, p_dist_sq]))
        reports.append(rd_nonconforming_report(
            gamma, "iii", residual_sq=residual_sq, gap_sq=gap_sq,
            u_dist_sq=u_dist_sq, p_dist_sq=p_dist_sq, err_u=err_u,
            err_p=err_p))
    return reports
