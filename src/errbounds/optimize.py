"""Young-parameter and flux-reconstruction optimization for the majorants."""
from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .fields import ScalarField, VectorField
from .manufactured import ApproxPair, ProblemCase
from .quadrature import QuadratureRule, l2_inner, norm_sq
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
    """Linear combination of vector fields sharing dim/time-dependence."""
    if len(basis) != len(coeffs) or not basis:
        raise ValueError("need equally many basis fields and coefficients")
    out = float(coeffs[0]) * basis[0]
    for b, c in zip(basis[1:], coeffs[1:]):
        out = out + float(c) * b
    return out


def _majorant_terms(case: ProblemCase, u_tilde: ScalarField, phi: VectorField,
                    rule: QuadratureRule) -> Tuple[float, float]:
    """(residual term, gap term) of the quadratic flux majorant."""
    dom = case.dom
    if case.kind == "RD":
        residual = case.f - u_tilde + phi.div_field()
    elif case.kind == "Poisson":
        residual = case.f + phi.div_field()
    else:
        raise ValueError(f"flux majorant supports RD and Poisson, got {case.kind}")
    r = norm_sq("L2", residual, dom, rule)
    g = norm_sq("L2", phi - u_tilde.gradient_field(), dom, rule)
    return r, g


def minimize_flux_majorant(case: ProblemCase, u_tilde: ScalarField,
                           basis: Sequence[VectorField], rule: QuadratureRule,
                           weights: Tuple[float, float] = (1.0, 1.0),
                           ) -> Tuple[VectorField, float, np.ndarray]:
    """Minimize w_r * ||residual(phi)||^2 + w_g * ||phi - grad u_tilde||^2
    over phi in span(basis) by solving the normal equations.

    Returns (optimal flux, majorant value, coefficient vector).
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    w_r, w_g = weights
    if w_r < 0 or w_g < 0:
        raise ValueError("weights must be nonnegative")
    dom = case.dom
    if case.kind == "RD":
        data = case.f - u_tilde
    elif case.kind == "Poisson":
        data = case.f
    else:
        raise ValueError(f"flux majorant supports RD and Poisson, got {case.kind}")
    grad_ut = u_tilde.gradient_field()
    n = len(basis)
    G = np.empty((n, n))
    rhs = np.empty(n)
    divs = [b.div_field() for b in basis]
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = (
                w_r * l2_inner(divs[i], divs[j], dom, rule)
                + w_g * l2_inner(basis[i], basis[j], dom, rule))
        # residual is data + div(phi): minimize w_r ||data + div phi||^2
        rhs[i] = (w_g * l2_inner(grad_ut, basis[i], dom, rule)
                  - w_r * l2_inner(data, divs[i], dom, rule))
    G[np.diag_indices(n)] += 1e-12 * (1.0 + np.trace(G) / n)
    coeffs = np.linalg.solve(G, rhs)
    phi = combine_vector_fields(basis, coeffs)
    r, g = _majorant_terms(case, u_tilde, phi, rule)
    return phi, w_r * r + w_g * g, coeffs


def improve_bound(case: ProblemCase, approx: ApproxPair,
                  phi_free: ScalarField, rule: QuadratureRule,
                  budget: int = 4, start_size: int = 1,
                  gamma0: float = 1.0) -> List[BoundReport]:
    """Iteratively tighten the combined non-conforming majorant

        (1 + 1/gamma) (||f - phi + div psi||^2 + ||psi - grad phi||^2)
            + (1 + gamma) (||phi - u_tilde||^2 + ||psi - p_tilde||^2)

    by adding one trigonometric flux mode per step and re-optimizing first
    the flux coefficients (normal equations at the current gamma) and then
    gamma itself (closed form).  Returns ``budget`` reports with
    non-increasing upper bounds, each still a guaranteed bound.
    """
    from .elliptic import rd_nonconforming_bounds
    from .manufactured import flux_basis as make_flux_basis

    if case.kind != "RD":
        raise ValueError("improve_bound targets the reaction-diffusion majorant")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    dom = case.dom
    ut, pt = approx.u_tilde, approx.p_tilde
    grad_phi = phi_free.gradient_field()
    data = case.f - phi_free
    u_dist_sq = norm_sq("L2", phi_free - ut, dom, rule)
    size = start_size + budget - 1
    basis = list(make_flux_basis(dom.spatial(), size))
    divs = [b.div_field() for b in basis]
    # Raw inner products of the nested basis, each computed once: step k
    # works on the leading (start_size + k) block, and the last step uses all.
    DD = np.empty((size, size))  # <div b_i, div b_j>
    BB = np.empty((size, size))  # <b_i, b_j>
    for i in range(size):
        for j in range(i, size):
            DD[i, j] = DD[j, i] = l2_inner(divs[i], divs[j], dom, rule)
            BB[i, j] = BB[j, i] = l2_inner(basis[i], basis[j], dom, rule)
    RD = np.array([l2_inner(data, d, dom, rule) for d in divs])
    RG = np.array([l2_inner(grad_phi, b, dom, rule) for b in basis])
    RP = np.array([l2_inner(pt, b, dom, rule) for b in basis])

    gamma = gamma0
    reports: List[BoundReport] = []
    for step in range(budget):
        n = start_size + step
        wa = 1.0 + 1.0 / gamma
        wb = 1.0 + gamma
        # quadratic in psi: wa (||data + div psi||^2 + ||psi - grad phi||^2)
        #                   + wb ||psi - p_tilde||^2
        G = wa * (DD[:n, :n] + BB[:n, :n]) + wb * BB[:n, :n]
        rhs = -wa * RD[:n] + wa * RG[:n] + wb * RP[:n]
        G[np.diag_indices(n)] += 1e-12 * (1.0 + np.trace(G) / n)
        coeffs = np.linalg.solve(G, rhs)
        psi = combine_vector_fields(basis[:n], coeffs)
        A = math.fsum([
            norm_sq("L2", data + psi.div_field(), dom, rule),
            norm_sq("L2", psi - grad_phi, dom, rule),
        ])
        B = math.fsum([u_dist_sq, norm_sq("L2", psi - pt, dom, rule)])
        gamma, _ = optimal_gamma(A, B)
        if not math.isfinite(gamma) or gamma <= 0.0:
            gamma = 1.0
        reports.append(rd_nonconforming_bounds(
            case, approx, phi_free, psi, gamma=gamma, which="iii", rule=rule))
    return reports
