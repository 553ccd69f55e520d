"""Young-parameter and flux-reconstruction optimization for the majorants.

Both majorants take one flux step (:func:`_flux_step`), which assembles
everything once. The divergences and Grams of a flux basis are kept per
basis, box and rule (:func:`_basis_grams`), and the fields of a basis per
box and size (:func:`manufactured.flux_basis`), each for the
:data:`manufactured.FLUX_BASIS_MEMO` latest keys. The blocks that pair a
record's d and targets with the basis, and the norms of every step, come
from the norm programs of the forms themselves (:func:`quadrature._program`,
not kept) over plans kept per process (:func:`quadrature._plan`), so a
record at a size its process met before integrates nothing. The blocks
equal ``l2_gram`` and the norms ``norm_sq`` of the step's flux, bit for
bit. A step then costs one n x n solve and a few contractions.
"""
from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

import numpy as np

from .elliptic import _require, friedrichs_constant, rd_nonconforming_report
from .fields import ScalarField, VectorField, combination
from .manufactured import FLUX_BASIS_MEMO, ApproxPair, ProblemCase, flux_basis
from .quadrature import (QuadratureRule, _block, _check_fields, _norm,
                         _program, axis_rules, l2_gram, norm_sq, samples,
                         weighted_gram)
from .reports import BoundReport


def optimal_gamma(A: float, B: float) -> Tuple[float, float]:
    """Minimizer and minimum of gamma -> (1 + 1/gamma) A + (1 + gamma) B
    over gamma > 0.

    Conventions at the boundary of the admissible data: B = 0 pushes the
    minimizer to infinity with limit value A; A = 0 pushes it to zero with
    limit value B. NaN is rejected; infinite A or B take the limits of the
    closed form.
    """
    for name, value in (("A", A), ("B", B)):
        if not value >= 0:
            raise ValueError(f"optimal_gamma needs nonnegative A and B, "
                             f"got {name} = {value!r}")
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


@functools.lru_cache(maxsize=FLUX_BASIS_MEMO)
def _basis_grams(basis: Tuple[VectorField, ...], dom, rule):
    """The divergences of ``basis``, a tuple, and BB = ``l2_gram(basis,
    basis)`` and DD, the same of the divergences, read-only; kept for the
    :data:`manufactured.FLUX_BASIS_MEMO` latest (basis, box, rule)."""
    divs = tuple(b.div_field() for b in basis)
    grams = l2_gram(basis, basis, dom, rule), l2_gram(divs, divs, dom, rule)
    for G in grams:
        G.setflags(write=False)
    return (divs, *grams)


def _flux_terms(basis, divs, d, targets, dom, rule):
    """RD = ``l2_gram([d], divs)[0]``, RT = ``l2_gram(targets, basis)`` and
    the step's norms as a function of its coefficients c: ||d + sum_i c_i
    div b_i||^2 and ||sum_i c_i b_i - t||^2 per t of ``targets``. d and the
    targets are checked against the box and the basis as ``l2_gram``
    checks them. When all carry separated forms, everything comes from two
    unkept norm programs (:func:`quadrature._program`): of d and the
    divergences, for d + div psi, and of the fields and the targets, for
    psi - t. Their blocks (:func:`quadrature._block`) equal ``l2_gram`` and
    their norms (:func:`quadrature._norm`) ``norm_sq`` of the step's flux,
    bit for bit. Otherwise d, the targets and the basis are sampled once
    and the blocks and norms taken from the rows."""
    # in l2_gram's order; the basis and its divergences were checked as
    # their Grams were assembled
    _check_fields([*targets, basis[0]], dom)
    _check_fields([d, divs[0]], dom)
    N, T = len(basis), len(targets)
    on_divs = [f.separated() for f in (d, *divs)]
    on_fields = [f.separated() for f in (*basis, *targets)]
    if None not in on_divs and None not in on_fields:
        axes = axis_rules(dom, rule)
        residual = _program(tuple(on_divs), axes, kept=False)
        gaps = _program(tuple(on_fields), axes, kept=False)
        # the multipliers of the forms: the coefficients for the leading n,
        # 0 for the rest; before them 1 for d, after them -1 for one target
        # and 0 for the others
        ends = [[-1.0 if j == i else 0.0 for j in range(T)] for i in range(T)]

        def norms(coeffs):
            mults = coeffs.tolist() + [0.0] * (N - len(coeffs))
            return [_norm([1.0, *mults], residual),
                    *(_norm(mults + end, gaps) for end in ends)]

        return (_block(residual, range(1), range(1, N + 1))[0],
                _block(gaps, range(N, N + T), range(N)), norms)
    values, wv = samples(basis, dom, rule)
    div_rows, w = samples(divs, dom, rule)
    rows = samples(targets, dom, rule)[0]
    data = samples([d], dom, rule)[0]

    def norms(coeffs):
        r = data + coeffs @ div_rows[:len(coeffs)]
        gaps = coeffs @ values[:len(coeffs)] - rows
        return [float(weighted_gram(r, r, w)[0, 0]),
                *map(float, weighted_gram(gaps, gaps, wv).diagonal())]

    return (weighted_gram(data, div_rows, w)[0],
            weighted_gram(rows, values, wv), norms)


def _flux_step(basis: Sequence[VectorField], d: ScalarField, targets, dom,
               rule):
    """The flux step as a function of (n, wa, wb): the coefficients of the
    psi in the span of the leading n fields of ``basis`` that minimizes
    wa (||d + div psi||^2 + ||psi - t0||^2) + wb ||psi - t1||^2, then
    ||d + div psi||^2 and ||psi - t||^2 per t of ``targets``, (t0, t1) or
    (t0,) with t1 = t0.

    Everything is assembled once, so a step costs one n x n solve and a
    few contractions. The basis Grams and divergences come from
    :func:`_basis_grams`, kept per basis, box and rule; the other blocks
    and the norms from :func:`_flux_terms`. With separated forms, the plans
    of their terms are kept per process, so a warm record integrates
    nothing; its blocks equal :func:`quadrature.l2_gram`, and its norms
    ``norm_sq("L2", ...)`` of d + psi.div_field() and of psi - t, bit for
    bit."""
    targets = list(targets)
    divs, BB, DD = _basis_grams(tuple(basis), dom, rule)
    RD, RT, norms = _flux_terms(basis, divs, d, targets, dom, rule)

    def step(n: int, wa: float, wb: float):
        rhs = -wa * RD[:n] + wa * RT[0, :n] + wb * RT[-1, :n]
        coeffs = _solve_normal_equations(
            wa * (DD[:n, :n] + BB[:n, :n]) + wb * BB[:n, :n], rhs)
        return (coeffs, *norms(coeffs))

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
    coeffs, residual_sq, gap_sq = _flux_step(
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
    return combine_vector_fields(basis, coeffs), report.finalize(), coeffs


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
    basis = flux_basis(dom.spatial(), start_size + budget - 1)
    step = _flux_step(basis, case.f - phi_free,
                      (phi_free.gradient_field(), pt), dom, rule)
    gamma = gamma0
    reports: List[BoundReport] = []
    for n in range(start_size, start_size + budget):
        _, residual_sq, gap_sq, p_dist_sq = step(
            n, 1.0 + 1.0 / gamma, 1.0 + gamma)
        gamma, _ = _young(math.fsum([residual_sq, gap_sq]),
                          math.fsum([u_dist_sq, p_dist_sq]))
        reports.append(rd_nonconforming_report(
            gamma, "iii", residual_sq=residual_sq, gap_sq=gap_sq,
            u_dist_sq=u_dist_sq, p_dist_sq=p_dist_sq, err_u=err_u,
            err_p=err_p))
    return reports
