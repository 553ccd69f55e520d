"""Young-parameter and flux-reconstruction optimization for the majorants.

Both majorants take one flux step (:func:`_flux_step`), which assembles
everything once. The divergences and Grams of a flux basis are kept per
basis, box and rule (:func:`_basis_grams`), and the fields of a basis per
box and size (:func:`manufactured.flux_basis`), each for the
:data:`manufactured.FLUX_BASIS_MEMO` latest keys. d, the targets and the
error norms are signed atom terms, as in the estimators; the blocks that
pair d and the targets with the basis, and the norms of every step, come
from one program of their leaf forms (:func:`quadrature._program`), kept
per process, so a warm record integrates nothing and builds no program.
The blocks equal ``l2_gram`` and the norms ``norm_sq`` of the step's flux,
bit for bit. A step then costs one n x n solve and a few contractions.
"""
from __future__ import annotations

import functools
import math
from typing import List, Sequence, Tuple

import numpy as np

from .elliptic import (_minus, _require, _require_vanishing,
                       friedrichs_constant, rd_nonconforming_report)
from .fields import ScalarField, VectorField, combination
from .manufactured import FLUX_BASIS_MEMO, ApproxPair, ProblemCase, flux_basis
from .quadrature import (QuadratureRule, _block, _expression, _leaves,
                         _norms, _program, axis_rules, l2_gram,
                         record_norms_sq, samples, terms_norm_sq,
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
    div b_i||^2 and ||sum_i c_i b_i - t||^2 per t of ``targets``, d and
    each target signed atom terms, checked as ``l2_gram`` checks fields.
    With forms, all come from one kept :func:`quadrature._program` of the
    leaf forms of d and the divergences (d + div psi), and of the fields
    and the targets (psi - t, once per target), bit for bit ``l2_gram`` and
    ``norm_sq``. Else d, the targets and the basis are sampled once."""
    # in l2_gram's order; the basis and its divergences were checked as
    # their Grams were assembled
    own = [_leaves(t, "value", dom, rank=True)[:2] for t in targets]
    dm, df, *_ = _leaves(d, "value", dom, rank=False)
    N, T = len(basis), len(targets)
    fields = tuple(b.separated() for b in basis)
    divided = tuple(f.separated() for f in divs)
    if None not in (df, *fields, *divided, *(f for _, f in own)):
        axes, tm = axis_rules(dom, rule), [m for ms, _ in own for m in ms]
        gaps = (axes, None, sum((f for _, f in own), fields),
                (1,) * N + tuple(len(f) for _, f in own))
        program = _program([(axes, None, df + divided, (len(df),) + (1,) * N),
                            *[gaps] * T])
        # the multipliers: d's, the coefficients of the leading n fields (0
        # for the rest), a target's negated for its own norm, else 0
        ends = [[-m if j == i else 0.0 for j, (ms, _) in enumerate(own)
                 for m in ms] for i in range(T)]

        def norms(coeffs):
            mults = coeffs.tolist() + [0.0] * (N - len(coeffs))
            return _norms(dm + mults + [m for end in ends
                                        for m in mults + end], program)

        return (_block(program, 0, np.array(dm + [1.0] * N), range(1),
                       range(1, N + 1))[0],
                _block(program, 1, np.array([1.0] * N + tm),
                       range(N, N + T), range(N)), norms)
    values, wv = samples(basis, dom, rule)
    div_rows, w = samples(divs, dom, rule)
    rows = samples([_expression(t, "value", None) for t in targets],
                   dom, rule)[0]
    data = samples([_expression(d, "value", None)], dom, rule)[0]

    def norms(coeffs):
        r = data + coeffs @ div_rows[:len(coeffs)]
        gaps = coeffs @ values[:len(coeffs)] - rows
        return [float(weighted_gram(r, r, w)[0, 0]),
                *map(float, weighted_gram(gaps, gaps, wv).diagonal())]

    return (weighted_gram(data, div_rows, w)[0],
            weighted_gram(rows, values, wv), norms)


def _flux_step(basis: Sequence[VectorField], d: list, targets, dom, rule):
    """The flux step as a function of (n, wa, wb): the coefficients of the
    psi in the span of the leading n fields of ``basis`` that minimizes
    wa (||d + div psi||^2 + ||psi - t0||^2) + wb ||psi - t1||^2, then
    ||d + div psi||^2 and ||psi - t||^2 per t of ``targets``, (t0, t1) or
    (t0,) with t1 = t0; d and each target signed atom terms.

    Everything is assembled once, so a step costs one n x n solve and a
    few contractions. The basis Grams and divergences come from
    :func:`_basis_grams`, kept per basis, box and rule; the other blocks
    and the norms from :func:`_flux_terms`. With separated forms, their
    program is kept per process, so a warm record integrates nothing and
    builds no program; its blocks equal :func:`quadrature.l2_gram`, and its
    norms ``norm_sq("L2", ...)`` of d + psi.div_field() and of psi - t,
    bit for bit."""
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
    dom, rd, u, ut = case.dom, case.kind == "RD", case.exact_u, u_tilde
    _require_vanishing(u, ut)
    coeffs, residual_sq, gap_sq = _flux_step(
        basis, _minus(case.f, ut) if rd else [(1.0, case.f, "value")],
        ([(1.0, ut, "grad")],), dom, rule)(len(basis), 1.0, 0.0)
    if rd:
        gamma, upper = None, residual_sq + gap_sq
        name, err = "err_h1_sq", terms_norm_sq(dom, rule, _minus(u, ut),
                                               kind="H1")
    else:
        cf = friedrichs_constant(dom).value
        gamma, upper = _young(cf ** 2 * residual_sq, gap_sq)
        name, err = "err_grad_sq", terms_norm_sq(dom, rule, _minus(u, ut),
                                                 "grad")
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
    norms = record_norms_sq(dom, rule, {
        "u_dist_sq": (_minus(phi_free, ut),),
        "err_u": (_minus(case.exact_u, ut),),
        "err_p": (_minus(case.exact_p, pt),)})
    basis = flux_basis(dom.spatial(), start_size + budget - 1)
    step = _flux_step(basis, _minus(case.f, phi_free),
                      ([(1.0, phi_free, "grad")], [(1.0, pt, "value")]),
                      dom, rule)
    gamma = gamma0
    reports: List[BoundReport] = []
    for n in range(start_size, start_size + budget):
        _, residual_sq, gap_sq, p_dist_sq = step(
            n, 1.0 + 1.0 / gamma, 1.0 + gamma)
        gamma, _ = _young(math.fsum([residual_sq, gap_sq]),
                          math.fsum([norms["u_dist_sq"], p_dist_sq]))
        reports.append(rd_nonconforming_report(
            gamma, "iii", residual_sq=residual_sq, gap_sq=gap_sq,
            p_dist_sq=p_dist_sq, **norms))
    return reports
