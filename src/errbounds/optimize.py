"""Young-parameter and flux-reconstruction optimization for the majorants.

Both majorants take one flux step (:func:`_flux_step`), which assembles
everything once: the Grams of the nested flux basis are kept per box and
rule for the process (:func:`_basis_grams`, at most
:data:`manufactured.FLUX_BASIS_MEMO` of them), so a flux basis of any
size on a box, the leading fields of one list
(:func:`manufactured.flux_basis`), takes a block of the largest assembled
there; and the norms of every
step are contracted from one table of term-pair integrals per norm
(:class:`_TermTable`), equal to ``norm_sq`` of the step's flux bit for bit.
A step then costs one n x n solve and a few contractions.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import List, Sequence, Tuple

import numpy as np

from .elliptic import _require, friedrichs_constant, rd_nonconforming_report
from .fields import ScalarField, VectorField, combination
from .manufactured import FLUX_BASIS_MEMO, ApproxPair, ProblemCase
from .quadrature import (QuadratureRule, _fsum, axis_rules, l2_gram, norm_sq,
                         samples, term_grams, weighted_gram)
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


# (box, rule) -> [basis, divs, BB, DD]: the longest basis assembled there,
# its divergences and Grams, kept for the FLUX_BASIS_MEMO latest pairs
_basis_grams_memo = functools.lru_cache(maxsize=FLUX_BASIS_MEMO)(
    lambda dom, rule: [])


def _basis_grams(basis, dom, rule):
    """The divergences of ``basis``, BB = ``l2_gram(basis, basis)`` and DD,
    the same of the divergences, kept per box and rule
    (:func:`_basis_grams_memo`): the leading n of the kept divergences and
    the leading ``[:n, :n]`` blocks of the kept Grams, read-only, when
    ``basis`` is, field by field (``is``), the start of the kept basis,
    else assembled and kept. Each entry of an :func:`l2_gram` is its own
    pair's value, independent of the rest of either list, so a block equals
    the Gram of the prefix bit for bit."""
    kept, n = _basis_grams_memo(dom, rule), len(basis)
    if not (kept and len(kept[0]) >= n
            and all(map(operator.is_, basis, kept[0]))):
        divs = [b.div_field() for b in basis]
        grams = l2_gram(basis, basis, dom, rule), l2_gram(divs, divs, dom, rule)
        for G in grams:
            G.setflags(write=False)
        kept[:] = [list(basis), divs, *grams]
    return kept[1][:n], kept[2][:n, :n], kept[3][:n, :n]


class _TermTable:
    """The squared L2 norms of the combinations ``sum_j s_j operands[j]`` of
    the separated forms ``operands`` (each a :class:`fields.SeparatedSum`,
    or a tuple of them, one per component), for any scales ``s``, as
    :func:`quadrature.separated_inner` takes the norm of the combination's
    form. Built once per component: the union of the operands' term factor
    tuples, each raw term's slot in it, and the term-pair integrals H of
    the union (:func:`quadrature.term_grams`)."""

    def __init__(self, operands, axes):
        scalar = not isinstance(operands[0], tuple)
        self.parts = []
        for c in range(1 if scalar else len(operands[0])):
            sums = [op if scalar else op[c] for op in operands]
            # factors compare by identity, as the keys of merged() do
            union = {}
            slots = [union.setdefault(fs, len(union))
                     for s in sums for fs in s.factors]
            terms = list(union)
            self.parts.append((
                np.repeat(np.arange(len(sums)), [len(s.coefs) for s in sums]),
                np.array([a for s in sums for a in s.coefs], dtype=float),
                np.array(slots, dtype=np.intp),
                term_grams(terms, terms, axes)))

    def norm_sq(self, scales: np.ndarray) -> float:
        """``||sum_j scales[j] operands[j]||^2``: per component the merged
        coefficients, the raw terms' ``coef * scale`` added into their
        slots in raw-term order as :meth:`fields.SeparatedSum.merged` adds
        them, those that are zero dropped, and one correctly rounded sum of
        all components' ``m_k m_l H_kl``; 0 where rounding leaves it below
        zero. A scale of 0 adds only zeros, so it drops its operand."""
        addends = []
        for owner, coefs, slots, H in self.parts:
            m = np.bincount(slots, weights=coefs * scales[owner],
                            minlength=len(H))
            keep = np.flatnonzero(m)
            m = m[keep]
            addends.append((np.multiply.outer(m, m)
                            * H[keep[:, None], keep]).ravel())
        return max(_fsum(np.concatenate(addends)), 0.0)


def _flux_step(basis: Sequence[VectorField], d: ScalarField, targets, dom,
               rule):
    """The flux step as a function of (n, wa, wb): the psi in the span of
    the leading n fields of ``basis`` that minimizes
    wa (||d + div psi||^2 + ||psi - t0||^2) + wb ||psi - t1||^2, its
    coefficients, then ||d + div psi||^2 and ||psi - t||^2 per t of
    ``targets``, (t0, t1) or (t0,) with t1 = t0.

    Everything is assembled once, so a step costs one n x n solve and a
    few contractions. The basis Grams and divergences come from
    :func:`_basis_grams`, kept per box and rule. When d, the targets and
    the basis carry separated forms, the other blocks come from
    :func:`quadrature.l2_gram` and the norms of every step from one
    :class:`_TermTable` of the residual over (d, div b_1, ..., div b_N)
    and one of each gap over (b_1, ..., b_N, t): ``norm_sq("L2", ...)`` of
    d + psi.div_field() and of psi - t, bit for bit. Otherwise d, the
    targets and the basis are sampled once and the blocks and norms taken
    from the rows."""
    targets = list(targets)
    divs, BB, DD = _basis_grams(basis, dom, rule)
    fd = d.separated()
    ft, fb, fdiv = ([f.separated() for f in fs]
                    for fs in (targets, basis, divs))
    if all(f is not None for f in (fd, *ft, *fb, *fdiv)):
        RT = l2_gram(targets, basis, dom, rule)
        RD = l2_gram([d], divs, dom, rule)[0]
        N, axes = len(basis), axis_rules(dom, rule)
        residual = _TermTable([fd, *fdiv], axes)
        gaps = [_TermTable([*fb, t], axes) for t in ft]

        def norms(psi, coeffs):
            # the operands' scales: 1 for d, -1 for t, the coefficients for
            # the leading n basis fields and 0 for the rest
            rest = np.zeros(N - len(coeffs))
            on_residual = np.concatenate(([1.0], coeffs, rest))
            on_gap = np.concatenate((coeffs, rest, [-1.0]))
            return [residual.norm_sq(on_residual),
                    *(gap.norm_sq(on_gap) for gap in gaps)]
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
