"""Young-parameter and flux-reconstruction optimization for the majorants."""
from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .elliptic import _require, rd_nonconforming_report
from .fields import BoxDomain, ScalarField, VectorField
from .manufactured import ApproxPair, ProblemCase
from .quadrature import (QuadratureRule, norm_sq, sampled_inner, samples,
                         weighted_gram)
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


def _solve_normal_equations(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve G c = rhs with the diagonal of G (modified in place) lifted by
    1e-12 (1 + tr G / n), so that a singular Gram matrix of a zero or
    dependent basis still yields a minimizer."""
    n = len(rhs)
    G[np.diag_indices(n)] += 1e-12 * (1.0 + np.trace(G) / n)
    return np.linalg.solve(G, rhs)


class BasisGram(NamedTuple):
    """The sample rows (see :func:`quadrature.samples`) of a flux basis and
    of its divergences on one box and rule, and their Gram blocks. Every
    array is read-only."""

    fields: Tuple[VectorField, ...]
    values: np.ndarray  # (n, N d)
    divs: np.ndarray  # (n, N)
    BB: np.ndarray  # <b_i, b_j>
    DD: np.ndarray  # <div b_i, div b_j>

    def leading(self, n: int) -> "BasisGram":
        return BasisGram(self.fields[:n], self.values[:n], self.divs[:n],
                         self.BB[:n, :n], self.DD[:n, :n])


# (box, rule) -> the BasisGram of the longest basis asked for there; holding
# the fields keeps their ids theirs. runner.run clears it on entry and on
# exit; at most eight entries stay, the oldest going first, so calls
# outside a run over many boxes do not accumulate samples.
BASIS_GRAMS: Dict[tuple, BasisGram] = {}
_MAX_BASIS_GRAMS = 8


def basis_gram(basis: Sequence[VectorField], dom: BoxDomain,
               rule: QuadratureRule) -> BasisGram:
    """The :class:`BasisGram` of ``basis`` on ``dom``, memoised per box and
    rule on the identities of the fields: a basis that begins the stored one
    reads its leading block, one that extends it adds only the rows of its
    new fields, and any other basis replaces it. Each field's value and
    divergence is evaluated once per entry, and each Gram entry computed
    once."""
    key = (dom, rule)
    old = BASIS_GRAMS.get(key)
    m = 0
    if old is not None and all(a is b for a, b in zip(old.fields, basis)):
        if len(basis) <= len(old.fields):
            return old.leading(len(basis))
        m = len(old.fields)
    new = basis[m:]
    values, wv = samples(new, dom, rule)
    divs, w = samples([b.div_field() for b in new], dom, rule)
    if m:
        values = np.concatenate([old.values, values])
        divs = np.concatenate([old.divs, divs])
    entry = BasisGram(tuple(basis), values, divs,
                      _grown(old.BB if m else None, values, m, wv),
                      _grown(old.DD if m else None, divs, m, w))
    for a in entry[1:]:
        a.setflags(write=False)
    BASIS_GRAMS.pop(key, None)
    if len(BASIS_GRAMS) >= _MAX_BASIS_GRAMS:
        del BASIS_GRAMS[next(iter(BASIS_GRAMS))]
    BASIS_GRAMS[key] = entry
    return entry


def _grown(G, rows: np.ndarray, m: int, w: np.ndarray) -> np.ndarray:
    """The Gram matrix of ``rows`` from ``G``, that of the first ``m``: each
    later row is contracted against itself and the rows before it, so every
    entry is computed once and mirrored."""
    n = len(rows)
    out = np.empty((n, n))
    if m:
        out[:m, :m] = G
    for i in range(m, n):
        out[i, :i + 1] = weighted_gram(rows[i:i + 1], rows[:i + 1], w)[0]
        out[:i, i] = out[i, :i]
    return out


def _combined(rows: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """The row of :func:`combine_vector_fields` of the fields of ``rows``:
    the same float operations as evaluating the combination."""
    out = float(coeffs[0]) * rows[0]
    for row, c in zip(rows[1:], coeffs[1:]):
        out = np.add(out, float(c) * row)
    return out


def _norm_sq(row: np.ndarray, w: np.ndarray) -> float:
    """``norm_sq("L2", ...)`` of a field from its sample row, bit for bit."""
    v = row if row.shape == w.shape else row.reshape(w.shape[0], -1)
    return sampled_inner(v, v, w)


def minimize_flux_majorant(case: ProblemCase, u_tilde: ScalarField,
                           basis: Sequence[VectorField], rule: QuadratureRule,
                           weights: Tuple[float, float] = (1.0, 1.0),
                           ) -> Tuple[VectorField, float, np.ndarray]:
    """Minimize w_r * ||residual(phi)||^2 + w_g * ||phi - grad u_tilde||^2
    over phi in span(basis) by solving the normal equations. Only phi comes
    from the Gram system: the majorant is norms of phi, not a quadratic form.

    The basis's samples and Gram blocks come from :func:`basis_gram`; grad
    u_tilde and the data are evaluated once, for the right-hand side and
    the norms, which take phi's values from the basis samples.

    Returns (optimal flux, majorant value, coefficient vector).
    """
    if not basis:
        raise ValueError("basis must be nonempty")
    w_r, w_g = (float(x) for x in weights)
    if not (math.isfinite(w_r) and math.isfinite(w_g) and w_r >= 0
            and w_g >= 0 and w_r + w_g > 0):
        raise ValueError("weights must be finite, nonnegative and not both "
                         f"zero, got {tuple(weights)!r}")
    dom = case.dom
    if case.kind == "RD":
        data = case.f - u_tilde
    elif case.kind == "Poisson":
        data = case.f
    else:
        raise ValueError(f"flux majorant supports RD and Poisson, got {case.kind}")
    gram = basis_gram(basis, dom, rule)
    grad, wv = samples([u_tilde.gradient_field()], dom, rule)
    data_row, w = samples([data], dom, rule)
    # minimize w_r ||data + div phi||^2 + w_g ||phi - grad u_tilde||^2
    coeffs = _solve_normal_equations(
        w_r * gram.DD + w_g * gram.BB,
        w_g * weighted_gram(grad, gram.values, wv)[0]
        - w_r * weighted_gram(data_row, gram.divs, w)[0])
    r = _norm_sq(np.add(data_row[0], _combined(gram.divs, coeffs)), w)
    g = _norm_sq(np.add(_combined(gram.values, coeffs), -1.0 * grad[0]), w)
    return combine_vector_fields(basis, coeffs), w_r * r + w_g * g, coeffs


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
    non-increasing upper bounds, each still a guaranteed bound: the report
    of :func:`elliptic.rd_nonconforming_bounds` (``which="iii"``) of the
    step's flux and gamma. As in :func:`minimize_flux_majorant`, the basis
    comes from :func:`basis_gram` and the fields of the right-hand sides
    are evaluated once; the norms of each step's flux are taken from the
    basis samples, and the norms that do not depend on the flux are
    computed once.
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
    size = start_size + budget - 1
    basis = list(make_flux_basis(dom.spatial(), size))
    # step k works on the leading (start_size + k) block of the basis's
    # Gram blocks, bordered by the three right-hand sides
    gram = basis_gram(basis, dom, rule)
    border, wv = samples([phi_free.gradient_field(), pt], dom, rule)
    data, w = samples([case.f - phi_free], dom, rule)
    RG, RP = weighted_gram(border, gram.values, wv)
    RD = weighted_gram(data, gram.divs, w)[0]

    gamma = gamma0
    reports: List[BoundReport] = []
    for step in range(budget):
        n = start_size + step
        wa = 1.0 + 1.0 / gamma
        wb = 1.0 + gamma
        BB, DD = gram.BB[:n, :n], gram.DD[:n, :n]
        # quadratic in psi: wa (||data + div psi||^2 + ||psi - grad phi||^2)
        #                   + wb ||psi - p_tilde||^2
        G = wa * (DD + BB) + wb * BB
        rhs = -wa * RD[:n] + wa * RG[:n] + wb * RP[:n]
        coeffs = _solve_normal_equations(G, rhs)
        psi = _combined(gram.values[:n], coeffs)
        residual_sq = _norm_sq(
            np.add(data[0], _combined(gram.divs[:n], coeffs)), w)
        gap_sq = _norm_sq(np.add(psi, -1.0 * border[0]), w)
        p_dist_sq = _norm_sq(np.add(psi, -1.0 * border[1]), w)
        gamma, _ = optimal_gamma(math.fsum([residual_sq, gap_sq]),
                                 math.fsum([u_dist_sq, p_dist_sq]))
        if not math.isfinite(gamma) or gamma <= 0.0:
            gamma = 1.0
        reports.append(rd_nonconforming_report(
            gamma, "iii", residual_sq=residual_sq, gap_sq=gap_sq,
            u_dist_sq=u_dist_sq, p_dist_sq=p_dist_sq, err_u=err_u,
            err_p=err_p))
    return reports
