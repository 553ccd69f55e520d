"""Young-parameter and flux-reconstruction optimization for the majorants.

Both majorants take one flux step (:func:`_flux_step`), which assembles
everything once. Per box and rule the process keeps, for at most
:data:`manufactured.FLUX_BASIS_MEMO` pairs, the largest flux basis
assembled there: its Grams (:func:`_basis_grams`) and the basis side of
the step's term tables (:class:`_BasisTerms`), so a flux basis of any size
on a box, the leading fields of one list (:func:`manufactured.flux_basis`),
takes blocks of them. A record joins only its own d and targets to the
kept tables: it integrates the terms they lack, and gathers the blocks
that pair them with the basis, equal to ``l2_gram`` bit for bit, and the
norms of every step, equal to ``norm_sq`` of the step's flux bit for bit.
A step then costs one n x n solve and a few contractions.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import List, Sequence, Tuple

import numpy as np

from .elliptic import _require, friedrichs_constant, rd_nonconforming_report
from .fields import ScalarField, VectorField, combination
from .manufactured import FLUX_BASIS_MEMO, ApproxPair, ProblemCase
from .quadrature import (QuadratureRule, _check_fields, _entry_sums, _fsum,
                         _merged, _norm_addends, axis_rules, l2_gram, norm_sq,
                         samples, term_grams, weighted_gram)
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


# (box, rule) -> [basis, divs, BB, DD, terms]: the longest basis assembled
# there, its divergences and Grams, and its term tables (_basis_terms), kept
# for the FLUX_BASIS_MEMO latest pairs
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
        kept[:] = [list(basis), divs, *grams, None]
    return kept[1][:n], kept[2][:n, :n], kept[3][:n, :n]


def _basis_terms(dom, rule):
    """The term tables (:class:`_BasisTerms`) of the divergences and of the
    fields of the basis kept on the box and rule (:func:`_basis_grams`), of
    its leading fields that carry forms with their divergences; built at
    the first call after the basis was kept, empty where the first carries
    none."""
    kept = _basis_grams_memo(dom, rule)
    if kept[4] is None:
        forms = list(itertools.takewhile(
            lambda pair: None not in pair,
            ((b.separated(), v.separated()) for b, v in zip(*kept[:2]))))
        axes = axis_rules(dom, rule)
        kept[4] = forms and [_BasisTerms([v for _, v in forms], axes),
                             _BasisTerms([b for b, _ in forms], axes)]
    return kept[4]


class _BasisTerms:
    """The basis side of the step's term tables, for the separated forms
    ``forms`` of the kept basis's divergences (each a
    :class:`fields.SeparatedSum`) or fields (each a tuple of them, one per
    component). Per component: the union of their term factor tuples, each
    raw term's owner (its form), slot in it and coefficient, each form's
    merged (slot, coefficient) pairs (:func:`quadrature._merged`) and the
    term-pair integrals H of the union (:func:`quadrature.term_grams`). A
    record adds its own forms (:meth:`join`)."""

    def __init__(self, forms, axes):
        scalar = not isinstance(forms[0], tuple)
        self.size, self.axes, self.parts = len(forms), axes, []
        for c in range(1 if scalar else len(forms[0])):
            sums = [f if scalar else f[c] for f in forms]
            # factors compare by identity, as the keys of merged() do
            union = {}
            raw = [_raw(s, lambda fs: union.setdefault(fs, len(union)))
                   for s in sums]
            merged = [_merged(*r, len(union)) for r in raw]
            terms = list(union)
            self.parts.append((
                union, terms,
                np.repeat(np.arange(len(sums)), [len(s.coefs) for s in sums]),
                *map(np.concatenate, zip(*raw)),
                *map(np.concatenate, zip(*merged)),
                np.cumsum([0, *(len(k) for k, _ in merged)]),
                term_grams(terms, terms, axes)))

    def join(self, forms, n: int, first: bool):
        """A record's forms (d, or the targets) joined to the kept ones:
        the block ``G[j, i] = <forms[j], kept form i>`` for i < n, equal to
        ``l2_gram`` of the fields bit for bit (the addends of
        :func:`quadrature._separated_gram`, H gathered, and correctly
        rounded sums of them do not depend on their order), and per form
        the parts of its :func:`_norm_sq`: its raw terms before the kept
        ones if ``first``, else after, its owner the last scale. Only the
        terms that the union lacks are integrated, against the union and
        each other; the block of the union with them is their transpose, as
        the axis tables are exactly symmetric."""
        scalar = not isinstance(forms[0], tuple)
        blocks, tables = [], [[] for _ in forms]
        for c, (union, terms, owner, slots, coefs, mslots, mcoefs, ends,
                H) in enumerate(self.parts):
            sums = [f if scalar else f[c] for f in forms]
            size, new = len(union), {}
            for s in sums:
                for fs in s.factors:
                    if fs not in union:
                        new.setdefault(fs, size + len(new))
            if new:
                added = term_grams(list(new), [*terms, *new], self.axes)
                H, kept = np.empty((len(added[0]),) * 2), H
                H[:size, :size] = kept
                H[size:] = added
                H[:size, size:] = added[:, :size].T
            slot = {**union, **new}.__getitem__
            raw = [_raw(s, slot) for s in sums]
            merged = [_merged(*r, len(H)) for r in raw]
            rows, m = map(np.concatenate, zip(*merged))
            blocks.append((np.multiply.outer(m, mcoefs[:ends[n]])
                           * H[rows[:, None], mslots[:ends[n]]],
                           [len(k) for k, _ in merged], np.diff(ends[:n + 1])))
            for (own_slots, own_coefs), parts in zip(raw, tables):
                own = np.full(len(own_slots), self.size), own_slots, own_coefs
                pair = ((own, (owner, slots, coefs)) if first else
                        ((owner, slots, coefs), own))
                parts.append((*map(np.concatenate, zip(*pair)), H))
        return _entry_sums(blocks, len(forms), n), tables


def _raw(s, slot):
    """The raw terms of the sum ``s``: the slots ``slot`` gives their
    factor tuples, and their coefficients."""
    return (np.array([slot(fs) for fs in s.factors], dtype=np.intp),
            np.array(s.coefs, dtype=float))


def _norm_sq(parts, scales: np.ndarray) -> float:
    """``||sum_j scales[j] operands[j]||^2`` of the separated forms whose
    raw terms ``parts`` holds, per component (owner, slot, coefficient) and
    the term-pair integrals H of the slots, as
    :func:`quadrature.separated_inner` takes the norm of the combination's
    form: per component the addends of the merged terms of the raw terms'
    ``coef * scale`` (:func:`quadrature._norm_addends`), and one correctly
    rounded sum of all components' ``m_k m_l H_kl``; 0 where rounding
    leaves it below zero. A scale of 0 adds only zeros, so it drops its
    operand."""
    return max(_fsum(np.concatenate([
        _norm_addends(slots, coefs * scales[owner], H)
        for owner, slots, coefs, H in parts])), 0.0)


def _flux_terms(basis, divs, d, targets, dom, rule):
    """RD = ``l2_gram([d], divs)[0]``, RT = ``l2_gram(targets, basis)`` and
    the step's norms as a function of its coefficients c: ||d + sum_i c_i
    div b_i||^2 and ||sum_i c_i b_i - t||^2 per t of ``targets``. d and the
    targets are checked against the box and the basis as ``l2_gram``
    checks them. When all carry separated forms, everything comes from the
    term tables of the kept basis (:func:`_basis_terms`) joined to d and
    the targets (:meth:`_BasisTerms.join`); otherwise d, the targets and
    the basis are sampled once and the blocks and norms taken from the
    rows."""
    # in l2_gram's order; the basis and its divergences were checked as
    # they were kept
    _check_fields([*targets, basis[0]], dom)
    _check_fields([d, divs[0]], dom)
    N, fd, ft = len(basis), d.separated(), [t.separated() for t in targets]
    terms = (_basis_terms(dom, rule)
             if fd is not None and all(f is not None for f in ft) else [])
    if terms and terms[0].size >= N:
        on_divs, on_fields = terms
        RD, (residual,) = on_divs.join([fd], N, first=True)
        RT, gaps = on_fields.join(ft, N, first=False)
        # the scales of the kept forms: the coefficients for the leading n,
        # 0 for the rest; then 1 for d and -1 for a target
        rest = on_fields.size

        def norms(coeffs):
            scales = np.concatenate((coeffs, np.zeros(rest - len(coeffs)),
                                     [1.0]))
            residual_sq = _norm_sq(residual, scales)
            scales[-1] = -1.0
            return [residual_sq, *(_norm_sq(gap, scales) for gap in gaps)]

        return RD[0], RT, norms
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
    :func:`_basis_grams`, kept per box and rule; the other blocks and the
    norms from :func:`_flux_terms`. With separated forms, the term tables
    of the basis are kept beside its Grams, so a record integrates only
    the terms of its own d and targets that the tables lack; its blocks
    equal :func:`quadrature.l2_gram`, and its norms ``norm_sq("L2", ...)``
    of d + psi.div_field() and of psi - t, bit for bit."""
    targets = list(targets)
    divs, BB, DD = _basis_grams(basis, dom, rule)
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
        _, residual_sq, gap_sq, p_dist_sq = step(
            n, 1.0 + 1.0 / gamma, 1.0 + gamma)
        gamma, _ = _young(math.fsum([residual_sq, gap_sq]),
                          math.fsum([u_dist_sq, p_dist_sq]))
        reports.append(rd_nonconforming_report(
            gamma, "iii", residual_sq=residual_sq, gap_sq=gap_sq,
            u_dist_sq=u_dist_sq, p_dist_sq=p_dist_sq, err_u=err_u,
            err_p=err_p))
    return reports
