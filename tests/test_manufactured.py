import functools
import gc
import itertools
import json
import math
import operator
from unittest import mock

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from errbounds import (
    KINDS,
    PARABOLIC_KINDS,
    BoxDomain,
    CapabilityError,
    ConformityError,
    QuadratureRule,
    constant_scalar,
    default_suite_config,
    flux_basis,
    free_fields,
    make_case,
    norm_sq,
    parse_config,
    perturb,
    rd_equality,
    rd_nonconforming_bounds,
    run,
    scalar_field,
    vector_field,
    zero_scalar,
    zero_vector,
)
from errbounds import manufactured
from errbounds.fields import (Factor, SeparatedSum, _Field, form_values,
                             grid_axes)
from errbounds.manufactured import (_gradient, _modes, _random_trig, _rotgrad,
                                    _scalar, directions)
from errbounds.quadrature import space_nodes, spacetime_nodes
from test_fields import _capabilities, without_forms

RULE = QuadratureRule()
DOM1 = BoxDomain((0.0,), (1.0,))
DOM2 = BoxDomain((0.0, 0.0), (1.0, 1.0))
TDOM = BoxDomain((0.0,), (1.0,), time_horizon=1.0)

LEVELS = ("very_conforming", "conforming_mixed", "semi_conforming_primal",
          "semi_conforming_dual", "non_conforming")


def test_make_case_source_values():
    X = np.linspace(0.1, 0.9, 5)[:, None]
    rd = make_case("RD", DOM1, "sin(pi*x)")
    assert rd.f.value(X) == pytest.approx(
        (math.pi ** 2 + 1) * np.sin(np.pi * X[:, 0]))
    po = make_case("Poisson", DOM2, "sin(pi*x)*sin(pi*y)")
    X2 = np.array([[0.3, 0.7], [0.5, 0.5]])
    assert po.f.value(X2) == pytest.approx(
        2 * math.pi ** 2 * np.sin(np.pi * X2[:, 0]) * np.sin(np.pi * X2[:, 1]))
    heat = make_case("Heat", TDOM, "exp(-t)*sin(pi*x)")
    t = np.array([0.0, 0.5])
    Xt = np.array([[0.5], [0.25]])
    assert heat.f.value(t, Xt) == pytest.approx(
        (math.pi ** 2 - 1) * np.exp(-t) * np.sin(np.pi * Xt[:, 0]))


def test_make_case_pde_residual_at_random_points():
    rng = np.random.default_rng(0)
    trd = make_case("TRD", TDOM, "exp(-t)*sin(pi*x)*(1+t)")
    t = rng.uniform(0, 1, 20)
    X = rng.uniform(0.01, 0.99, (20, 1))
    u = trd.exact_u
    resid = u.dt(t, X) - u.laplacian(t, X) + u.value(t, X) - trd.f.value(t, X)
    assert np.max(np.abs(resid)) < 1e-12
    # the flux is the gradient of the exact solution
    assert trd.exact_p.value(t, X) == pytest.approx(u.grad(t, X))


@pytest.mark.parametrize("kind, dom, expr", [
    ("RD", DOM2, "sin(pi*x)*sin(2*pi*y)"),
    ("Poisson", DOM1, "sin(pi*x) + sin(2*pi*x)/4"),
    ("TRD", TDOM, "exp(-t)*sin(pi*x)"),
    ("Heat", TDOM, "(1+t)*sin(pi*x)"),
])
def test_exact_flux_is_the_solutions_gradient(kind, dom, expr):
    case = make_case(kind, dom, expr)
    args = (spacetime_nodes(dom, RULE)[:2] if dom.is_parabolic
            else space_nodes(dom, RULE)[:1])
    u, p = case.exact_u, case.exact_p
    assert np.array_equal(p.value(*args), u.grad(*args))
    assert np.array_equal(p.div(*args), u.laplacian(*args))
    # the estimators only evaluate the source
    assert not (case.f.has_grad or case.f.has_laplacian or case.f.has_dt)
    assert not case.f.vanishes_on_boundary


def test_make_case_validation():
    with pytest.raises(ValueError):
        make_case("Wave", DOM1, "sin(pi*x)")
    with pytest.raises(ValueError):
        make_case("Heat", DOM1, "sin(pi*x)")  # missing time horizon
    with pytest.raises(ValueError):
        make_case("RD", TDOM, "sin(pi*x)")  # unwanted time horizon
    with pytest.raises(ConformityError):
        make_case("RD", DOM1, "cos(pi*x)")  # boundary violation


def test_make_case_initial_data():
    heat = make_case("Heat", TDOM, "(1+t)*sin(pi*x)")
    X = np.array([[0.5]])
    assert heat.u0.value(X) == pytest.approx([1.0])
    rd = make_case("RD", DOM1, "sin(pi*x)")
    assert rd.u0 is None


def test_perturb_determinism_bitwise():
    case = make_case("RD", DOM1, "sin(pi*x)")
    X = np.linspace(0.1, 0.9, 9)[:, None]
    a = perturb(case, "conforming_mixed", 0.1, 42)
    b = perturb(case, "conforming_mixed", 0.1, 42)
    assert (a.u_tilde.value(X) == b.u_tilde.value(X)).all()
    assert (a.p_tilde.value(X) == b.p_tilde.value(X)).all()
    c = perturb(case, "conforming_mixed", 0.1, 43)
    assert not np.allclose(a.u_tilde.value(X), c.u_tilde.value(X))


def test_perturb_scale_linearity():
    # the perturbation is linear in the scale, so equality residual terms
    # scale exactly quadratically
    case = make_case("RD", DOM1, "sin(pi*x)")
    r1 = rd_equality(case, perturb(case, "conforming_mixed", 0.05, 7), RULE)
    r2 = rd_equality(case, perturb(case, "conforming_mixed", 0.10, 7), RULE)
    assert r2.rhs_total / r1.rhs_total == pytest.approx(4.0, rel=1e-6)


def test_perturb_zero_scale_is_exact():
    case = make_case("RD", DOM1, "sin(pi*x)")
    ap = perturb(case, "conforming_mixed", 0.0, 3)
    rep = rd_equality(case, ap, RULE)
    assert rep.lhs_total == pytest.approx(0.0, abs=1e-20)


@pytest.mark.parametrize("level", LEVELS)
def test_perturb_level_contracts(level):
    case = make_case("RD", DOM1, "sin(pi*x)")
    ap = perturb(case, level, 0.2, 5)
    assert ap.level == level
    u_conforming = level in ("very_conforming", "conforming_mixed",
                             "semi_conforming_primal")
    assert ap.u_tilde.vanishes_on_boundary == u_conforming
    assert ap.u_tilde.has_grad == u_conforming
    p_div = level in ("very_conforming", "conforming_mixed",
                      "semi_conforming_dual")
    assert ap.p_tilde.has_div == p_div
    assert ap.u_tilde.has_laplacian == (level == "very_conforming")
    # restriction applies even at zero scale
    ap0 = perturb(case, level, 0.0, 5)
    assert ap0.p_tilde.has_div == p_div


def test_perturb_nonconforming_really_violates_boundary():
    case = make_case("RD", DOM1, "sin(pi*x)")
    ap = perturb(case, "non_conforming", 0.5, 1)
    vals = ap.u_tilde.value(np.array([[0.0], [1.0]]))
    assert np.max(np.abs(vals)) > 1e-3


def test_perturb_validation():
    case = make_case("RD", DOM1, "sin(pi*x)")
    with pytest.raises(ValueError):
        perturb(case, "sorta_conforming", 0.1, 0)
    with pytest.raises(ValueError):
        perturb(case, "conforming_mixed", -0.1, 0)
    # nan and inf pass a sign check; they would give coefficients such as
    # (1.0, nan, nan) or (1.0, inf, -inf)
    for scale in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"finite and nonnegative, got "
                                             f"{scale}"):
            perturb(case, "conforming_mixed", scale, 0)


def test_free_fields_strategies():
    case = make_case("RD", DOM1, "sin(pi*x)")
    X = np.array([[0.5]])
    phi, flux = free_fields(case, "exact")
    assert phi.value(X) == pytest.approx(case.exact_u.value(X))
    phi_c, _ = free_fields(case, "coarse")
    assert phi_c.value(X) == pytest.approx(0.9 * case.exact_u.value(X))
    phi_b, flux_b = free_fields(case, "basis", index=1)
    assert phi_b.vanishes_on_boundary
    assert flux_b.has_div
    with pytest.raises(ValueError):
        free_fields(case, "magic")
    with pytest.raises(ValueError, match="index must be nonnegative, got -1"):
        free_fields(case, "basis", index=-1)


@pytest.mark.parametrize("kind, dom, solution", [
    ("RD", DOM2, "sin(pi*x)*sin(pi*y)"),
    ("TRD", TDOM, "exp(-t)*sin(pi*x)")], ids=["elliptic", "parabolic"])
def test_free_fields_built_once_per_case(kind, dom, solution):
    # equal arguments give the same fields, so their forms are built once
    case = make_case(kind, dom, solution)
    for strategy, index in (("exact", 0), ("coarse", 0), ("basis", 2)):
        pair = free_fields(case, strategy, index)
        for again in (free_fields(case, strategy, index=index),
                      free_fields(case, strategy=strategy, index=index)):
            assert again[0] is pair[0] and again[1] is pair[1], strategy
    assert free_fields(case, "basis", 1)[0] is not free_fields(
        case, "basis", 2)[0]
    assert free_fields(case, "coarse")[0] is not free_fields(
        make_case(kind, dom, solution, f_factor=2.0), "coarse")[0]


def _hexed(report):
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in report.to_record().items()}


def test_kept_free_fields_give_the_records_of_fresh_ones_bitwise():
    # the free fields of the bounds built afresh for each record, as they
    # were before they were kept, give the same records bit for bit
    case = make_case("RD", DOM2, "sin(pi*x)*sin(pi*y)")
    mode = _modes(2, 3)[2]
    basis = manufactured._trig_sum([1.0], [mode], [("sin", "sin")],
                                   [np.array([1.0])], DOM2)
    afresh = {"coarse": lambda: (0.9 * case.exact_u, 0.9 * case.exact_p),
              "basis": lambda: (_scalar(basis, DOM2, True),
                                _gradient(basis, DOM2))}
    for level in LEVELS:
        ap = perturb(case, level, 0.3, 2)
        for strategy, fresh in afresh.items():
            kept = free_fields(case, strategy, 2 if strategy == "basis" else 0)
            for which in ("i", "ii", "iii"):
                assert _hexed(rd_nonconforming_bounds(
                    case, ap, *kept, gamma=2.0, which=which, rule=RULE)) == \
                    _hexed(rd_nonconforming_bounds(
                        case, ap, *fresh(), gamma=2.0, which=which,
                        rule=RULE)), (level, strategy, which)


def test_flux_basis_nested_and_div_conforming():
    b4 = flux_basis(DOM1, 4)
    b2 = flux_basis(DOM1, 2)
    assert len(b4) == 4
    X = np.linspace(0.1, 0.9, 5)[:, None]
    for small, big in zip(b2, b4):
        assert (small.value(X) == big.value(X)).all()
    for b in b4:
        assert b.has_div
    with pytest.raises(ValueError):
        flux_basis(DOM1, 0)


def test_modes_of_a_shorter_basis_begin_a_longer_one():
    # ordered by sum, then lexicographically: 2-D from 46 modes and 3-D
    # from 57 on once drew from too small a box of candidates
    for dim in (1, 2, 3):
        longest = _modes(dim, 120)
        assert longest == sorted(set(longest), key=lambda m: (sum(m), m))
        assert all(min(m) >= 1 for m in longest)
        for n in range(1, 120):
            assert _modes(dim, n) == longest[:n]
    assert _modes(2, 4) == [(1, 1), (1, 2), (2, 1), (1, 3)]


def test_perturbations_normalized():
    case = make_case("RD", DOM1, "sin(pi*x)")
    ap = perturb(case, "conforming_mixed", 1.0, 11)
    diff = ap.u_tilde - case.exact_u
    assert norm_sq("L2", diff, DOM1, RULE) == pytest.approx(1.0, rel=1e-10)


def _clear_memos():
    make_case.cache_clear()
    manufactured._free_fields.cache_clear()
    directions.cache_clear()
    manufactured._flux_fields.cache_clear()


def _majorant_config(solution, sizes):
    box = {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
    return parse_config(json.dumps({
        "cases": [{"kind": "RD", "solution": solution, **box}],
        "approximations": [
            {"level": "conforming_mixed", "epsilon": 0.1, "seed": 3}],
        "estimators": [{"name": "optimize_majorant", "basis_size": n}
                       for n in sizes]}))


def test_directions_built_once_per_box_and_seed_per_process(monkeypatch):
    # the suite's 4 cases share 2 boxes and its 30 approximations 10 seeds;
    # a second run finds every case, direction set and basis field built
    builds, sums = [], []
    build = manufactured._build_directions
    trig_sum = manufactured._trig_sum

    def counting(dom, seed):
        builds.append((dom, seed))
        return build(dom, seed)

    def counting_sums(*args):
        sums.append(trig_sum(*args))
        return sums[-1]

    monkeypatch.setattr(manufactured, "_build_directions", counting)
    monkeypatch.setattr(manufactured, "_trig_sum", counting_sums)
    suite = default_suite_config()
    majorant = _majorant_config("sin(pi*x)*sin(pi*y)", [9])
    _clear_memos()
    run(suite)
    assert len(builds) == len(set(builds)) == 20
    assert {seed for _, seed in builds} == set(range(10))
    run(majorant)
    assert len(builds) == 21 and len(sums) == 20 * 3 + 4 + 9
    assert make_case.cache_info().misses == 5
    del builds[:], sums[:]
    for config in (suite, majorant):
        assert run(config).exit_code == 0
    assert builds == [] and sums == []
    assert make_case.cache_info().misses == 5


def test_memos_stay_within_their_bounds():
    # more keys than each memo holds: the latest stay, the oldest go
    _clear_memos()
    for k in range(manufactured.CASE_MEMO + 3):
        free_fields(make_case("RD", DOM1, "sin(pi*x)", f_factor=1.0 + k / 64),
                    "coarse")
    for seed in range(manufactured.DIRECTIONS_MEMO + 3):
        directions(DOM1, seed)
    for k in range(manufactured.FLUX_BASIS_MEMO + 3):
        flux_basis(BoxDomain((0.0,), (1.0 + k,)), 2)
    for memo, bound in ((make_case, manufactured.CASE_MEMO),
                        (manufactured._free_fields, manufactured.CASE_MEMO),
                        (directions, manufactured.DIRECTIONS_MEMO),
                        (manufactured._flux_fields,
                         manufactured.FLUX_BASIS_MEMO)):
        info = memo.cache_info()
        assert info.maxsize == bound and info.currsize == bound
        assert info.misses == bound + 3
    newest = 1.0 + (manufactured.CASE_MEMO + 2) / 64
    assert make_case("RD", DOM1, "sin(pi*x)", f_factor=newest) is \
        make_case("RD", DOM1, "sin(pi*x)", f_factor=newest)
    assert make_case.cache_info().misses == manufactured.CASE_MEMO + 3
    _clear_memos()


def test_make_case_keys_tell_close_cases_apart():
    # 2*x == 2.0*x before sympy 1.13, so the key tags the expression as the
    # symbolic memos do; a rescaled source is a case of its own
    x = sp.Symbol("x")
    X = space_nodes(DOM1, RULE)[0]
    cases = [make_case("RD", DOM1, 2 * sp.sin(sp.pi * x)),
             make_case("RD", DOM1, 2.0 * sp.sin(sp.pi * x)),
             make_case("RD", DOM1, "sin(pi*x)", f_factor=1.0),
             make_case("RD", DOM1, "sin(pi*x)", f_factor=1.01)]
    assert len({id(c) for c in cases}) == 4
    assert cases[0] is make_case("RD", DOM1, 2 * sp.sin(sp.pi * x))
    assert cases[1] is make_case("RD", DOM1, 2.0 * sp.sin(sp.pi * x))
    assert cases[3] is make_case("RD", DOM1, "sin(pi*x)", f_factor=1.01)
    assert cases[1].f.value(X) == pytest.approx(cases[0].f.value(X),
                                                rel=1e-15)
    assert cases[3].f.value(X) == pytest.approx(1.01 * cases[2].f.value(X),
                                                rel=1e-15)


def test_factors_memoise_each_axis_once():
    # norms and Grams take a factor's values on the 1-D nodes of an axis,
    # evaluators on the np.ix_ views of the same nodes: one memo entry
    # serves both, here where the case's fields do not separate
    run(_majorant_config("sin(pi*x)*sin(pi*y)*exp(x*y)", (4, 16)))
    factors = [o for o in gc.get_objects() if isinstance(o, Factor)]
    assert any(f._memo for f in factors)
    for f in factors:
        arrays = [hit[0] for key, hit in f._memo.items()
                  if not isinstance(key, tuple)]
        assert all(a.ndim == 1 and a.base is None for a in arrays)
        assert len({id(a) for a in arrays}) == len(arrays)


def test_nonconforming_direction_normalised_on_first_use(monkeypatch):
    calls = []
    normalized = manufactured._normalized

    def counting(s, dom):
        calls.append(s)
        return normalized(s, dom)

    monkeypatch.setattr(manufactured, "_normalized", counting)
    # the suite's 20 direction sets normalise the conforming sum and the
    # flux noise; no level of it asks for the non-conforming sum, and a
    # second run normalises nothing
    directions.cache_clear()
    run(default_suite_config())
    assert len(calls) == 40
    del calls[:]
    run(default_suite_config())
    assert calls == []
    case = make_case("RD", DOM1, "sin(pi*x)")
    directions.cache_clear()
    try:
        pairs = [perturb(case, level, 1.0, 5) for level in
                 ("conforming_mixed", "semi_conforming_dual",
                  "non_conforming")]
        assert len(calls) == 3
        for ap in pairs:
            diff = ap.u_tilde - case.exact_u
            assert norm_sq("L2", diff, DOM1, RULE) == pytest.approx(
                1.0, rel=1e-10)
    finally:
        directions.cache_clear()


@pytest.mark.parametrize("dom", [DOM2, TDOM], ids=["elliptic", "parabolic"])
def test_normalized_copy_leaves_the_sum_and_its_views(dom):
    # a view keeps the coefficients of its sum in its evaluators and in its
    # form alike, so both of its norm paths agree after the sum is scaled
    ts = _random_trig(dom, np.random.default_rng(3), nonconforming=True)
    before = list(ts.coefs)
    view = _scalar(ts, dom)
    unit = manufactured._normalized(ts, dom)
    assert list(ts.coefs) == before and unit.coefs is not ts.coefs
    assert unit.factors is ts.factors
    with pytest.raises(TypeError):
        ts.coefs[0] = 1.0
    separated = norm_sq("L2", view, dom, RULE)
    assert separated == pytest.approx(
        norm_sq("L2", without_forms(view), dom, RULE), rel=1e-13)
    assert norm_sq("L2", _scalar(unit, dom), dom, RULE) == pytest.approx(
        1.0, rel=1e-10)
    assert separated != pytest.approx(1.0, rel=1e-3)


def test_perturb_reuses_directions_bitwise():
    # RD and Poisson on one box draw one set of directions, and a pair
    # built from it equals one built afresh, bit for bit
    X = space_nodes(DOM1, RULE)[0]
    grid = [(case, scale) for case in (make_case("RD", DOM1, "sin(pi*x)"),
                                       make_case("Poisson", DOM1, "sin(pi*x)"))
            for scale in (0.1, 1.0)]
    directions.cache_clear()
    try:
        pairs = [perturb(case, "conforming_mixed", scale, 4)
                 for case, scale in grid]
        assert directions.cache_info().misses == 1
        for (case, scale), cached in zip(grid, pairs):
            directions.cache_clear()
            again = perturb(case, "conforming_mixed", scale, 4)
            assert np.array_equal(cached.u_tilde.value(X), again.u_tilde.value(X))
            assert np.array_equal(cached.p_tilde.value(X), again.p_tilde.value(X))
    finally:
        directions.cache_clear()


def test_time_factor_memo_is_bounded():
    # only the axes of a cached node set are memoised: repeated grid
    # evaluations and the column path of an at_time slice add nothing
    case = make_case("Heat", TDOM, "(1+t)*sin(pi*x)")
    args = spacetime_nodes(TDOM, RULE)[:2]
    X = space_nodes(TDOM, RULE)[0]
    directions.cache_clear()
    try:
        ap = perturb(case, "very_conforming", 0.1, 2)
        ts = directions(TDOM, 2).conforming.separated()
        ap.u_tilde.dt(*args)
        ap.p_tilde.value(*args)
        # the factors of the sum's terms and of their derivatives
        factors = {f for fs in ts.factors for f in fs}
        factors |= {g for f in factors for _, g in f.derivative()}
        sizes = {f: len(f._memo) for f in factors}
        time_axis = grid_axes(args)[0]
        taus = {fs[0] for fs in ts.factors}
        for tau in taus | {g for f in taus for _, g in f.derivative()}:
            assert tau._memo[id(time_axis.base)][0] is time_axis.base
        sliced = ap.u_tilde.at_time(0.5)
        first = sliced.value(X)
        for _ in range(50):
            assert np.array_equal(sliced.value(X), first)
            sliced.grad(X)
            ap.u_tilde.value(*args)
        assert {f: len(f._memo) for f in factors} == sizes
    finally:
        directions.cache_clear()


# Grid path: on a cached node set every primitive is evaluated on the 1-D
# axes and broadcast to the grid (sum factorisation for the trig sums); on
# any other arrays (here copies of the same nodes) on the columns. Both must
# agree to the last bit.
TENSOR_DOMS = [
    BoxDomain((0.0,), (1.0,)),
    BoxDomain((-1.0, 0.5), (0.5, 3.0)),
    BoxDomain((0.0, 0.0, 0.0), (1.0, 2.0, 0.5)),
    BoxDomain((0.25, -2.0, 1.0), (0.75, -1.0, 4.0)),
    BoxDomain((0.0,), (1.0,), time_horizon=0.7),
    BoxDomain((-1.0, 0.5), (0.5, 3.0), time_horizon=2.0),
]
TENSOR_RULE = QuadratureRule(space_order=3, time_order=3)


def _evaluators(ts, dom):
    u, p = _scalar(ts, dom), _gradient(ts, dom)
    evs = {"value": u.value, "grad": u.grad, "laplacian": u.laplacian}
    if dom.is_parabolic:
        evs.update(dt=u.dt, dt_grad=p.dt)
    if dom.dim == 2:
        rot = _rotgrad(ts, dom)
        evs["rotgrad"] = rot.value
        if rot.has_dt:
            evs["rotgrad_dt"] = rot.dt
    return evs


@functools.lru_cache(maxsize=None)
def _lambdified_fields(dom):
    """Name -> field: the fields of ``make_case`` for the two kinds of the
    domain, ``sin(pi*x)`` (constant along every other axis), ``x*(1 - x)``
    (constant Laplacian) and a vector field with a constant component."""
    factors = []
    for i, (v, lo, hi) in enumerate(zip("xyz", dom.lower, dom.upper)):
        a, b = sp.Rational(repr(lo)), sp.Rational(repr(hi))
        factors.append(f"sin({i + 1}*pi*({v} - ({a}))/({b - a}))")
    td = dom.is_parabolic
    fields = {}
    for kind in (("TRD", "Heat") if td else ("RD", "Poisson")):
        prefix = ("exp(-t)*" if kind == "TRD" else "(1 + t)*") if td else ""
        case = make_case(kind, dom, prefix + "*".join(factors))
        fields.update({f"{kind}.u": case.exact_u, f"{kind}.p": case.exact_p,
                       f"{kind}.f": case.f})
        if td:
            fields[f"{kind}.u0"] = case.u0
    fields["sin(pi*x)"] = scalar_field("sin(pi*x)", dom)
    fields["x*(1 - x)"] = scalar_field("x*(1 - x)", dom)
    comps = ["exp(-t)*sin(pi*x)" if td else "sin(pi*x)", "x*(1 - x) + y",
             "2"][:dom.dim]
    fields["vector"] = vector_field(comps, dom)
    return fields


def _field_evaluators(field):
    return {name: getattr(field, name) for name in
            ("value", "grad", "laplacian", "dt", "div")
            if name == "value" or getattr(field, f"has_{name}", False)}


@pytest.mark.parametrize("dom", TENSOR_DOMS, ids=repr)
@pytest.mark.parametrize("seed", [0, 7])
def test_tensor_path_matches_pointwise_bitwise(dom, seed):
    if dom.is_parabolic:
        args = spacetime_nodes(dom, TENSOR_RULE)[:2]
    else:
        args = space_nodes(dom, TENSOR_RULE)[:1]
    copies = tuple(a.copy() for a in args)
    assert grid_axes(args) is not None
    assert grid_axes(copies) is None
    if dom.is_parabolic:
        assert grid_axes((args[0], copies[1])) is None
        assert grid_axes((copies[0], args[1])) is None
        assert grid_axes(args[1:]) is None
        assert grid_axes((args[0], space_nodes(dom, TENSOR_RULE)[0])) is None
    rng = np.random.default_rng(seed)
    for nonconforming in (False, True):
        ts = _random_trig(dom, rng, n_terms=4, nonconforming=nonconforming)
        for name, ev in _evaluators(ts, dom).items():
            assert np.array_equal(ev(*args), ev(*copies)), name
    for label, field in _lambdified_fields(dom).items():
        if label.endswith(".u0"):
            continue  # an elliptic slice: see the next test
        for name, ev in _field_evaluators(field).items():
            on_grid = ev(*args)
            assert on_grid.shape[0] == args[-1].shape[0], (label, name)
            assert np.array_equal(on_grid, ev(*copies)), (label, name)


@pytest.mark.parametrize("dom", TENSOR_DOMS[4:], ids=repr)
def test_tensor_path_at_time_slice_bitwise(dom):
    X = space_nodes(dom, TENSOR_RULE)[0]
    assert grid_axes((X,)) is not None
    ts = _random_trig(dom, np.random.default_rng(3), nonconforming=True)
    lambdified = _lambdified_fields(dom)
    for t0 in (0.0, 0.3, dom.time_horizon):
        sliced = _scalar(ts, dom).at_time(t0)
        for ev in (sliced.value, sliced.grad, sliced.laplacian):
            assert np.array_equal(ev(X), ev(X.copy()))
        flux = _gradient(ts, dom).at_time(t0)
        assert np.array_equal(flux.value(X), flux.value(X.copy()))
        for label, field in lambdified.items():
            if not label.endswith(".u0"):
                field = field.at_time(t0)
            for name, ev in _field_evaluators(field).items():
                assert np.array_equal(ev(X), ev(X.copy())), (label, name)


def _form_factors(ts, dom):
    """Factor -> the axes it takes in the forms of the fields of the sum
    ``ts`` that :func:`_evaluators` evaluates."""
    views = [_scalar(ts, dom), _gradient(ts, dom)]
    if dom.dim == 2:
        views.append(_rotgrad(ts, dom))
    positions = {}
    for view in views:
        for form in map(view.form, view.capabilities):
            for s in (form if isinstance(form, tuple) else (form,)):
                for fs in s.factors:
                    for i, f in enumerate(fs):
                        positions.setdefault(f, set()).add(i)
    return positions


@pytest.mark.parametrize("dom", [TENSOR_DOMS[2], TENSOR_DOMS[5]], ids=repr)
def test_trig_evaluators_call_factors_on_axes_only(dom):
    # on a cached node set every evaluator of a trig field (rotated
    # gradients included) calls each factor once per axis it takes, on that
    # axis's 1-D nodes (sum factorisation); on other arrays nothing is
    # memoised, as a memo keyed on the id of a transient array would return
    # stale values once that id is reused
    if dom.is_parabolic:
        args = spacetime_nodes(dom, TENSOR_RULE)[:2]
    else:
        args = space_nodes(dom, TENSOR_RULE)[:1]
    axes = grid_axes(args)
    ts = _random_trig(dom, np.random.default_rng(11), n_terms=4,
                      nonconforming=True)
    evaluators = _evaluators(ts, dom)
    assert ("rotgrad" in evaluators) == (dom.dim == 2)
    positions = _form_factors(ts, dom)
    calls = []

    def recording(f, fn):
        def record(x):
            calls.append((f, x))
            return fn(x)

        return record

    originals = {f: f._fn for f in positions}
    try:
        for f in positions:
            f._memo.clear()  # a cache: every value is computed again
            f._fn = recording(f, f._fn)
        on_grid = {name: ev(*args) for name, ev in evaluators.items()}
    finally:
        for f, fn in originals.items():
            f._fn = fn
    assert {f for f, _ in calls} == set(positions)
    for f, x in calls:
        assert any(x is axes[i].base for i in positions[f]), (f, x.shape)
    assert len({(f, id(x)) for f, x in calls}) == len(calls)
    sizes = {f: len(f._memo) for f in positions}
    for _ in range(100):
        copies = tuple(a.copy() for a in args)
        for name, ev in evaluators.items():
            assert np.array_equal(ev(*copies), on_grid[name]), name
    assert {f: len(f._memo) for f in positions} == sizes


@pytest.mark.parametrize("dom", TENSOR_DOMS, ids=repr)
def test_trig_sum_derives_time_polynomials_on_first_use(dom):
    # building sums and their views, and the normalised directions of a
    # box, derives no time polynomial: their norms integrate forms
    polynomial = np.polynomial.polynomial
    with mock.patch.object(polynomial, "polyder", side_effect=AssertionError):
        lazy = _random_trig(dom, np.random.default_rng(5), n_terms=4,
                            nonconforming=True)
        _scalar(lazy, dom), _gradient(lazy, dom)
        manufactured._build_directions(dom, 5)


# Fields made of forms: the capabilities and the boundary flag of each,
# space-time boxes adding "dt" where marked, and every evaluator of a field
# that is its forms (fields.form_field) the values of its form
# (fields.form_values), bit for bit. The flux noise of a 2-D box is a
# gradient plus a rotated gradient, and evaluates as that sum.
FORM_DOMS = [DOM2, BoxDomain((0.0, 0.0), (1.0, 1.0), time_horizon=1.0)]
SCALAR, VECTOR = ("value", "grad", "laplacian"), ("value", "div")
# name -> (capabilities on an elliptic box, dt on a space-time one,
# vanishes, evaluators are the forms' values)
FORM_FIELDS = {
    "constant": (SCALAR, True, False, True),
    "zero scalar": (SCALAR, True, True, True),
    "zero vector": (VECTOR, True, None, True),
    "conforming direction": (SCALAR, True, True, True),
    "conforming gradient": (VECTOR, True, None, True),
    "non-conforming direction": (SCALAR, True, False, True),
    "flux noise": (VECTOR, True, None, False),
    "flux basis": (VECTOR, True, None, True),
    "free basis scalar": (SCALAR, True, True, True),
    "free basis flux": (VECTOR, True, None, True),
    "rotated gradient": (VECTOR, True, None, True),
}
# the directions perturb adds at each level, by FORM_FIELDS name
LEVEL_DIRECTIONS = {
    "very_conforming": ("conforming direction", "conforming gradient"),
    "conforming_mixed": ("conforming direction", "flux noise"),
    "semi_conforming_primal": ("conforming direction", "flux noise"),
    "semi_conforming_dual": ("non-conforming direction", "flux noise"),
    "non_conforming": ("non-conforming direction", "flux noise"),
}
# level -> capabilities of (u_tilde, p_tilde) on an elliptic box, whether
# u_tilde has dt on a space-time one, and whether it vanishes
PERTURBED = {
    "very_conforming": (SCALAR, VECTOR, True, True),
    "conforming_mixed": (("value", "grad"), VECTOR, True, True),
    "semi_conforming_primal": (("value", "grad"), ("value",), True, True),
    "semi_conforming_dual": (("value",), VECTOR, False, False),
    "non_conforming": (("value",), ("value",), False, False),
}


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dom", FORM_DOMS, ids=["elliptic", "parabolic"])
def test_form_fields_keep_their_capabilities_and_evaluate_their_forms(dom):
    td = dom.is_parabolic
    case = make_case("TRD" if td else "RD", dom,
                     ("exp(-t)*" if td else "") + "sin(pi*x)*sin(pi*y)")
    dirs = directions(dom, 6)
    scalar, flux = free_fields(case, "basis", index=1)
    fields = {
        "constant": constant_scalar(2.5, dom),
        "zero scalar": zero_scalar(dom),
        "zero vector": zero_vector(dom),
        "conforming direction": dirs.at("very_conforming")[0],
        "conforming gradient": dirs.at("very_conforming")[1],
        "non-conforming direction": dirs.at("non_conforming")[0],
        "flux noise": dirs.flux,
        "flux basis": flux_basis(dom, 4)[3],
        "free basis scalar": scalar,
        "free basis flux": flux,
        "rotated gradient": _rotgrad(
            _random_trig(dom, np.random.default_rng(2), nonconforming=True),
            dom),
    }
    assert set(fields) == set(FORM_FIELDS)
    for level, names in LEVEL_DIRECTIONS.items():
        for got, name in zip(dirs.at(level), names):
            assert got is fields[name], level
    args = spacetime_nodes(dom, RULE)[:2] if td else space_nodes(dom, RULE)[:1]
    copies = tuple(a.copy() for a in args)
    assert grid_axes(args) is not None and grid_axes(copies) is None
    for name, field in fields.items():
        caps, with_dt, vanishes, is_forms = FORM_FIELDS[name]
        expected = set(caps) | ({"dt"} if td and with_dt else set())
        assert _capabilities(field) == expected == {
            cap for cap in field.capabilities
            if field.form(cap) is not None}, name
        assert getattr(field, "vanishes_on_boundary", None) is vanishes, name
        for cap in expected if is_forms else ():
            form = field.form(cap)
            for on in (args, copies):
                assert _same_bits(getattr(field, cap)(*on),
                                  form_values(form, on, dom.dim)), (name, cap)
    for level, (u_caps, p_caps, u_dt, vanishes) in PERTURBED.items():
        ap = perturb(case, level, 0.1, 6)
        assert _capabilities(ap.u_tilde) == set(u_caps) | (
            {"dt"} if td and u_dt else set()), level
        assert _capabilities(ap.p_tilde) == set(p_caps), level
        assert ap.u_tilde.vanishes_on_boundary is vanishes, level


def _nested(case, level, scale, seed):
    """The approximation pair as the nested expression: the exact field plus
    ``scale`` times the direction, restricted to the level's contract."""
    du, dp = directions(case.dom, seed).at(level)
    u_t = case.exact_u + scale * du
    p_t = case.exact_p + scale * dp
    if level in ("conforming_mixed", "semi_conforming_primal"):
        u_t = u_t.restricted(grad=True, dt=True, boundary_flag=True)
    elif level != "very_conforming":
        u_t = u_t.restricted()
    if level in ("semi_conforming_primal", "non_conforming"):
        p_t = p_t.restricted()
    return u_t, p_t


@st.composite
def _perturbations(draw):
    """A case on a shifted, anisotropic box (d = 1..3, elliptic or
    space-time) whose solution splits into 1-D factors or, where it has
    two coordinates to couple, does not; the scales 0, 1 and one drawn;
    and a seed."""
    kind = draw(st.sampled_from(KINDS))
    td = kind in PARABOLIC_KINDS
    dim = draw(st.integers(1, 3 if not td else 2))
    lower = [draw(st.integers(-20, 20)) for _ in range(dim)]
    sides = [draw(st.integers(3, 30)) for _ in range(dim)]
    dom = BoxDomain([a / 10 for a in lower],
                    [(a + b) / 10 for a, b in zip(lower, sides)],
                    time_horizon=draw(st.sampled_from([0.5, 2.0])) if td
                    else None)
    names = "xyz"[:dim]
    factors = [f"sin(pi*({v} - ({a}/10))*10/{b})"
               for v, a, b in zip(names, lower, sides)]
    if td:
        factors.append(draw(st.sampled_from(["exp(-t)", "(1 + t)"])))
    if draw(st.booleans()):
        factors.append(f"(2 + sin({'*'.join(names + ('t' if td else ''))}))")
    case = make_case(kind, dom, "*".join(factors))
    scales = (0.0, 1.0, draw(st.floats(0.01, 3.0)))
    return case, scales, draw(st.integers(0, 5))


def _same_form(a, b):
    """Forms equal term by term: coefficients in hex, factors by identity."""
    if a is None or b is None:
        return a is b
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_form, a, b))
    return ([c.hex() for c in a.coefs] == [c.hex() for c in b.coefs]
            and len(a.factors) == len(b.factors)
            and all(len(fa) == len(fb) and all(map(operator.is_, fa, fb))
                    for fa, fb in zip(a.factors, b.factors)))


def _refusal(field, name):
    with pytest.raises(CapabilityError) as got:
        field.evaluator(name)
    with pytest.raises(CapabilityError) as form:
        field.form(name)
    assert str(form.value) == str(got.value)
    return str(got.value)


def _assert_same_node(got, ref, args, where):
    """``got`` has the capabilities, boundary flag, refusals and forms of
    ``ref``, and its evaluators give the same bits on each node set of
    ``args``."""
    assert type(got) is type(ref), where
    assert (got.dim, got.time_dependent) == (ref.dim, ref.time_dependent)
    assert got.capabilities == ref.capabilities, where
    assert got._vanishes is ref._vanishes, where
    for name in set(got._NAMES) - got.capabilities:
        assert _refusal(got, name) == _refusal(ref, name), (where, name)
    for name in got.capabilities:
        assert _same_form(got.form(name), ref.form(name)), (where, name)
        for on in args:
            assert _same_bits(got.evaluator(name)(*on),
                              ref.evaluator(name)(*on)), (where, name)


@given(_perturbations())
@settings(max_examples=20, deadline=None)
def test_perturb_equals_the_nested_expression(problem):
    # at every level each of u_tilde and p_tilde is one combination node;
    # it carries the capabilities, boundary flag, refusals, forms and values
    # of the nested expression it replaces, bit for bit, on a cached node
    # set, on copies of it and, sliced at a time, on spatial nodes
    case, scales, seed = problem
    dom = case.dom
    nodes = (spacetime_nodes(dom, TENSOR_RULE)[:2] if dom.is_parabolic
             else space_nodes(dom, TENSOR_RULE)[:1])
    args = (nodes, tuple(a.copy() for a in nodes))
    X = space_nodes(dom, TENSOR_RULE)[0]
    for level, scale in itertools.product(LEVELS, scales):
        ap = perturb(case, level, scale, seed)
        for got, ref in zip((ap.u_tilde, ap.p_tilde),
                            _nested(case, level, scale, seed)):
            _assert_same_node(got, ref, args, (level, scale))
            if dom.is_parabolic:
                t0 = dom.time_horizon / 3
                _assert_same_node(got.at_time(t0), ref.at_time(t0),
                                  ((X,), (X.copy(),)), (level, scale, t0))


@pytest.mark.parametrize("kind, dom, solution", [
    ("RD", DOM2, "sin(pi*x)*sin(pi*y)"),
    ("Heat", TDOM, "(1+t)*sin(pi*x)")], ids=["elliptic", "parabolic"])
def test_fresh_approximation_forms_take_one_combination_each(
        monkeypatch, kind, dom, solution):
    # once the exact fields' and the directions' forms are built, each form
    # of a fresh approximation is one combination of the two per component,
    # and perturb makes no view node
    case = make_case(kind, dom, solution)
    combine, view = SeparatedSum.combination, _Field._view
    calls = []

    def counting(*args):
        calls.append("combination")
        return combine(*args)

    def viewing(*args, **kw):
        calls.append("view")
        return view(*args, **kw)

    for level in LEVELS:
        warm = perturb(case, level, 0.3, 4)
        for field in (warm.u_tilde, warm.p_tilde):
            for name in field.capabilities:
                field.form(name)
        with monkeypatch.context() as patch:
            patch.setattr(SeparatedSum, "combination", staticmethod(counting))
            patch.setattr(_Field, "_view", viewing)
            ap = perturb(case, level, 0.3, 4)
            assert calls == [], level
            for field in (ap.u_tilde, ap.p_tilde):
                for name in sorted(field.capabilities):
                    form = field.form(name)
                    parts = len(form) if isinstance(form, tuple) else 1
                    assert calls == ["combination"] * parts, (level, name)
                    del calls[:]
