"""End-to-end acceptance checks, one printed pass/fail line per criterion."""
import json
import math
import time

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from errbounds import (
    BoxDomain,
    QuadratureRule,
    cftwo_check,
    default_suite_config,
    emit,
    flux_basis,
    friedrichs_constant,
    friedrichs_margin,
    heat_isometry_check,
    heat_two_sided,
    heat_very_conforming_equality,
    make_case,
    minimize_flux_majorant,
    norm_sq,
    optimal_gamma,
    perturb,
    poisson_nonconforming,
    poisson_two_sided,
    poisson_very_conforming_equality,
    rd_equality,
    rd_nonconforming_bounds,
    rd_very_conforming_equality,
    run,
    scalar_field,
    trd_equality,
    trd_isometry_check,
    trd_very_conforming_equality,
)
from errbounds.cli import main as cli_main
from test_parabolic import omega_identity_check

RULE = QuadratureRule()
DOM1 = BoxDomain((0.0,), (1.0,))
TDOM1 = BoxDomain((0.0,), (1.0,), time_horizon=1.0)

_1D = [
    "sin(pi*x)",
    "sin(2*pi*x)",
    "sin(pi*x) + sin(3*pi*x)/3",
    "sin(pi*x)*(1 + sin(2*pi*x)/2)",
    "x*(1-x)",
    "x**2*(1-x)",
    "sin(pi*x)**2 + sin(pi*x)",
    "sin(pi*x)*exp(x)/3",
]
_2D = [
    "sin(pi*x)*sin(pi*y)",
    "sin(pi*x)*sin(2*pi*y) + sin(2*pi*x)*sin(pi*y)/2",
]
_TIME = ["exp(-t)*", "(1+t/2)*", "(1+t**2/3)*", "exp(-t)*(2-t)*",
         "cos(t)*", "(1-t/3)*", "exp(t/2)*", "(1+sin(t))/2*",
         "exp(-2*t)*", "(2+t)/2*"]


def _elliptic_cases(kind):
    dom2 = BoxDomain((0.0, 0.0), (1.0, 1.0))
    cases = [make_case(kind, DOM1, expr) for expr in _1D]
    cases += [make_case(kind, dom2, expr) for expr in _2D]
    return cases


def _parabolic_cases(kind):
    return [make_case(kind, TDOM1, tf + "(" + expr + ")")
            for tf, expr in zip(_TIME, _1D + _1D[:2])]


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


PERTURBATIONS = [(eps, seed) for seed, eps in
                 enumerate([0.01, 0.1, 1.0] * 4)][:10]


def test_criterion_1_equality_suite():
    start = time.perf_counter()
    worst = 0.0
    for case in _elliptic_cases("RD"):
        for eps, seed in PERTURBATIONS:
            mixed = perturb(case, "conforming_mixed", eps, seed)
            worst = max(worst, rd_equality(case, mixed, RULE).rel_residual)
            very = perturb(case, "very_conforming", eps, seed)
            worst = max(worst, rd_very_conforming_equality(
                case, very.u_tilde, RULE).rel_residual)
    for case in _elliptic_cases("Poisson"):
        for eps, seed in PERTURBATIONS:
            very = perturb(case, "very_conforming", eps, seed)
            worst = max(worst, poisson_very_conforming_equality(
                case, very.u_tilde, RULE).rel_residual)
    for case in _parabolic_cases("TRD"):
        for eps, seed in PERTURBATIONS:
            mixed = perturb(case, "conforming_mixed", eps, seed)
            worst = max(worst, trd_equality(case, mixed, RULE).rel_residual)
            very = perturb(case, "very_conforming", eps, seed)
            worst = max(worst, trd_very_conforming_equality(
                case, very.u_tilde, RULE).rel_residual)
    for case in _parabolic_cases("Heat"):
        for eps, seed in PERTURBATIONS:
            very = perturb(case, "very_conforming", eps, seed)
            worst = max(worst, heat_very_conforming_equality(
                case, very.u_tilde, RULE).rel_residual)
    elapsed = time.perf_counter() - start
    _report("1 equality-suite",
            worst <= 1e-8 and elapsed <= 60.0,
            f"(max rel residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_isometry_suite():
    worst = 0.0
    for case in _elliptic_cases("RD")[:5]:
        lhs = norm_sq("V", case.exact_u, case.dom, RULE)
        rhs = norm_sq("L2", case.f, case.dom, RULE)
        worst = max(worst, abs(lhs - rhs) / max(lhs, rhs, 1e-14))
    for case in _elliptic_cases("Poisson")[:5]:
        lhs = math.sqrt(norm_sq(
            "L2", case.exact_u.laplacian_field(), case.dom, RULE))
        rhs = math.sqrt(norm_sq("L2", case.f, case.dom, RULE))
        worst = max(worst, abs(lhs - rhs) / max(lhs, rhs, 1e-14))
    for case in _parabolic_cases("TRD")[:5]:
        worst = max(worst, trd_isometry_check(case, RULE).rel_residual)
    for case in _parabolic_cases("Heat")[:5]:
        worst = max(worst, heat_isometry_check(case, RULE).rel_residual)
    w = scalar_field("(1+t**2)*sin(pi*x) + t*sin(2*pi*x)/4", TDOM1)
    for omega in (-1.0, 0.0, 0.5, 1.0, 10.0):
        worst = max(worst, omega_identity_check(w, omega, TDOM1, RULE))
    _report("2 isometry-suite", worst <= 1e-8, f"(max rel residual {worst:.2e})")


def test_criterion_3_two_sided_ordering():
    slack = 1e-9
    rng = np.random.default_rng(2024)
    po = [make_case("Poisson", DOM1, e) for e in _1D[:4]]
    he = [make_case("Heat", TDOM1, "exp(-t)*(" + e + ")") for e in _1D[:4]]
    cf = friedrichs_constant(DOM1).value
    ok = True
    for i in range(100):
        eps = float(rng.choice([0.01, 0.1, 1.0]))
        case = po[i % len(po)]
        rep = poisson_two_sided(
            case, perturb(case, "conforming_mixed", eps, i), cf, RULE)
        ok &= rep.true_total <= rep.upper_bound + slack
        ok &= all(lb <= rep.true_total + slack
                  for lb in rep.lower_bounds.values())
        hcase = he[i % len(he)]
        hrep = heat_two_sided(
            hcase, perturb(hcase, "conforming_mixed", eps, i), cf, RULE)
        ok &= hrep.true_total <= hrep.upper_bound + slack
        ok &= all(lb <= hrep.true_total + slack
                  for lb in hrep.lower_bounds.values())
    _report("3 two-sided-ordering", ok,
            "(100 randomized cases per problem, both lower candidates)")


def test_criterion_4_nonconforming_sharpness():
    ok = True
    worst_ratio, worst_rel = 1.0, 0.0
    rd_cases = _elliptic_cases("RD")
    for i in range(20):
        case = rd_cases[i % len(rd_cases)]
        ap = perturb(case, "non_conforming", 0.3, i)
        rep = rd_nonconforming_bounds(case, ap, case.exact_u, case.exact_p,
                                      gamma=1e-6, which="iii", rule=RULE)
        ratio = rep.upper_bound / rep.true_total
        worst_ratio = max(worst_ratio, ratio)
        ok &= 1.0 - 1e-12 <= ratio <= 1.0 + 1e-5
    po_cases = _elliptic_cases("Poisson")
    for i in range(10):
        case = po_cases[i % len(po_cases)]
        cf = friedrichs_constant(case.dom).value
        ap = perturb(case, "non_conforming", 0.3, i)
        rep = poisson_nonconforming(case, ap.u_tilde, ap.p_tilde,
                                    case.exact_u, case.exact_p, cf, "i", RULE)
        rel = abs(rep.upper_bound - rep.true_total) / max(
            rep.upper_bound, rep.true_total, 1e-14)
        worst_rel = max(worst_rel, rel)
        ok &= rel <= 1e-8
    _report("4 nonconforming-sharpness", ok,
            f"(combined-bound ratio <= {worst_ratio:.8f}, "
            f"primal-bound mismatch <= {worst_rel:.2e})")


def _fd_friedrichs_1d(n=400):
    h = 1.0 / (n + 1)
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    A = scipy.sparse.diags([off, main, off], [-1, 0, 1]) / h ** 2
    lam = scipy.sparse.linalg.eigsh(A.tocsc(), k=1, sigma=0.0,
                                    return_eigenvectors=False)[0]
    return 1.0 / math.sqrt(lam)


def _fd_friedrichs_2d(n=60):
    h = 1.0 / (n + 1)
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    L = scipy.sparse.diags([off, main, off], [-1, 0, 1]) / h ** 2
    eye = scipy.sparse.identity(n)
    A = scipy.sparse.kron(L, eye) + scipy.sparse.kron(eye, L)
    lam = scipy.sparse.linalg.eigsh(A.tocsc(), k=1, sigma=0.0,
                                    return_eigenvectors=False)[0]
    return 1.0 / math.sqrt(lam)


def test_criterion_5_friedrichs():
    dom2 = BoxDomain((0.0, 0.0), (1.0, 1.0))
    cf1 = friedrichs_constant(DOM1).value
    cf2 = friedrichs_constant(dom2).value
    err1 = abs(cf1 - _fd_friedrichs_1d()) / cf1
    err2 = abs(cf2 - _fd_friedrichs_2d()) / cf2
    eig1 = scalar_field("sin(pi*x)", DOM1)
    eig2 = scalar_field("sin(pi*x)*sin(pi*y)", dom2)
    margins = [abs(friedrichs_margin(eig1, cf1, DOM1, RULE)),
               abs(cftwo_check(eig1, cf1, DOM1, RULE)),
               abs(friedrichs_margin(eig2, cf2, dom2, RULE)),
               abs(cftwo_check(eig2, cf2, dom2, RULE))]
    ok = (cf1 == pytest.approx(1 / math.pi)
          and cf2 == pytest.approx(1 / (math.pi * math.sqrt(2)))
          and err1 <= 1e-3 and err2 <= 1e-3
          and max(margins) <= 1e-10)
    _report("5 friedrichs", ok,
            f"(fd-oracle gaps {err1:.1e}/{err2:.1e}, "
            f"saturation margin <= {max(margins):.1e})")


def test_criterion_6_optimizer():
    rng = np.random.default_rng(77)
    grid = np.logspace(-4, 4, 1000)
    ok = True
    worst = 0.0
    for _ in range(1000):
        A = float(rng.uniform(1e-3, 100.0))
        B = float(rng.uniform(1e-3, 100.0))
        _, bound = optimal_gamma(A, B)
        vals = (1 + 1 / grid) * A + (1 + grid) * B
        k = int(np.argmin(vals))
        fine = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, 999)], 2001)
        best = float(np.min((1 + 1 / fine) * A + (1 + fine) * B))
        rel = abs(bound - best) / best
        worst = max(worst, rel)
        ok &= rel <= 1e-6
    # nested enrichment: a monotone minimized functional, and an upper
    # bound that never undercuts the error (for RD they are one number)
    for kind, expr in [("RD", e) for e in _1D[:4]] + [("Poisson", e)
                                                     for e in _1D[:4]]:
        case = make_case(kind, DOM1, expr)
        ut = perturb(case, "conforming_mixed", 0.2, 1).u_tilde
        e = case.exact_u - ut
        true = (norm_sq("H1", e, DOM1, RULE) if kind == "RD"
                else norm_sq("L2", e.gradient_field(), DOM1, RULE))
        prev = math.inf
        for n in (1, 2, 3, 4):
            _, rep, _ = minimize_flux_majorant(
                case, ut, flux_basis(DOM1, n), RULE)
            maj = rep.checks["residual_sq"] + rep.checks["gap_sq"]
            ok &= maj <= prev + 1e-12
            ok &= rep.true_total == true and rep.upper_bound >= true - 1e-12
            ok &= kind == "Poisson" or rep.upper_bound == maj
            prev = maj
    _report("6 optimizer", ok, f"(max grid-oracle gap {worst:.2e})")


def test_criterion_7_defect_detection(tmp_path):
    report = run(default_suite_config(f_scale=1.01, n_seeds=2))
    residuals = [r.get("rel_residual") for r in report.records
                 if r["status"] == "ok" and r.get("rel_residual") is not None]
    cfg = {
        "cases": [{"kind": "RD", "lower": [0.0], "upper": [1.0],
                   "solution": "sin(pi*x)", "f_scale": 1.01}],
        "approximations": [{"level": "conforming_mixed", "epsilon": 0.01,
                            "seed": 0}],
        "estimators": [{"name": "rd_equality"}],
    }
    cfg_path = tmp_path / "defect.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli_main(["verify-equality", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
    ok = max(residuals) > 1e-4 and report.exit_code != 0 and code != 0
    _report("7 defect-detection", ok,
            f"(max residual {max(residuals):.2e}, cli exit {code})")


def test_criterion_8_determinism(tmp_path):
    cfg = default_suite_config()
    emit(run(cfg), ["json"], tmp_path / "a")
    emit(run(cfg), ["json"], tmp_path / "b")
    same = ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())
    _report("8 determinism", same, "(byte-identical suite reports)")
