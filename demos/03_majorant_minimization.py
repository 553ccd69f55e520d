"""Minimizing a guaranteed error majorant over a flux basis.

The residual functional of the reaction-diffusion identity is a
guaranteed upper bound for the H1 error of u_tilde for *any* choice of
the flux field.  Minimizing it over a finite-dimensional flux space is
a small symmetric least-squares solve, and enriching the space can only
tighten the bound.  For the Poisson problem the same functional is no
bound; the flux that minimizes it enters the guaranteed estimate
(||phi - grad u_tilde|| + C_F ||f + div phi||)^2 instead.

The script enriches a nested sine-mode flux basis one mode at a time and
prints each upper bound against the true error, for a reaction-diffusion
and a Poisson case, and then runs the alternating flux/gamma refinement
used for non-conforming bounds.
"""
from errbounds import (
    BoxDomain,
    QuadratureRule,
    flux_basis,
    free_fields,
    improve_bound,
    make_case,
    minimize_flux_majorant,
    perturb,
)

dom = BoxDomain((0.0,), (1.0,))
rule = QuadratureRule()
case = make_case("RD", dom, "sin(pi*x) + sin(3*pi*x)/3")
poisson = make_case("Poisson", dom, "sin(pi*x) + sin(3*pi*x)/3")

for c, error in ((case, "H1 error"), (poisson, "gradient error")):
    approx = perturb(c, "conforming_mixed", 0.2, seed=1)
    print(f"{c.kind}: nested flux enrichment, true {error} squared")
    print(f"{'modes':>6} {'upper':>14} {'true':>14} {'efficiency':>11}")
    for n in range(1, 6):
        _, rep, _ = minimize_flux_majorant(
            c, approx.u_tilde, flux_basis(dom, n), rule)
        print(f"{n:6d} {rep.upper_bound:14.6e} {rep.true_total:14.6e}"
              f" {rep.efficiency_upper:11.4f}")
    print()

print("Alternating flux/gamma refinement for a non-conforming bound:")
nc = perturb(case, "non_conforming", 0.2, seed=1)
phi_free, _ = free_fields(case, "coarse")
reports = improve_bound(case, nc, phi_free, rule, budget=4)
for step, rep in enumerate(reports):
    print(f"  step {step}: gamma={rep.gamma:10.4e}"
          f"  upper={rep.upper_bound:.6e}"
          f"  true={rep.true_total:.6e}"
          f"  efficiency={rep.efficiency_upper:.3f}")
