"""Guaranteed two-sided error bounds for the heat equation.

For u_t - laplace(u) = f on a space-time cylinder, a conforming
approximate pair (u_tilde, p_tilde) yields a fully computable upper
bound and two lower bounds on the combined parabolic error norm.  All
three are guaranteed: no unknown constants enter beyond the Friedrichs
constant of the spatial box, which is known in closed form.

The script sweeps the perturbation amplitude and prints the sandwich
lower <= true <= upper together with both efficiency indices, then
shows the effect of the free parameter gamma in the upper bound.
"""
from errbounds import (
    BoxDomain,
    QuadratureRule,
    friedrichs_constant,
    heat_two_sided,
    make_case,
    perturb,
)

dom = BoxDomain((0.0,), (1.0,), time_horizon=1.0)
rule = QuadratureRule()
cf = friedrichs_constant(dom).value
print(f"Friedrichs constant on the unit interval: {cf:.6f} (= 1/pi)")

case = make_case("Heat", dom, "(1+t)*sin(pi*x)")

print(f"\n{'epsilon':>8} {'lower':>12} {'true':>12} {'upper':>12}"
      f" {'eff_low':>8} {'eff_up':>8}")
for eps in (0.01, 0.1, 0.5, 1.0):
    approx = perturb(case, "conforming_mixed", eps, seed=11)
    rep = heat_two_sided(case, approx, cf, rule)
    print(f"{eps:8.2f} {rep.lower_bound:12.5e} {rep.true_total:12.5e}"
          f" {rep.upper_bound:12.5e} {rep.efficiency_lower:8.3f}"
          f" {rep.efficiency_upper:8.3f}")

approx = perturb(case, "conforming_mixed", 0.1, seed=11)
rep = heat_two_sided(case, approx, cf, rule)
print("\nLower-bound candidates at epsilon = 0.1:")
for name, value in sorted(rep.lower_bounds.items()):
    print(f"  {name:28s} {value:.6e}")

print("\nUpper bound as a function of gamma (the Young-inequality split):")
for gamma in (1.2, 1.5, 2.0, 4.0, 10.0):
    rep = heat_two_sided(case, approx, cf, rule, gamma=gamma)
    print(f"  gamma={gamma:5.1f}  upper={rep.upper_bound:.6e}"
          f"  efficiency={rep.efficiency_upper:.3f}")
