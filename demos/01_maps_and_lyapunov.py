"""Map presets, orbits, finite-time Lyapunov exponents, norm estimates.

Run:  python3 demos/01_maps_and_lyapunov.py
"""

import math

import numpy as np

from acim1d import critical_set, estimate_norms, lyapunov_ft, make_map, \
    orbit_grid, power_map

print("== preset maps ==")
for name, kw in [("doubling", {}), ("logistic", {}), ("tent", {"s": 1.7}),
                 ("perturbed_circle", {"d": 2, "delta": 0.1}), ("cubic", {})]:
    f = make_map(name, **kw)
    print(f"  {f.name:28s} domain={f.domain.kind:12s} r={f.smoothness_r}")

print("\n== a doubling orbit from x = 0.3 ==")
pts, lds = orbit_grid(make_map("doubling"), [0.3], 5)
print("  points:     ", np.round(pts[:, 0], 6))
print("  log|f'|:    ", np.round(lds[:, 0], 6), " (log 2 =",
      round(math.log(2), 6), ")")

print("\n== finite-time Lyapunov exponents ==")
f = make_map("logistic")
xs = (0.1234, 0.37, 0.815)
for x, chi in zip(xs, lyapunov_ft(f, xs, 10 ** 5)):
    print(f"  logistic, x={x}: chi_1e5 = {chi:.5f}   (log 2 = {math.log(2):.5f})")
print("  the a.e. exponent of 4x(1-x) is log 2 (tent-map conjugacy)")

print("\n== norms and the growth rate R ==")
for name in ("doubling", "logistic"):
    f = make_map(name)
    norms = estimate_norms(f)
    print(f"  {name}: sup|f'|={norms.sup_abs_deriv[1]:.6f} "
          f"||f'||_(r-1)={norms.f_prime_r_minus_1:.6f} "
          f"R~{norms.R_estimate:.6f} (n={norms.n_used})")

print("\n== critical sets ==")
print("  logistic:", critical_set(make_map("logistic")))
print("  doubling:", critical_set(make_map("doubling")))
print("  cubic:   ", critical_set(make_map("cubic")),
      " (exact: 1/3 + 1/sqrt(3) =", 1 / 3 + 1 / math.sqrt(3), ")")

print("\n== compositions ==")
g = power_map(make_map("logistic"), 3)
x = 0.2
print(f"  (f^3)'(0.2) by jets: {float(g.deriv(1, x)):.10f}")
h = 1e-7
fd = (g.eval(x + h) - g.eval(x - h)) / (2 * h)
print(f"  finite differences:  {float(fd):.10f}")
