"""Seed pools, the A_n selection, empirical measures, density estimates.

Run:  python3 demos/06_empirical_measure.py
"""

import math

import numpy as np

from acim1d import estimate_norms, make_map, power_map
from acim1d.maps import critical_set
from acim1d.measures import (
    build_seed_pool, compare_density, density_estimate, empirical_measure,
    invariance_defect, positive_exponent_proxy, ref_logistic_acip,
    ref_uniform, select_An, support_gap_from_critical,
)

print("== doubling map: the empirical measure converges to Lebesgue ==")
f = make_map("doubling")
p, n = 4, 10
pool = build_seed_pool(f, p, n, 30000, np.random.default_rng(1))
sel = select_An(pool, n, beta=0.5, b=0.5, p=p)
mu = empirical_measure(sel, M=2, m=1)
print(f"  {sel.n_selected} seeds kept, {mu.n_atoms} atoms, "
      f"beta_nMm = {mu.meta['beta_nMm']:.3f}")
est = density_estimate(mu, 200)
print(f"  L1 distance to the constant density: "
      f"{compare_density(est, ref_uniform):.4f}")
rep = invariance_defect(mu, power_map(f, p))
print(f"  invariance defect {rep['defect']:.5f} <= boundary bound "
      f"{rep['bound']:.5f}: {rep['ok']}")

print("\n== logistic map: the arcsine density appears ==")
fl = make_map("logistic", smoothness_r=4.0)
p, n = 6, 80
pool = build_seed_pool(fl, p, n, 6000, np.random.default_rng(2))
b = math.log(4.0) / 4.0 + 0.1
sel = select_An(pool, n, beta=0.1, b=b, p=p)
mu = empirical_measure(sel, M=3, m=1)
print(f"  {sel.n_selected}/{pool.n_seeds} seeds kept, {mu.n_atoms} atoms")
est = density_estimate(mu, 200)
print(f"  L1 distance to 1/(pi sqrt(x(1-x))): "
      f"{compare_density(est, ref_logistic_acip):.4f}")
g = power_map(fl, p)
norms = estimate_norms(g, grid_size=2 ** 14, refine_iters=2, n_used=2)
gap = support_gap_from_critical(mu, critical_set(g, grid_size=2 ** 14), g, 3,
                                math.log(norms.sup_abs_deriv[1]))
print(f"  support stays {gap['gap']:.2e} away from the critical set; "
      f"derivative floor margin {gap['deriv_floor_margin']:.2f}")
print(f"  positive-exponent proxy (later expanding time per atom): "
      f"{positive_exponent_proxy(mu):.3f}")
