"""Partition labels, the inequality checks, and the ACIM verdict.

Run:  python3 demos/07_entropy_and_verdict.py
"""

import math
from fractions import Fraction

import numpy as np

from acim1d import estimate_norms, make_map, monotone_branches, power_map
from acim1d.entropy import (
    C0_MANE, QBIN_TAIL, entropy_formula_residual, gibbs_check, qbin_label,
    verify_mane_bounds, verify_misiurewicz,
)
from acim1d.measures import build_seed_pool, empirical_measure, select_An

print("== the level-set partition Q_q ==")
label = qbin_label(make_map("logistic"), q=2, a=-0.3)
k = np.unique(label(np.linspace(0.0, 1.0, 2 ** 14 + 1)))
print(f"  logistic, q=2, 2^14 + 1 grid points: {k.size} populated bins "
      f"k = {k.tolist()}")
print(f"  (k = {QBIN_TAIL} is the tail bin: the critical point 1/2)")

print("\n== block-entropy inequality (exact masses) ==")
T = [(2 * s) % 8 for s in range(8)]
R = [s >> 2 for s in range(8)]
rep = verify_misiurewicz([Fraction(1, 8)] * 8, T, R, list(range(6)), m=2)
print(f"  truncated 2-shift, F={{0..5}}, m=2: lhs={rep['lhs']:.4f} "
      f"rhs={rep['rhs']:.4f} margin={rep['margin']:.4f}")
print(f"  c_0 = 4(e(1-e^(-1/2)))^(-1) = {C0_MANE:.6f}")

print("\n== the full pipeline by hand: measure, checks, residual ==")
f = make_map("logistic", smoothness_r=4.0)
p, n = 6, 80
g = power_map(f, p)
pool = build_seed_pool(f, p, n, 6000, np.random.default_rng(3))
b = math.log(4.0) / 4.0 + 0.1
sel = select_An(pool, n, beta=0.1, b=b, p=p)
mu = empirical_measure(sel, M=3, m=1)
bp = monotone_branches(g, grid_size=2 ** 14)
norms = estimate_norms(g, grid_size=2 ** 14, refine_iters=2, n_used=2)
mane = verify_mane_bounds(mu, g, 4, bp, norms, np.random.default_rng(4))
print(f"  Mane bounds: H(Q_q) = {mane['hq_lhs']:.3f} <= "
      f"{mane['hq_rhs']:.3f}; branch-size margin "
      f"{mane['branch_size_margin']:.2e}")
s = sel.indices[0]
grep = gibbs_check(g, float(pool.seeds[s]), pool.time_list(s), q=4, eps=2e-4,
                   n=n, M=3, m=1, beta=0.1, b=b, p=p, n_samples=4000,
                   rng=np.random.default_rng(5))
print(f"  Gibbs cylinder bound: Leb-hat {grep['leb_hat']:.2e} "
      f"(CI {grep['ci'][0]:.2e}..{grep['ci'][1]:.2e}) <= rhs "
      f"{grep['rhs']:.2e}: {grep['ok']}")

rep = entropy_formula_residual(f, mu, q_list=[2, 4], m_list=[1, 2], p=p,
                               tol=0.05)
print(f"  h_f estimate {rep['h_f_est']:.4f} vs int log|f'| d mu "
      f"{rep['int_phi_f']:.4f}")
print(f"  residual {rep['residual_f']:+.4f}  ->  verdict: {rep['verdict']}")
