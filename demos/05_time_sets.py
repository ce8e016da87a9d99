"""The E_n^{M,m} calculus and the surrogate hyperbolic-time detector.

Run:  python3 demos/05_time_sets.py
"""

import numpy as np

from acim1d import hyperbolic_surrogate_times, make_map, power_map, \
    verify_enm, verify_hyperbolic
from acim1d.times import boundary_set, clip, density, trim

print("== clip / trim / boundary on a small example ==")
E = {0, 3, 5, 9}
n, M, m = 10, 3, 2
print(f"  E = {sorted(E)}, n={n}, M={M}, m={m}")
print(f"  clip  E_n^M     = {sorted(clip(E, n, M))}")
print(f"  trim  E_n^(M,m) = {sorted(trim(E, n, M, m))}")
print(f"  boundary        = {sorted(boundary_set(trim(E, n, M, m)))}")

print("\n== the counting lemma on random sets ==")
rng = np.random.default_rng(0)
worst = np.inf
for _ in range(200):
    E = set(rng.choice(24, size=rng.integers(0, 16), replace=False).tolist())
    rep = verify_enm(E, 24, 2, 4, 2)
    assert rep["i_boundary_subset"] and rep["iii_ok"] and rep["iv_ok"]
    worst = min(worst, rep["iii_margin"])
print(f"  200 random sets: zero violations, worst item-iii margin {worst}")

print("\n== surrogate hyperbolic times ==")
print("  l is kept iff |(g^(l-k))'(g^k x)| >= 10^(l-k) for every k < l")
for name, p in (("doubling", 4), ("logistic", 6)):
    f = make_map(name)
    g = power_map(f, p)
    E = hyperbolic_surrogate_times(g, 0.137, 60)
    print(f"  {name}^{p}: density d_60 = {density(E, 60):.3f} "
          f"first times {E[:8]}")
    rep = verify_hyperbolic(g, 0.137, E, 60, 3, 2)
    print(f"     expansion margins: i={rep['i_margin']:.3f} "
          f"ii={rep['ii_margin']:.3f} iii={rep['iii_margin']:.3f}")

print("\n  rigid rotation (no expansion): "
      f"{len(hyperbolic_surrogate_times(make_map('affine', c0=0.23, c1=1.0, domain='circle'), 0.4, 40))} times detected")
