"""Monotone-branch partitions, the counting bound, branches of powers.

Run:  python3 demos/02_monotone_branches.py
"""

import math

from acim1d import count_branches_with_min_slope, make_map, \
    monotone_branches, power_map

print("== branches of basic maps ==")
for name, kw in [("doubling", {}), ("logistic", {}),
                 ("linear_circle", {"d": 3.0})]:
    part = monotone_branches(make_map(name, **kw))
    segs = ", ".join(f"[{br.a:.3f},{br.b:.3f})" for br in part.branches)
    print(f"  {name:15s}: {len(part.branches)} branches  {segs}")
    print(f"  {'':15s}  cuts: "
          + ", ".join(f"{p:.3f}({r})" for p, r in part.cut_points))

print("\n== branch count against the slope bound ==")
print("  number of branches where sup|g'| >= s, vs C(r',g) s^(-1/(r'-1)) + 1")
for p in (1, 2, 3):
    g = power_map(make_map("logistic"), p)
    part = monotone_branches(g, grid_size=2 ** 14)
    for s in (0.5, 2.0):
        count, rep = count_branches_with_min_slope(g, s, partition=part)
        print(f"  logistic^{p}, s={s}: count={count:3d} "
              f"bound={rep['bound']:9.2f} ok={rep['within_bound']}")

print("\n== refinement: J^n is the branch partition of g^n ==")
for n in (1, 2, 3):
    part = monotone_branches(power_map(make_map("doubling"), n))
    print(f"  doubling, J^{n}: {len(part.branches)} arcs")
part = monotone_branches(power_map(make_map("logistic"), 2))
rho = (2 - math.sqrt(2)) / 4
print(f"  logistic, J^2 interior cuts: "
      + ", ".join(f"{p:.6f}" for p, _ in part.cut_points if 0 < p < 1))
print(f"  exact values: {rho:.6f}, 0.5, {1 - rho:.6f}")
