"""The reparametrization tree: construction, verification, geometric times.

Run:  python3 demos/04_reparam_tree.py
"""

import numpy as np

from acim1d import make_map, power_map
from acim1d.reparam import affine_reparam, choose_epsilon
from acim1d.times import density
from acim1d.tree import ReparamTree, distortion_suite, verify_tree

print("== a two-level tree for the doubling map at p = 7 (slope 128) ==")
f = make_map("doubling")
p = 7
eps = choose_epsilon(power_map(f, p))
sigma = affine_reparam(0.37, 0.9 * eps)
tree = ReparamTree(f, p, sigma, eps).build(2)
for i, lv in enumerate(tree.levels):
    n_exp = np.count_nonzero(lv.expanding)
    print(f"  level {i}: {len(lv):6d} vertices ({n_exp} expanding)")
ratios, ok = distortion_suite(tree)
print(f"  distortion over {ratios.size} vertices: worst "
      f"{ratios.max():.9f} (<= 3/2: {ok})")

print("\n== certificate verification ==")
rep = verify_tree(tree, witness_samples=32, cert_sample=32,
                  rng=np.random.default_rng(0))
for item in ("item1", "item2", "item3", "item4", "item5", "item6"):
    entry = rep[item]
    extra = {k: v for k, v in entry.items()
             if k not in ("ok",) and not isinstance(v, list)}
    print(f"  {item}: ok={entry['ok']}  {extra}")

print("\n== geometric times by lazy tree walk (3^5 x mod 1, slope 243) ==")
f3 = make_map("linear_circle", d=3.0)
p5 = 5
eps5 = choose_epsilon(power_map(f3, p5))
tree5 = ReparamTree(f3, p5, affine_reparam(0.37, 0.9 * eps5), eps5)
x = 0.3704
E = tree5.walk_geometric_times(x, 30)
print(f"  x = {x}: E = {E[:14]} ...")
print(f"  density d_30(E) = {density(E, 30):.3f}")
print("  (per-step expansion 243 > 81: every level splits expandingly;")
print("   maps with weaker per-step expansion need larger p, see ledger)")
