"""Bounded reparametrizations: certificates, distortion, epsilon.

The splitting into eps-bounded pieces runs inside the reparametrization
tree; demos/04_reparam_tree.py shows it.

Run:  python3 demos/03_reparametrizations.py
"""

import numpy as np

from acim1d import make_map, power_map
from acim1d.reparam import (
    Reparametrization, affine_reparam, check_bounded, choose_epsilon,
    taylor_window_check,
)

EPS = 1.0 / 16.0

print("== boundedness certificates ==")
print("  bounded: every higher derivative sup <= sup|sigma'| / 6")
for label, sig in [
        ("affine slope eps/2", affine_reparam(0.4, EPS / 2)),
        ("affine slope 2eps", affine_reparam(0.4, 2 * EPS)),
        ("quadratic c+eps t+eps t^2",
         Reparametrization(np.array([0.5, EPS, EPS]))),
        ("quadratic c+eps t+(eps/12) t^2",
         Reparametrization(np.array([0.5, EPS, EPS / 12]))),
]:
    cert = check_bounded(sig, eps=EPS)
    print(f"  {label:32s} bounded={str(cert.is_bounded):5s} "
          f"eps-bounded={str(cert.is_eps_bounded):5s} "
          f"sup1={cert.sup_first_deriv:.5f}")

sig = Reparametrization(np.array([0.5, EPS, EPS / 12]))
print(f"\n  distortion of the bounded quadratic: "
      f"{check_bounded(sig).distortion:.6f}"
      f"  (7/5 exactly; bounded maps stay below 3/2)")

print("\n== epsilon selection: (2 eps)^(r'-1) < 1 / (2 ||g'||_(r-1)) ==")
for name, p in (("doubling", 1), ("doubling", 7), ("logistic", 2)):
    g = power_map(make_map(name), p)
    eps = choose_epsilon(g)
    chk = taylor_window_check(g, eps, samples=32)
    print(f"  {name}^{p}: eps = {eps}  taylor-window margin "
          f"{chk['worst_margin']:.3g} ok={chk['ok']}")
