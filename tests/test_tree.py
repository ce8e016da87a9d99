"""Reparametrization-tree construction, certificates, walks."""

import math

import numpy as np
import pytest

from acim1d.errors import TreeBudgetExceeded
from acim1d.maps import CIRCLE, make_map, power_map
from acim1d.reparam import affine_reparam, choose_epsilon
from acim1d.times import density, verify_hyperbolic
from acim1d.tree import ReparamTree, distortion_suite, verify_tree


def _doubling_tree(p=7, levels=2):
    f = make_map("doubling")
    eps = choose_epsilon(power_map(f, p))
    sig = affine_reparam(0.37, 0.9 * eps)
    return ReparamTree(f, p, sig, eps).build(levels), eps


def test_doubling_tree_builds_and_verifies():
    tree, eps = _doubling_tree()
    assert tree.n_vertices > 10 ** 4
    assert any(v.vtype == "Expanding" for v in tree.levels[1])
    rep = verify_tree(tree, witness_samples=32, cert_sample=32,
                      rng=np.random.default_rng(1))
    assert rep["ok"], {k: v for k, v in rep.items() if isinstance(v, dict)
                       and not v.get("ok", True)}


def test_distortion_suite_all_below_three_halves():
    tree, _ = _doubling_tree()
    ratios, ok = distortion_suite(tree)
    assert ok and len(ratios) > 10 ** 4
    assert np.max(ratios) <= 1.5 + 1e-9


def test_rate_cap_every_vertex():
    tree, _ = _doubling_tree(levels=2)
    for lv in tree.levels[1:]:
        for v in lv:
            assert abs(v.rho) <= 1.0 / 100.0 + 1e-15


def test_corrupted_rate_flagged():
    tree, _ = _doubling_tree(levels=1)
    victim = tree.levels[1][3]
    victim.rho = 1.0 / 50.0
    rep = verify_tree(tree, witness_samples=8, cert_sample=8)
    assert victim.vid in rep["item2"]["rate_violations"]
    assert not rep["item2"]["ok"]
    assert not rep["ok"]


def test_rotation_tree_is_single_chain():
    rot = make_map("affine", c0=0.23, c1=1.0, domain=CIRCLE)
    eps = choose_epsilon(rot)
    sig = affine_reparam(0.4, 0.5 * eps)
    tree = ReparamTree(rot, 1, sig, eps).build(4)
    assert [len(lv) for lv in tree.levels] == [1, 1, 1, 1, 1]
    assert all(v.passthrough for lv in tree.levels[1:] for v in lv)
    assert all(v.vtype == "Plain" for lv in tree.levels[1:] for v in lv)
    rep = verify_tree(tree, witness_samples=16, cert_sample=8)
    assert rep["ok"]
    assert rep["item5"]["log_factor_regularized"]


def test_budget_exceeded():
    f = make_map("doubling")
    p = 7
    eps = choose_epsilon(power_map(f, p))
    sig = affine_reparam(0.37, 0.9 * eps)
    with pytest.raises(TreeBudgetExceeded) as exc:
        ReparamTree(f, p, sig, eps, level_budget=1000).build(2)
    assert exc.value.budget == 1000
    assert exc.value.growth_rate is not None


def test_walk_geometric_times_dense_on_strong_expansion():
    # 3^5 = 243 per-step expansion: every level splits, so the walk sees
    # geometric times at almost every level
    f = make_map("linear_circle", d=3.0)
    p = 5
    eps = choose_epsilon(power_map(f, p))
    sig = affine_reparam(0.37, 0.9 * eps)
    tree = ReparamTree(f, p, sig, eps)
    x = 0.37 + 0.0004
    E = tree.walk_geometric_times(x, 30)
    assert density(E, 30) > 0.5
    # cross-check: every detected time passes the hyperbolic-time test
    g = tree.g
    rep = verify_hyperbolic(g, x, E, 30, 3, 2,
                            log_sup_gprime=math.log(243.0))
    assert rep["i_ok"] and rep["ii_ok"] and rep["iii_ok"]


def test_walk_weak_expansion_is_empty_under_rate_cap():
    # 3^3 = 27 < 81: certifiable expanding splits are impossible at rate
    # 1/100, so the tree detector returns no geometric times (the
    # surrogate detector covers this regime; see decisions ledger)
    f = make_map("linear_circle", d=3.0)
    p = 3
    eps = choose_epsilon(power_map(f, p))
    sig = affine_reparam(0.37, 0.9 * eps)
    tree = ReparamTree(f, p, sig, eps)
    E = tree.walk_geometric_times(0.3702, 12)
    assert len(E) == 0


def test_walk_matches_materialized_levels():
    # the lazy walk and the materialized tree agree on which vertices
    # contain the point
    f = make_map("doubling")
    p = 7
    eps = choose_epsilon(power_map(f, p))
    sig = affine_reparam(0.37, 0.9 * eps)
    tree = ReparamTree(f, p, sig, eps).build(2)
    x = 0.3704
    E = tree.walk_geometric_times(x, 2)
    manual = []
    for n in (1, 2):
        found = False
        for v in tree.levels[n]:
            t = tree.param_of(x, v.theta_alpha, v.theta_rho)
            if v.vtype == "Expanding" and abs(t) <= 1.0 / 3.0 + 1e-12:
                found = True
                break
        if found:
            manual.append(n)
    assert E == manual


def test_tree_rows_export():
    tree, eps = _doubling_tree(levels=1)
    rows = tree.to_rows()
    assert len(rows) == len(tree.levels[1])
    lvl, parent, rate, k, kp, vtype, lo, hi, margin3 = rows[0]
    assert lvl == 1 and parent == 0
    assert abs(rate) <= 1 / 100 + 1e-15
    assert hi > lo
