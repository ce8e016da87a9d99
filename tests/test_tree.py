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
    assert np.any(tree.levels[1].vtype == "Expanding")
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
        assert np.all(np.abs(lv.rho) <= 1.0 / 100.0 + 1e-15)


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
    assert all(np.all(lv.passthrough) for lv in tree.levels[1:])
    assert all(np.all(lv.vtype == "Plain") for lv in tree.levels[1:])
    rep = verify_tree(tree, witness_samples=16, cert_sample=8)
    assert rep["ok"]
    assert rep["item5"]["log_factor_regularized"]


def test_budget_exceeded():
    f = make_map("doubling")
    p = 7
    eps = choose_epsilon(power_map(f, p))
    sig = affine_reparam(0.37, 0.9 * eps)
    tree = ReparamTree(f, p, sig, eps, level_budget=1000)
    jets = tree._curve_jets
    calls = []   # True for a pass's label sweep, False for a certificate

    def recording(*args, want_labels=False, **kw):
        calls.append(want_labels)
        return jets(*args, want_labels=want_labels, **kw)

    tree._curve_jets = recording
    with pytest.raises(TreeBudgetExceeded) as exc:
        tree.build(2)
    assert exc.value.budget == 1000
    assert exc.value.count > 1000
    assert exc.value.growth_rate is not None
    # the pass that raised tiled its pieces but certified none of them
    assert calls[-1] is True


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
        lv = tree.levels[n]
        t = tree.param_of(x, lv.theta_alpha, lv.theta_rho)
        if np.any((lv.vtype == "Expanding")
                  & (np.abs(t) <= 1.0 / 3.0 + 1e-12)):
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


# -- batch invariance: a parent's children do not depend on its batch -------


def _expand_alone(tree, parents, vid):
    """tree._expand(parents) with vids counted from vid; the tree's own
    vid counter is left as it was."""
    saved, tree._next_vid = tree._next_vid, vid
    try:
        return tree._expand(parents)
    finally:
        tree._next_vid = saved


def _assert_batch_invariant(tree, parents, batch, sample=24):
    """Each sampled parent expanded alone equals, byte for byte in every
    field, its contiguous slice of batch (the children of all parents)."""
    idx = np.arange(len(parents))
    if idx.size > sample:
        idx = np.unique(np.r_[0, idx[-1], np.random.default_rng(0).choice(
            idx.size, sample - 2, replace=False)])
    for i in idx.tolist():
        vid = parents.vid[i]
        lo, hi = np.searchsorted(batch.parent, [vid, vid + 1])
        start = batch.vid[lo] if hi > lo else tree._next_vid
        alone = _expand_alone(tree, parents[i:i + 1], start)
        assert alone.tobytes() == batch[lo:hi].tobytes(), (vid, lo, hi)


def _tree(preset, p, center, levels, params):
    f = make_map(preset, **params)
    eps = choose_epsilon(power_map(f, p))
    return ReparamTree(f, p, affine_reparam(center, 0.9 * eps), eps).build(
        levels)


# logistic^6 at center 0.5122706219797136: g(center) = y* with g(y*) = 1e-9,
# so one level-1 vertex's level-2 curve crosses the marked-point band
# |v| < 1e-9 of the interval (one flipped child); at center 0.5 the root
# curve hits the critical point on the grid (k' = -1, an excluded run)
BATCH_TREES = {
    "doubling^7": ("doubling", 7, 0.37, 2, {}),
    "linear_circle(3)^5": ("linear_circle", 5, 0.37, 2, {"d": 3.0}),
    "perturbed_circle(5,0.2)^3": ("perturbed_circle", 3, 0.37, 2,
                                  {"d": 5, "delta": 0.2}),
    "rotation": ("affine", 1, 0.4, 4,
                 {"c0": 0.23, "c1": 1.0, "domain": "circle"}),
    "logistic^6 marked": ("logistic", 6, 0.5122706219797136, 2,
                          {"smoothness_r": 4.0}),
    "logistic^6 critical": ("logistic", 6, 0.5, 2, {"smoothness_r": 4.0}),
}


@pytest.mark.parametrize("key", sorted(BATCH_TREES))
def test_expand_is_batch_invariant(key):
    tree = _tree(*BATCH_TREES[key])
    for n in range(1, len(tree.levels)):
        _assert_batch_invariant(tree, tree.levels[n - 1], tree.levels[n])
    if key == "logistic^6 marked":
        assert np.count_nonzero(tree.levels[2].rho < 0) == 1
    if key == "logistic^6 critical":
        # the run [t_96, t_97] = [0, 1/96] of the root grid is excluded
        lv = tree.levels[1]
        assert not np.any(np.abs(lv.alpha - 1.0 / 192.0) <= np.abs(lv.rho))


def test_walk_same_on_built_and_unbuilt_tree():
    built, _ = _doubling_tree(levels=2)
    lazy, _ = _doubling_tree(levels=0)
    xs = built.sigma_c + built.sigma_s * np.random.default_rng(3).uniform(
        -1.0, 1.0, 200)
    walks = [built.walk_geometric_times(float(x), 2) for x in xs]
    assert walks == [lazy.walk_geometric_times(float(x), 2) for x in xs]
    assert sum(map(len, walks)) > 200
