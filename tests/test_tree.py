"""Reparametrization-tree construction, certificates, walks."""

import math
import tracemalloc

import numpy as np
import pytest

from acim1d.errors import TreeBudgetExceeded
from acim1d.maps import CIRCLE, make_map, orbit_grid, power_map
from acim1d.reparam import affine_reparam, choose_epsilon
from acim1d.times import density, verify_hyperbolic
from acim1d.tree import (
    VERTEX, ReparamTree, _labels, _witness_pass_rates, distortion_suite,
    verify_tree,
)


def _doubling_tree(p=7, levels=2):
    f = make_map("doubling")
    eps = choose_epsilon(power_map(f, p))
    sig = affine_reparam(0.37, 0.9 * eps)
    return ReparamTree(f, p, sig, eps).build(levels), eps


def test_doubling_tree_builds_and_verifies():
    tree, eps = _doubling_tree()
    assert tree.n_vertices > 10 ** 4
    assert np.any(tree.levels[1].expanding)
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
    assert not any(np.any(lv.expanding) for lv in tree.levels[1:])
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
        if np.any(lv.expanding & (np.abs(t) <= 1.0 / 3.0 + 1e-12)):
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


def test_lazy_blocks_equal_slices_of_the_built_levels():
    # the walk visits parents in its own (distance) order, not vid order;
    # each cached block is that parent's children as built, byte for byte
    # in every field but the level-2 vids (numbered in the walk's order)
    built, _ = _doubling_tree(levels=2)
    lazy, _ = _doubling_tree(levels=0)
    for x in built.sigma_c + built.sigma_s * np.linspace(-0.9, 0.9, 7):
        lazy.walk_geometric_times(float(x), 2)
    assert len(lazy._lazy) > 8
    for v, block in lazy._lazy.items():
        level = built.levels[1 if v == 0 else 2]
        want = level[level.parent == v]
        assert len(block) == len(want) > 0
        for name in VERTEX.names:
            if name != "vid" or v == 0:
                assert block[name].tobytes() == want[name].tobytes(), (v, name)


def test_tree_memory_stays_lean():
    # acim1d verify's tree: 56,270 vertices of 102 bytes (5.7 MB).  The
    # peaks are 8.6 and 11.2 MB when the build drops its grid arrays and
    # per-child temporaries and verify_tree copies one column at a time;
    # a text vertex type or whole-record copies put both above 20 MB
    f = make_map("doubling")
    eps = choose_epsilon(power_map(f, 7))
    tree = ReparamTree(f, 7, affine_reparam(0.37, 0.9 * eps), eps)
    tracemalloc.start()
    try:
        tree.build(2)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert verify_tree(tree, rng=np.random.default_rng(0))["ok"]
        verify_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.n_vertices == 56270
    assert build_peak < 13e6 and verify_peak < 13e6, (build_peak,
                                                      verify_peak)


# -- witness covering: items 4 and 6 against the per-witness loop ------------


def _witness_rates_loop(tree, xs):
    """Items 4 and 6 of verify_tree by a loop over the witnesses, each
    evaluating param_of on every vertex of every level and carrying the
    label match down from the root: the oracle of _witness_pass_rates."""
    V = np.concatenate(tree.levels)
    ppos = np.searchsorted(V["vid"], V["parent"])
    expanding = V["expanding"]
    n_levels = len(tree.levels) - 1
    kx, kpx = _labels(orbit_grid(tree.g, xs, n_levels)[1])
    valid = np.logical_and.accumulate(kpx >= 0, axis=0)
    start = np.searchsorted(V["level"], np.arange(n_levels + 2))
    hits4 = np.zeros(n_levels)
    hits6 = np.zeros(n_levels)
    for w in range(xs.size):
        match = np.ones(1, dtype=bool)
        for n in range(1, 1 + np.count_nonzero(valid[:, w])):
            lv = slice(start[n], start[n + 1])
            match = (match[ppos[lv] - start[n - 1]]
                     & (V["k_label"][lv] == kx[n - 1, w])
                     & (V["kprime_label"][lv] == kpx[n - 1, w]))
            t = np.abs(tree.param_of(xs[w], V["theta_alpha"][lv],
                                     V["theta_rho"][lv]))
            inside = t <= 1.0 + 1e-9
            hits4[n - 1] += bool(np.any(inside & match & (
                ~expanding[lv] | (t <= 1.0 / 3.0 + 1e-9))))
            hits6[n - 1] += bool(np.any(inside))
    valid = np.count_nonzero(valid, axis=1).astype(float)
    return tuple(np.where(valid > 0, hits / np.maximum(valid, 1), 1.0)
                 for hits in (hits4, hits6))


# (preset, p, seed-curve centre as a function of eps, params, levels): the
# tree of acim1d verify, an interval map with expanding vertices, and a
# circle tree whose seed curve [c - 0.9 eps, c + 0.9 eps] straddles 0.  On
# doubling^7 the marked-point cuts end vertices at 0, so the straddling
# tree takes a map that does not fix 0; its level 2 would hold 2 x 10^5
# vertices.
WITNESS_TREES = {
    "doubling^7": ("doubling", 7, lambda eps: 0.37, {}, 2),
    "tent^9": ("tent", 9, lambda eps: 0.3, {}, 2),
    "across 0": ("linear_circle", 5, lambda eps: 0.3 * eps,
                 {"d": 3.0, "c": 0.1}, 1),
}


@pytest.mark.parametrize("key", sorted(WITNESS_TREES))
def test_witness_pass_rates_match_per_witness_loop(key):
    preset, p, centre, params, levels = WITNESS_TREES[key]
    f = make_map(preset, **params)
    eps = choose_epsilon(power_map(f, p))
    sig = affine_reparam(centre(eps), 0.9 * eps)
    tree = ReparamTree(f, p, sig, eps).build(levels)
    dom = tree.g.domain
    # verify_tree's own 64 witnesses, drawn after item 1's sample
    rep = verify_tree(tree, cert_sample=4, rng=np.random.default_rng(2))
    rng = np.random.default_rng(2)
    rng.choice(tree.n_vertices - 1, size=4, replace=False)
    xs = sig.point(rng.uniform(-0.98, 0.98, 64), dom)
    rate4, rate6 = _witness_rates_loop(tree, xs)
    assert rep["item4"]["pass_rate_per_level"] == rate4.tolist()
    assert rep["item6"]["pass_rate_per_level"] == rate6.tolist()
    # one witness at a time, some beyond the curve's ends and, across 0,
    # 11 within a level-1 vertex of sigma^-1(0)
    u = np.random.default_rng(5).uniform(-1.1, 1.1, 24)
    if key == "across 0":
        u = np.r_[u, -1.0 / 3.0 + np.linspace(-1e-4, 1e-4, 11)]
    xs = sig.point(u, dom)
    rates = _rates_of_each_witness(tree, xs)
    assert {0.0, 1.0} <= set(rates.ravel().tolist())
    if key == "across 0":
        # some witness lies in a vertex whose centre is across 0 from it,
        # which only the x - 1 or x + 1 window finds
        lv = tree.levels[1]
        A = tree.sigma_c + tree.sigma_s * lv.theta_alpha
        t = np.abs(tree.param_of(xs[:, None], lv.theta_alpha, lv.theta_rho))
        assert np.any((t <= 1.0 + 1e-9) & (np.abs(xs[:, None] - A) > 0.5))
    if key == "doubling^7":
        # every label of doubling^7 is the same; with k + 1 on a third of
        # each level's vertices, item 4 rests on the whole label path and
        # on the middle thirds: some witnesses lie in a level-2 vertex but
        # in no matching one
        flip = np.random.default_rng(7)
        for lv in tree.levels[1:]:
            lv.k_label[flip.random(len(lv)) < 1.0 / 3.0] += 1
        rates = _rates_of_each_witness(tree, xs)
        assert np.any((rates[:, 0, 1] == 0.0) & (rates[:, 1, 1] == 1.0))


def _rates_of_each_witness(tree, xs):
    """_witness_pass_rates at each witness alone, asserted equal to the
    loop's; shape (witnesses, item 4 / item 6, level)."""
    out = []
    for x in xs:
        got = _witness_pass_rates(tree, np.array([x]))
        want = _witness_rates_loop(tree, np.array([x]))
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), x
        out.append(want)
    return np.array(out)
