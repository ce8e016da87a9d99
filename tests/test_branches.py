"""Monotone-branch partitions and the branch-counting bound."""

import math

import numpy as np

from acim1d.branches import (
    Branch, BranchPartition, count_branches_with_min_slope, monotone_branches,
)
from acim1d.maps import BUCKETS, estimate_norms, make_map, power_map
from partition_oracle import refine_branches


def _sorted_lefts(part):
    return sorted(br.a for br in part.branches)


def test_doubling_two_branches():
    part = monotone_branches(make_map("doubling"))
    assert len(part.branches) == 2
    np.testing.assert_allclose(_sorted_lefts(part), [0.0, 0.5], atol=1e-10)
    assert all(abs(br.length - 0.5) < 1e-10 for br in part.branches)


def test_logistic_split_at_half():
    part = monotone_branches(make_map("logistic"))
    assert len(part.branches) == 2
    np.testing.assert_allclose(_sorted_lefts(part), [0.0, 0.5], atol=1e-10)
    signs = {br.sign for br in part.branches}
    assert signs == {1, -1}


def test_triple_map_three_branches():
    part = monotone_branches(make_map("linear_circle", d=3.0))
    assert len(part.branches) == 3
    np.testing.assert_allclose(_sorted_lefts(part), [0, 1 / 3, 2 / 3], atol=1e-10)


def test_constant_sign_and_injectivity_on_branches():
    g = power_map(make_map("logistic"), 2)
    part = monotone_branches(g)
    rng = np.random.default_rng(5)
    for br in part.branches:
        xs = br.a + rng.uniform(0, 1, 200) * br.length * 0.999
        ds = g.deriv(1, xs)
        assert np.all(np.sign(ds) == br.sign)
        # injectivity: equal images force equal points
        ys = g.eval(xs)
        order = np.argsort(xs)
        diffs = np.abs(np.diff(ys[order]))
        gaps = np.diff(xs[order])
        assert np.all(diffs[gaps > 1e-6] > 0)


def test_count_with_min_slope_doubling():
    g = make_map("doubling")
    count, rep = count_branches_with_min_slope(g, 1.0, monotone_branches(g),
                                               estimate_norms(g))
    assert count == 2
    assert rep["bound"] >= 2
    assert rep["within_bound"]


def test_count_with_min_slope_logistic_above_sup():
    g = make_map("logistic")
    count, rep = count_branches_with_min_slope(g, 5.0, monotone_branches(g),
                                               estimate_norms(g))
    assert count == 0 and rep["within_bound"]


def test_count_logistic_squared_exhaustive():
    # oracle: enumerate the 4 branches of f^2 and their slope sups directly
    g = power_map(make_map("logistic"), 2)
    part = monotone_branches(g)
    assert len(part.branches) == 4
    rng = np.random.default_rng(9)
    oracle = 0
    for br in part.branches:
        xs = br.a + rng.uniform(0, 1, 4000) * br.length
        if np.max(np.abs(g.deriv(1, xs))) >= 1.0:
            oracle += 1
    count, rep = count_branches_with_min_slope(g, 1.0, part,
                                               estimate_norms(g))
    assert count == oracle
    assert rep["within_bound"]


def test_refine_doubling():
    part = refine_branches(make_map("doubling"), 2)
    assert len(part.branches) == 4
    assert all(abs(br.length - 0.25) < 1e-9 for br in part.branches)


def test_refine_triple():
    part = refine_branches(make_map("linear_circle", d=3.0), 2)
    assert len(part.branches) == 9


def test_refine_logistic_cut_points():
    # oracle: 4x(1-x) = 1/2 solves to x = (2 -+ sqrt(2))/4
    rho = (2 - math.sqrt(2)) / 4
    part = refine_branches(make_map("logistic"), 2)
    cuts = sorted(p for p, _ in part.cut_points if 0 < p < 1)
    np.testing.assert_allclose(cuts, [rho, 0.5, 1 - rho], atol=1e-9)
    assert len(part.branches) == 4
    # cross-check cut points with sign changes of (f^2)'
    g = power_map(make_map("logistic"), 2)
    for c in cuts:
        assert g.deriv(1, c - 1e-7) * g.deriv(1, c + 1e-7) < 0


def test_branch_count_submultiplicative():
    for name, d in (("doubling", None), ("linear_circle", 3.0)):
        f = make_map(name) if d is None else make_map(name, d=d)
        b1 = len(monotone_branches(f).branches)
        for n in (2, 3):
            bn = len(refine_branches(f, n).branches)
            assert bn <= b1 ** n


def test_locate_many_consistent():
    part = monotone_branches(power_map(make_map("logistic"), 2))
    xs = np.random.default_rng(2).uniform(0, 1, 300)
    idx = part.locate_many(xs)
    for x, i in zip(xs, idx):
        assert i == part.locate(float(x))


def test_locate_many_over_slices():
    # three 2^16-point slices and a remainder, given as a 2-D array: the
    # labels equal those of small calls, and locate's at the slice seams
    for g in (power_map(make_map("doubling"), 4),
              power_map(make_map("logistic"), 2)):
        part = monotone_branches(g)
        xs = np.random.default_rng(7).uniform(-1.0, 2.0, (4, 50000))
        got = part.locate_many(xs)
        assert got.shape == xs.shape and got.dtype == np.int64
        flat, got = xs.reshape(-1), got.reshape(-1)
        want = np.concatenate([part.locate_many(flat[i:i + 999])
                               for i in range(0, flat.size, 999)])
        assert np.array_equal(got, want)
        for i in (0, 65535, 65536, 131071, 131072, 196608, flat.size - 1):
            assert got[i] == part.locate(float(flat[i]))
        assert part.locate_many(np.empty(0)).shape == (0,)


def test_locate_many_matches_scalar_locate():
    # doubling^4 (circle, 16 branches), an affine circle map whose second
    # branch wraps past 1, and logistic^6 (interval, 64 branches); negative
    # inputs include x just below 0, where x % 1.0 rounds to 1.0
    from acim1d.maps import CIRCLE

    maps = (power_map(make_map("doubling"), 4),
            make_map("affine", c0=0.3, c1=2.0, domain=CIRCLE),
            power_map(make_map("logistic"), 6))
    rng = np.random.default_rng(5)
    below_one = np.nextafter(1.0, 0.0)
    for g in maps:
        part = monotone_branches(g)
        cuts = np.array([p for p, _ in part.cut_points], dtype=float)
        ends = np.array([br.a + br.length for br in part.branches])
        xs = np.concatenate([
            rng.uniform(0.0, 1.0, 2000), cuts, np.nextafter(cuts, 2.0),
            np.nextafter(cuts[cuts > 0.0], -1.0), ends % 1.0,
            [0.0, below_one, 0.5]])
        xs = xs[xs < 1.0]
        if part.is_circle:
            xs = np.concatenate([xs, xs + 1.0])
        xs = np.concatenate([xs, [-5e-324, np.nextafter(0.0, -1.0), -1e-17],
                             cuts - 1.0, rng.uniform(-1.0, 0.0, 500)])
        got = part.locate_many(xs)
        want = [part.locate(float(x)) for x in xs]
        assert got.tolist() == want, g.name
        assert part.locate_many(np.float64(0.0)) == part.locate(0.0)
    wrapping = monotone_branches(maps[1]).branches
    assert any(br.a + br.length > 1.0 for br in wrapping)


def _hand_built(lefts, circle):
    """Branches from each left end to the next (on the circle the last one
    wraps past 1 to the first), every 7th and the last cut to half their
    length, so some points lie in no branch."""
    rights = np.append(lefts[1:], lefts[0] + 1.0 if circle else 1.0)
    i = np.arange(lefts.size)
    lengths = (rights - lefts) * np.where((i % 7 == 3) | (i == i[-1]),
                                          0.5, 1.0)
    branches = [Branch(a=float(a), length=float(w), sign=1, sup_slope=1.0)
                for a, w in zip(lefts, lengths)]
    return BranchPartition("hand", branches, [], circle, [])


def _probe_points(part, rng, n):
    lefts = np.array([br.a for br in part.branches])
    ends = np.array([br.a + br.length for br in part.branches]) % 1.0
    edges = np.concatenate([lefts, ends])
    return np.concatenate([
        rng.choice(edges, n), np.nextafter(rng.choice(edges, n), -1.0),
        np.nextafter(rng.choice(edges, n), 2.0), rng.uniform(-1.0, 2.0, n),
        [0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, -1e-17]])


def test_locate_many_clustered_and_large_partitions():
    # 256 branches inside one of SortedTable's buckets, and 20,000
    # branches, on both domains: locate_many equals locate point by point
    rng = np.random.default_rng(3)
    b = int(0.3 * BUCKETS)
    clustered = np.concatenate([
        [0.0, 0.1], b / BUCKETS + np.arange(256) * 2.0 ** -22, [0.6, 0.95]])
    large = np.unique(rng.uniform(0.0, 1.0, 20000))
    for lefts, n in ((clustered, 400), (large, 60)):
        for circle in (False, True):
            part = _hand_built(lefts[1:] if circle else lefts, circle)
            # on the circle the last branch wraps past 1 and stops short
            # of the first left end
            assert not circle or 1.0 < part.branches[-1].b < 1.0 + lefts[1]
            assert part._lookup[0].start.nbytes <= 128 * 1024
            xs = _probe_points(part, rng, n)
            got = part.locate_many(xs)
            assert got.tolist() == [part.locate(float(x)) for x in xs]
            assert (got == -1).any() and (got >= 0).any()
    assert np.unique(np.floor(clustered[2:-2] * BUCKETS)).size == 1


def test_locate_many_non_finite():
    # NaN and +-inf lie in no branch, alone or beside finite points
    bad = [np.nan, np.inf, -np.inf]
    for g in (power_map(make_map("doubling"), 4),
              power_map(make_map("logistic"), 6)):
        part = monotone_branches(g)
        with np.errstate(invalid="ignore"):
            assert part.locate_many(bad).tolist() == [-1, -1, -1]
            got = part.locate_many([0.3, *bad, 0.7])
        assert got.tolist() == [part.locate(0.3), -1, -1, -1,
                                part.locate(0.7)]
