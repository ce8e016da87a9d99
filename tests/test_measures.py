"""Seed pools, A_n selection, empirical measures, density comparisons."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from acim1d import measures
from acim1d.errors import EmptySelection
from acim1d.maps import CIRCLE, make_map, power_map
from acim1d.measures import (
    BIN_NODES, EmpiricalMeasure, SamplePool, build_seed_pool, compare_density,
    density_estimate, empirical_measure, forward_points, invariance_defect,
    log_derivs_at, positive_exponent_proxy, ref_logistic_acip, ref_uniform,
    select_An, support_gap_from_critical,
)
from acim1d.maps import critical_set, orbit_grid
from acim1d.probes import probe_functions
from acim1d.times import boundary_counts, chain_table, surrogate_mask

LOG2 = math.log(2.0)


def _doubling_pool(n=10, seeds=2000, p=4, seed=0):
    f = make_map("doubling")
    rng = np.random.default_rng(seed)
    return build_seed_pool(f, p, n, seeds, rng), f


def test_pool_surrogate_times_full_for_strong_expansion():
    pool, _ = _doubling_pool()
    # 2^4 = 16 > 10: every time is a surrogate time
    assert all(pool.time_list(s) == list(range(1, pool.n_orbit + 1))
               for s in range(pool.n_seeds))


def test_select_all_pass_doubling():
    pool, _ = _doubling_pool()
    sel = select_An(pool, 10, beta=0.5, b=0.5, p=4)
    assert sel.n_selected == pool.n_seeds
    assert sel.leb_proxy_ok


def test_select_empty_when_b_too_large():
    pool, _ = _doubling_pool()
    with pytest.raises(EmptySelection):
        select_An(pool, 10, beta=0.5, b=LOG2 + 0.1, p=4)


def test_single_seed_uniform_weights():
    pool, _ = _doubling_pool(seeds=1)
    sel = select_An(pool, 10, 0.5, 0.5, 4)
    mu = empirical_measure(sel, M=2, m=1)
    # raw times are {1..18}; below n=10 the clip gives [[1 ; 9[[, 8 atoms
    assert mu.n_atoms == 8
    np.testing.assert_allclose(mu.weights, 1.0 / 8.0)
    assert abs(np.sum(mu.weights) - 1.0) < 1e-12


def test_empirical_measure_reads_a_given_chain_table():
    # a table past n trims alike (trim_masks reads no column from n on);
    # a table at another M, or of other rows, is refused
    pool, _ = _doubling_pool(seeds=300)
    sel = select_An(pool, 10, 0.5, 0.5, 4)
    E = pool.time_mask[sel.indices]
    mu = empirical_measure(sel, M=2, m=2)
    got = empirical_measure(sel, M=2, m=2, table=chain_table(E, 2))
    assert np.array_equal(got.atoms, mu.atoms)
    assert np.array_equal(got.per_seed_boundary, mu.per_seed_boundary)
    for table in (chain_table(E, 3), chain_table(E[1:], 2)):
        with pytest.raises(ValueError):
            empirical_measure(sel, M=2, m=2, table=table)


def test_doubling_measure_close_to_lebesgue():
    pool, _ = _doubling_pool(seeds=20000)
    sel = select_An(pool, 10, 0.5, 0.5, 4)
    mu = empirical_measure(sel, M=2, m=1)
    est = density_estimate(mu, 100)
    l1 = compare_density(est, ref_uniform)
    assert l1 < 0.05


def test_nu_mass_is_beta_ratio():
    pool, _ = _doubling_pool(seeds=500)
    sel = select_An(pool, 10, 0.5, 0.5, 4)
    beta_inf = 1.0
    nu = empirical_measure(sel, M=2, m=2, normalization="nu",
                           beta_inf=beta_inf)
    assert math.isclose(np.sum(nu.weights), nu.meta["beta_nMm"] / beta_inf,
                        rel_tol=1e-12)


def test_nu_atoms_grow_with_M():
    pool, _ = _doubling_pool(seeds=300, n=12)
    sel = select_An(pool, 12, 0.5, 0.5, 4)
    sizes = []
    for M in (1, 2, 4):
        nu = empirical_measure(sel, M=M, m=2, normalization="nu", beta_inf=1.0)
        sizes.append(nu.n_atoms)
    assert sizes[0] <= sizes[1] <= sizes[2]


def test_invariance_defect_full_interval_bound():
    # E_n^{M,1} = [[1, 9[[ per seed: #dE = 2, so the mu-defect bound is 2/8
    pool, f = _doubling_pool(seeds=4000)
    g = power_map(f, 4)
    sel = select_An(pool, 10, 0.5, 0.5, 4)
    mu = empirical_measure(sel, M=2, m=1)
    rep = invariance_defect(mu, g)
    assert math.isclose(rep["bound"], 2.0 / 8.0, rel_tol=1e-12)
    assert rep["ok"]


def test_invariance_defect_on_invariant_grid():
    # discretized Lebesgue on the circle is doubling-invariant up to the
    # grid resolution
    f = make_map("doubling")
    N = 2 ** 16
    xs = (np.arange(N) + 0.5) / N
    mu = EmpiricalMeasure(atoms=xs, weights=np.full(N, 1.0 / N), meta={})
    rep = invariance_defect(mu, f)
    assert rep["defect"] <= 1e-3


def test_empty_nu_measure_defect_zero():
    f = make_map("doubling")
    mu = EmpiricalMeasure(atoms=np.array([]), weights=np.array([]),
                          meta={"normalization": "nu"})
    rep = invariance_defect(mu, f)
    assert rep["defect"] == 0.0


def test_density_masses_sum_to_total():
    pool, _ = _doubling_pool(seeds=100)
    sel = select_An(pool, 10, 0.5, 0.5, 4)
    mu = empirical_measure(sel, M=2, m=1)
    est = density_estimate(mu, 50)
    assert abs(np.sum(est.masses) - np.sum(mu.weights)) < 1e-12


def test_dirac_vs_uniform_l1_is_near_two():
    mu = EmpiricalMeasure(atoms=np.full(10, 0.503), weights=np.full(10, 0.1),
                          meta={})
    est = density_estimate(mu, 200)
    l1 = compare_density(est, ref_uniform)
    assert l1 > 1.9  # singular measure: mass 1 in one bin vs spread-out ref


def test_logistic_reference_by_conjugacy_oracle():
    # oracle: y = sin^2(pi u / 2) with u uniform has the arcsine density;
    # its histogram should be L1-close to the closed form
    rng = np.random.default_rng(42)
    u = rng.uniform(0, 1, 200000)
    y = np.sin(math.pi * u / 2.0) ** 2
    mu = EmpiricalMeasure(atoms=y, weights=np.full(y.size, 1.0 / y.size),
                          meta={})
    est = density_estimate(mu, 200)
    assert compare_density(est, ref_logistic_acip) < 0.05


def _bin_mass_loop(ref, a, b):
    """One bin's reference mass by the midpoint rule, bin by bin."""
    ts = a + (np.arange(BIN_NODES) + 0.5) * (b - a) / BIN_NODES
    return float(np.mean(ref(ts)) * (b - a))


@pytest.mark.parametrize("bins", [10, 50, 200])
@pytest.mark.parametrize("ref", [ref_uniform, ref_logistic_acip])
def test_bin_masses_match_per_bin_loop(bins, ref):
    rng = np.random.default_rng(bins)
    mu = EmpiricalMeasure(atoms=rng.uniform(0, 1, 5000),
                          weights=rng.uniform(0, 2e-4, 5000), meta={})
    est = density_estimate(mu, bins)
    want = [(a, b, float(v), _bin_mass_loop(ref, a, b)) for a, b, v in zip(
        est.edges[:-1], est.edges[1:], est.masses)]
    assert est.to_rows(ref) == want
    l1 = 0.0
    for _, _, v, r in want:
        l1 += abs(v - r)
    assert compare_density(est, ref) == l1
    assert all(math.isnan(r[3]) for r in est.to_rows())


def test_support_gap_no_criticals():
    pool, f = _doubling_pool(seeds=50)
    sel = select_An(pool, 10, 0.5, 0.5, 4)
    mu = empirical_measure(sel, M=2, m=1)
    rep = support_gap_from_critical(mu, critical_set(f))
    assert rep["gap"] == float("inf")


def test_support_gap_logistic_floor():
    f = make_map("logistic", smoothness_r=4.0)
    p = 6
    rng = np.random.default_rng(3)
    pool = build_seed_pool(f, p, 40, 400, rng)
    sel = select_An(pool, 40, 0.05, 0.45, p)
    mu = empirical_measure(sel, M=2, m=1)
    g = power_map(f, p)
    crit = critical_set(g, grid_size=16384)
    rep = support_gap_from_critical(mu, crit, g=g, M=2)
    assert rep["gap"] > 0.0
    assert rep["deriv_floor_ok"]


def test_support_gap_artificial_atom_flagged():
    mu = EmpiricalMeasure(atoms=np.array([0.5]), weights=np.array([1.0]),
                          meta={})
    rep = support_gap_from_critical(mu, [0.5])
    assert rep["gap"] == 0.0 and rep["flagged_zero"]


def _gap_oracle(atoms, critical_pts, circle):
    """The full atoms x critical-points distance matrix, minimized."""
    pts = [c for c in critical_pts if not isinstance(c, tuple)]
    for c in critical_pts:
        if isinstance(c, tuple):
            pts.extend(c)
    d = np.abs(atoms[:, None] - np.asarray(pts, dtype=float)[None, :])
    if circle:
        d = np.minimum(d, 1.0 - d)
    return float(np.min(d))


_UNIT = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def _atoms_near_criticals(draw):
    crit = draw(st.lists(st.one_of(
        _UNIT, st.sampled_from([0.0, 0.5, 1.0 - 2 ** -53]),
        st.tuples(_UNIT, _UNIT)), min_size=1, max_size=6))
    flat = [p for c in crit for p in (c if isinstance(c, tuple) else (c,))]
    near = st.sampled_from(flat).flatmap(lambda c: st.sampled_from(
        [c, np.nextafter(c, -1.0), np.nextafter(c, 2.0)]))
    atoms = draw(st.lists(st.one_of(
        _UNIT, near, st.sampled_from([0.0, 1.0 - 2 ** -53])),
        min_size=1, max_size=40))
    return np.clip(np.array(atoms, dtype=float), 0.0, 1.0 - 2 ** -53), crit


@given(_atoms_near_criticals(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_support_gap_matches_full_matrix_minimum(case, circle):
    atoms, crit = case
    g = make_map("doubling" if circle else "logistic")
    mu = EmpiricalMeasure(atoms=atoms, weights=np.full(atoms.size, 1.0),
                          meta={})
    assert support_gap_from_critical(mu, crit, g=g)["gap"] == \
        _gap_oracle(atoms, crit, circle)
    if not circle:
        assert support_gap_from_critical(mu, crit)["gap"] == \
            _gap_oracle(atoms, crit, False)


def test_support_gap_wraps_on_the_circle():
    mu = EmpiricalMeasure(atoms=np.array([1.0 - 2 ** -53, 0.25]),
                          weights=np.array([0.5, 0.5]), meta={})
    assert support_gap_from_critical(mu, [0.0], g=make_map("doubling"))[
        "gap"] == 2 ** -53
    assert support_gap_from_critical(mu, [0.0])["gap"] == 0.25


def test_positive_exponent_proxy_doubling():
    pool, _ = _doubling_pool(seeds=100)
    sel = select_An(pool, 10, 0.5, 0.5, 4)
    mu = empirical_measure(sel, M=2, m=1)
    assert positive_exponent_proxy(mu) == 1.0


def _proxy_oracle(mu):
    """positive_exponent_proxy by its per-atom definition: some l in E(x),
    l > i, with S_l - S_i >= (l - i) log 10 (a NaN difference fails)."""
    pool, log10 = mu.pool, np.log(10.0)
    chain = np.vstack([np.zeros(pool.n_seeds),
                       np.cumsum(pool.log_derivs, axis=0)])
    with np.errstate(invalid="ignore"):
        ok = sum(
            any(chain[l, s] - chain[i, s] >= (l - i) * log10 - 1e-9
                for l in pool.time_list(s) if l > i)
            for s, i in zip(mu.seed_idx, mu.time_idx))
    return ok / mu.n_atoms


def test_positive_exponent_proxy_matches_per_atom_definition():
    # times detected at expansion 4 < 10 leave atoms without a 10-expanding
    # later segment: log|g'| raised by log(10/4) makes the detector's
    # c = 10 read c = 4
    pool = build_seed_pool(make_map("logistic"), 3, 20, 1500,
                           np.random.default_rng(3))
    pool.time_mask = surrogate_mask(pool.log_derivs + math.log(2.5))
    mu = empirical_measure(select_An(pool, 20, 0.1, 0.0, 3), M=3, m=1)
    assert 0.0 < positive_exponent_proxy(mu) == _proxy_oracle(mu) < 1.0
    # any time mask, not only the detector's
    rng = np.random.default_rng(4)
    pool.time_mask = rng.random(pool.time_mask.shape) < 0.3
    assert 0.0 < positive_exponent_proxy(mu) == _proxy_oracle(mu) < 1.0

    # a hand-built pool; log|g'| per step: seed 0 hits a critical point at step 2, seed 2 at
    # step 0; from there on its chain S is -inf.  Seed 1's last step is NaN,
    # which fails only the comparisons it enters
    lds = np.array([[3.0, 1.0, -np.inf], [3.0, 5.0, 3.0], [-np.inf, 1.0, 3.0],
                    [3.0, np.nan, 3.0]])
    mask = np.zeros((3, 5), dtype=bool)
    mask[0, 1:] = mask[1, [2, 4]] = mask[2, :] = True
    pool = SamplePool(seeds=np.zeros(3), points=np.zeros((5, 3)),
                      log_derivs=lds, time_mask=mask, provenance={}, n_orbit=4)
    seed_idx = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2])
    time_idx = np.array([0, 1, 2, 3, 0, 1, 2, 4, 0])
    mu = EmpiricalMeasure(atoms=np.zeros(9), weights=np.full(9, 1 / 9),
                          meta={}, seed_idx=seed_idx, time_idx=time_idx,
                          pool=pool)
    # passing: (0, 0) and (0, 1) before the hit, (1, 0) and (1, 1); failing:
    # (0, 2) and (2, 0) whose later chain is -inf, (0, 3) on a -inf chain,
    # (1, 2) with a NaN later chain and (1, 4) with no later time
    assert positive_exponent_proxy(mu) == _proxy_oracle(mu) == 4 / 9


def test_invariance_defect_fails_closed_without_bound():
    # no per-seed boundary counts: the bound is NaN, which must not pass
    f = make_map("doubling")
    xs = (np.arange(64) + 0.5) / 64
    mu = EmpiricalMeasure(atoms=xs, weights=np.full(64, 1.0 / 64), meta={})
    rep = invariance_defect(mu, f)
    assert math.isnan(rep["bound"])
    assert rep["ok"] is False


@given(st.sampled_from(["doubling", "logistic"]), st.integers(0, 2 ** 16),
       st.integers(3, 12), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["mu", "nu"]))
@settings(max_examples=60, deadline=None)
def test_empirical_measure_atoms_are_the_pool_gather(name, seed, n, M, m,
                                                     norm):
    # forward_points yields mu.atoms at j = 0 in place of this gather
    f = make_map(name)
    pool = build_seed_pool(f, 4, n, 40, np.random.default_rng(seed))
    try:
        sel = select_An(pool, n, beta=0.05, b=0.0, p=4)
        mu = empirical_measure(sel, M, m, normalization=norm, beta_inf=0.5)
    except EmptySelection:
        assume(False)
    assert np.array_equal(mu.atoms, pool.points[mu.time_idx, mu.seed_idx])
    xs = list(forward_points(mu, 3))
    assert xs[0] is mu.atoms
    for j in (1, 2):
        assert np.array_equal(xs[j],
                              pool.points[mu.time_idx + j, mu.seed_idx])


U = 2.0 ** -53          # unit roundoff of float64


def _exact_products(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly: Dekker's
    product by Veltkamp splitting, exact unless a product underflows."""
    def split(x):
        t = 134217729.0 * x         # 2^27 + 1
        hi = t - (t - x)
        return hi, x - hi
    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _telescoped_points(mu, gx):
    """The points of g_*mu - mu with a non-zero signed weight, and those
    weights: -w at each atom, +w at its image.  A pool point is keyed by
    its (seed, time), so an image that is the next atom adds to that
    atom's weight; without a pool every atom and image is its own point."""
    coef, value = {}, {}
    for i, w in enumerate(mu.weights.tolist()):
        if mu.pool is None:
            here, there = ("atom", i), ("image", i)
        else:
            s, t = int(mu.seed_idx[i]), int(mu.time_idx[i])
            here, there = (s, t), (s, t + 1)
        value[here], value[there] = mu.atoms[i], gx[i]
        coef[here] = coef.get(here, 0.0) - w
        coef[there] = coef.get(there, 0.0) + w
    keys = [k for k in coef if coef[k] != 0]
    return (np.array([coef[k] for k in keys]),
            np.array([value[k] for k in keys], dtype=float))


def _assert_defect_within_dot_bound(mu, g, gx):
    """invariance_defect, one probe at a time, against math.fsum of the 2n
    signed terms w psi(g x) and -w psi(x), each split exactly into its
    rounded product and that product's error, so the oracle is the exact
    sum.  Their difference, also taken by fsum, must lie within the dot
    product's error bound gamma_K sum_j |c_j psi(z_j)| over the K points
    with a non-zero coefficient c_j.  The bound takes each c_j as exact:
    so it is for equal weights, and by Sterbenz for weights within a
    factor 2 of each other."""
    c, z = _telescoped_points(mu, gx)
    K = c.size
    gamma = K * U / (1 - K * U)
    w2 = np.concatenate((mu.weights, -mu.weights))
    for psi in probe_functions():
        with mock.patch.object(measures, "probe_functions", lambda: [psi]):
            d = invariance_defect(mu, g)["defect"]
        terms = np.concatenate(_exact_products(
            w2, psi(np.concatenate((gx, mu.atoms))))).tolist()
        sign = math.copysign(1.0, math.fsum(terms))
        err = math.fsum([d] + [-sign * t for t in terms])
        assert abs(err) <= gamma * math.fsum(np.abs(c * psi(z)).tolist())


@pytest.mark.parametrize("name", ["doubling_small", "logistic_small"])
def test_invariance_defect_matches_fsum_oracle(name, tmp_path):
    from acim1d import cli
    from test_golden import _config

    st = cli.PipelineState(_config(name, tmp_path), out_dir=tmp_path / "o")
    for stage in cli._stages("measure"):
        stage(st)
    mu = st.mu
    gx = st.g.eval(mu.atoms)
    # the pool's next orbit points are the images g.eval gives
    assert np.array_equal(gx, mu.pool.points[mu.time_idx + 1, mu.seed_idx])
    _assert_defect_within_dot_bound(mu, st.g, gx)
    bare = EmpiricalMeasure(atoms=mu.atoms, weights=mu.weights, meta={})
    _assert_defect_within_dot_bound(bare, st.g, gx)


@pytest.mark.parametrize("name", ["doubling_small", "logistic_small"])
def test_log_derivs_at_is_the_map_at_the_forward_points(name, tmp_path):
    from acim1d import cli
    from test_golden import _config

    st = cli.PipelineState(_config(name, tmp_path), out_dir=tmp_path / "o")
    for stage in cli._stages("measure"):
        stage(st)
    mu, m = st.mu, max(st.cfg.entropy_m)
    for j, xj in enumerate(forward_points(mu, m)):
        assert np.array_equal(log_derivs_at(mu, j, st.g),
                              st.g.log_abs_deriv(xj))
    # a pooled measure reads its pool's values, so another map is refused
    with pytest.raises(ValueError, match="pool built under"):
        log_derivs_at(mu, 0, st.f)


def _hand_measure(name, seeds, mask, weights=None):
    """The measure on a hand-built pool of g = name^2 orbits whose atoms
    are the True cells of the seed x time matrix mask, seed-major, with
    its boundary-count bound; equal weights unless weights are given."""
    g = power_map(make_map(name), 2)
    pts, lds = orbit_grid(g, seeds, mask.shape[1])
    pool = SamplePool(seeds=pts[0], points=pts, log_derivs=lds,
                      time_mask=np.zeros((len(seeds), mask.shape[1] + 1),
                                         dtype=bool),
                      provenance={}, n_orbit=mask.shape[1])
    s_idx, t_idx = np.nonzero(mask)
    w = np.full(s_idx.size, 1.0 / max(1, s_idx.size)) if weights is None \
        else np.asarray(weights[:s_idx.size], dtype=float)
    mu = EmpiricalMeasure(atoms=pts[t_idx, s_idx], weights=w, meta={},
                          seed_idx=s_idx, time_idx=t_idx, pool=pool,
                          per_seed_counts=np.count_nonzero(mask, axis=1),
                          per_seed_boundary=boundary_counts(mask))
    return mu, g


def test_invariance_defect_pool_run_ends_at_last_image():
    # runs: seed 0 at times 0-1 and 3-4; seed 1 at time 5 alone, one step
    # after seed 0's last atom, its image the pool's last row; seed 2 at
    # times 2-3
    mask = np.array([[1, 1, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1],
                     [0, 0, 1, 1, 0, 0]], dtype=bool)
    mu, g = _hand_measure("logistic", [0.1234, 0.377, 0.81], mask,
                          np.random.default_rng(1).uniform(0.5, 1, 7))
    gx = g.eval(mu.atoms)
    assert np.array_equal(gx, mu.pool.points[mu.time_idx + 1, mu.seed_idx])
    assert invariance_defect(mu, g)["defect"] > 0
    _assert_defect_within_dot_bound(mu, g, gx)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_invariance_defect_matches_fsum_oracle_on_hand_built_pools(data):
    # gaps, one-atom runs and runs ending on the pool's last row come from
    # the random mask; non-uniform weights lie in [0.5, 1].  Seeds are
    # normal floats: the error bound, like the exact products, assumes
    # that no product underflows, which a subnormal orbit point can make
    # happen (sin of a subnormal x is subnormal)
    S = data.draw(st.integers(1, 4))
    width = data.draw(st.integers(1, 6))
    bits = data.draw(st.integers(0, 2 ** (S * width) - 1))
    mask = ((bits >> np.arange(S * width)) & 1).astype(bool).reshape(
        S, width)
    seeds = data.draw(st.lists(st.floats(0, 1, allow_subnormal=False),
                               min_size=S, max_size=S))
    weights = data.draw(st.none() | st.lists(
        st.floats(0.5, 1.0), min_size=S * width, max_size=S * width))
    mu, g = _hand_measure(data.draw(st.sampled_from(["doubling",
                                                     "logistic"])),
                          seeds, mask, weights)
    if data.draw(st.booleans()):
        mu = EmpiricalMeasure(atoms=mu.atoms, weights=mu.weights, meta={})
    gx = g.eval(mu.atoms)
    if mu.pool is not None:
        assert np.array_equal(gx, mu.pool.points[mu.time_idx + 1,
                                                 mu.seed_idx])
    _assert_defect_within_dot_bound(mu, g, gx)
    if mu.n_atoms == 0:
        assert invariance_defect(mu, g)["defect"] == 0.0


@pytest.mark.parametrize("norm", ["mu", "nu"])
def test_invariance_defect_probes_see_only_run_starts_and_ends(norm,
                                                               monkeypatch):
    # the telescoped sum evaluates each probe on #run starts + #run ends
    # points for a measure from empirical_measure, and on 2n without a pool
    f = make_map("logistic")
    pool = build_seed_pool(f, 4, 12, 300, np.random.default_rng(7))
    sel = select_An(pool, 12, beta=0.05, b=0.0, p=4)
    mu = empirical_measure(sel, 2, 2, normalization=norm, beta_inf=0.5)
    seen = []

    def counted():
        return [lambda x, psi=psi: seen.append(np.size(x)) or psi(x)
                for psi in probe_functions()]

    monkeypatch.setattr(measures, "probe_functions", counted)
    invariance_defect(mu, power_map(f, 4))
    inside = (np.diff(mu.seed_idx) == 0) & (np.diff(mu.time_idx) == 1)
    starts = ends = mu.n_atoms - np.count_nonzero(inside)
    assert starts + ends == np.sum(mu.per_seed_boundary) < mu.n_atoms
    assert seen == [starts + ends] * 20
    seen.clear()
    bare = EmpiricalMeasure(atoms=mu.atoms, weights=mu.weights, meta={})
    invariance_defect(bare, power_map(f, 4))
    assert seen == [2 * mu.n_atoms] * 20


# seed 0 at times 0-3, seed 1 at 1-2, seed 2 at 4 (a one-atom run)
NAN_MASK = np.array([[1, 1, 1, 1, 0, 0], [0, 1, 1, 0, 0, 0],
                     [0, 0, 0, 0, 1, 0]], dtype=bool)


@pytest.mark.parametrize("where", ["inside", "start", "end_image", "weight"])
def test_invariance_defect_nan_fails_closed(where):
    # each NaN sits where the telescoped sum gives it no probe evaluation
    # or where a max over probes would drop it; the row must fail anyway
    mu, g = _hand_measure("logistic", [0.1234, 0.377, 0.81], NAN_MASK)
    rep = invariance_defect(mu, g)
    assert rep["ok"] and math.isfinite(rep["defect"])
    mu.atoms = mu.atoms.copy()
    if where == "inside":
        mu.atoms[1] = math.nan          # seed 0, time 1
    elif where == "start":
        mu.atoms[0] = math.nan          # seed 0, time 0
    elif where == "end_image":
        mu.pool.points[4, 0] = math.nan  # g of seed 0's last atom
    else:
        mu.weights[1] = math.nan
    rep = invariance_defect(mu, g)
    assert math.isnan(rep["defect"])
    assert math.isfinite(rep["bound"]) and rep["ok"] is False


def test_invariance_defect_nan_atom_fails_without_pool():
    # 64 doubling atoms with a boundary bound of 2/64; one NaN atom used to
    # be dropped by the max over probes, and the row passed
    f = make_map("doubling")
    xs = (np.arange(64) + 0.5) / 64
    xs[10] = math.nan
    mu = EmpiricalMeasure(atoms=xs, weights=np.full(64, 1.0 / 64), meta={},
                          per_seed_counts=np.array([64]),
                          per_seed_boundary=np.array([2]))
    rep = invariance_defect(mu, f)
    assert rep["bound"] == 2 / 64
    assert math.isnan(rep["defect"]) and rep["ok"] is False
