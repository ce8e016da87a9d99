"""Seed pools, A_n selection, empirical measures, density comparisons."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    assert abs(mu.total_mass - 1.0) < 1e-12


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
    assert math.isclose(nu.total_mass, nu.meta["beta_nMm"] / beta_inf,
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
    assert abs(est.total_mass - mu.total_mass) < 1e-12


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
    # later segment
    pool = build_seed_pool(make_map("logistic"), 3, 20, 1500,
                           np.random.default_rng(3), c_expansion=4.0)
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


def _two_evaluation_defect(mu, gx):
    """invariance_defect's value with each probe evaluated on the atoms and
    again on their images gx: the formula before the shared evaluation."""
    defect = 0.0
    for psi in probe_functions():
        defect = max(defect, abs(float(np.sum(mu.weights * psi(gx))
                                       - np.sum(mu.weights * psi(mu.atoms)))))
    return defect


@pytest.mark.parametrize("name", ["doubling_small", "logistic_small"])
def test_invariance_defect_bit_equal_to_two_evaluations(name, tmp_path):
    from acim1d import cli
    from test_golden import _config

    st = cli.PipelineState(_config(name, tmp_path), out_dir=tmp_path / "o")
    for stage in cli._stages("measure"):
        stage(st)
    mu = st.mu
    gx = st.g.eval(mu.atoms)
    # the pool's next orbit points are the images g.eval gives
    assert np.array_equal(gx, mu.pool.points[mu.time_idx + 1, mu.seed_idx])
    want = _two_evaluation_defect(mu, gx)
    assert invariance_defect(mu, st.g)["defect"] == want
    bare = EmpiricalMeasure(atoms=mu.atoms, weights=mu.weights, meta={})
    assert invariance_defect(bare, st.g)["defect"] == want


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


def test_invariance_defect_pool_run_ends_at_last_image():
    # runs: seed 0 at times 0-1 and 3-4; seed 1 at time 5 alone, one step
    # after seed 0's last atom, its image the pool's last row; seed 2 at
    # times 2-3
    g = power_map(make_map("logistic"), 2)
    pts, lds = orbit_grid(g, [0.1234, 0.377, 0.81], 6)
    pool = SamplePool(seeds=pts[0], points=pts, log_derivs=lds,
                      time_mask=np.zeros((3, 7), dtype=bool), provenance={},
                      n_orbit=6)
    seed_idx = np.array([0, 0, 0, 0, 1, 2, 2])
    time_idx = np.array([0, 1, 3, 4, 5, 2, 3])
    mu = EmpiricalMeasure(atoms=pts[time_idx, seed_idx],
                          weights=np.random.default_rng(1).random(7),
                          meta={}, seed_idx=seed_idx, time_idx=time_idx,
                          pool=pool)
    gx = g.eval(mu.atoms)
    assert np.array_equal(gx, pts[time_idx + 1, seed_idx])
    assert invariance_defect(mu, g)["defect"] == \
        _two_evaluation_defect(mu, gx) > 0
