"""Cross-module invariants: trimmed time sets, measure monotonicity,
integrability bounds, entropy monotonicity, label bookkeeping."""

import math

import numpy as np

from acim1d.branches import monotone_branches
from acim1d.entropy import itinerary_entropy, qbin_label
from acim1d.maps import estimate_norms, make_map, power_map
from acim1d.measures import (
    EmpiricalMeasure, build_seed_pool, empirical_measure, forward_points,
    select_An,
)
from acim1d.times import boundary_set, clip, density, trim
from acim1d.tree import orbit_labels


def test_timeset_derived_invariants():
    E = (0, 2, 3, 7, 8, 11)
    for M in (1, 2, 4):
        assert trim(E, 12, M, 1) == clip(E, 12, M)  # E_n^{M,1} = E_n^M
        for m in (2, 3):
            T = trim(E, 12, M, m)
            assert boundary_set(T) <= set(E)
            assert M * len(boundary_set(T)) / 2 <= 12 + M
            assert 0.0 <= density(T, 12) <= 1.0
    # monotone in M at fixed (n, m)
    prev = set()
    for M in (1, 2, 3, 4):
        cur = trim(E, 12, M, 2)
        assert prev <= cur
        prev = cur


def test_phi_minus_integrability_bound():
    # int phi_g^- d mu <= log||g'||_inf: the per-component expansion
    # bound makes the negative part of log|g'| summable along kept times
    f = make_map("logistic", smoothness_r=4.0)
    p = 6
    pool = build_seed_pool(f, p, 60, 600, np.random.default_rng(8))
    sel = select_An(pool, 60, 0.05, 0.45, p)
    mu = empirical_measure(sel, M=3, m=1)
    g = power_map(f, p)
    u = g.log_abs_deriv(mu.atoms)
    phi_minus = np.maximum(0.0, -np.where(np.isfinite(u), u, -745.0))
    int_minus = float(np.sum(mu.weights * phi_minus))
    log_sup = math.log(estimate_norms(g, 2 ** 14, 2, 2).sup_abs_deriv[1])
    assert int_minus <= log_sup + 1e-9


def test_refined_entropy_monotone_in_m():
    f = make_map("logistic", smoothness_r=4.0)
    p = 6
    pool = build_seed_pool(f, p, 40, 3000, np.random.default_rng(4))
    sel = select_An(pool, 40, 0.05, 0.45, p)
    mu = empirical_measure(sel, M=3, m=1)
    g = power_map(f, p)
    bp = monotone_branches(g, grid_size=2 ** 14)
    labQ = qbin_label(g, 4, -0.11)
    Hs = itinerary_entropy(mu, [
        [np.unique(lab(x), return_inverse=True)[1]
         for x in forward_points(mu, 3)]
        for lab in (bp.locate_many, labQ)], 3)
    # H(P^m) is non-decreasing in m
    assert Hs[0] <= Hs[1] + 1e-12 and Hs[1] <= Hs[2] + 1e-12
    # (1/m) H(P^m) non-increasing up to estimator noise 2/sqrt(atoms)
    noise = 2.0 / math.sqrt(mu.n_atoms)
    assert Hs[1] / 2 <= Hs[0] + noise
    assert Hs[2] / 3 <= Hs[1] / 2 + noise


def test_orbit_labels_match_definitions():
    g = power_map(make_map("linear_circle", d=3.0), 2)  # slope 9
    ks, kps = orbit_labels(g, 0.17, 6)
    # log 9 = 2.197: k = 2, k' = 0 at every step
    assert ks == [2] * 6 and kps == [0] * 6
    rot = make_map("affine", c0=0.3, c1=1.0, domain=make_map("doubling").domain)
    ks, kps = orbit_labels(rot, 0.1, 4)
    assert ks == [0] * 4 and kps == [0] * 4


def test_empirical_atoms_are_orbit_points():
    f = make_map("doubling")
    pool = build_seed_pool(f, 4, 10, 50, np.random.default_rng(2))
    sel = select_An(pool, 10, 0.5, 0.5, 4)
    mu = empirical_measure(sel, M=2, m=1)
    for a, s, i in zip(mu.atoms, mu.seed_idx, mu.time_idx):
        assert a == pool.points[i, s]
        T = trim(pool.time_list(s), 10, 2, 1)
        assert i in T
