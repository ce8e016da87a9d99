"""Partitions, entropies, and the inequality suites."""

import decimal
import itertools
import math
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from acim1d import entropy
from acim1d.entropy import (
    BATTERY_BLOCK, C0_MANE, MISIUREWICZ_DPS, RANK_SPAN, _battery_draws,
    _entropy_of_masses, _H_exact, _misiurewicz_batch, _ranks, ac_verdict,
    choose_offset, entropy_formula_residual, gibbs_check, itinerary_entropy,
    misiurewicz_battery, qbin_label, verify_mane_bounds, verify_misiurewicz,
)
from acim1d.branches import monotone_branches
from acim1d.errors import InsufficientAtoms, OffsetNotFound
from acim1d.maps import PRESETS, estimate_norms, make_map, power_map
from acim1d.measures import (
    EmpiricalMeasure, SamplePool, build_seed_pool, empirical_measure,
    forward_points, select_An,
)
from acim1d.reparam import choose_epsilon
from partition_oracle import (
    EntropyReport, build_Qq, join, partition_entropy, partition_from_branches,
    refine,
)

LOG2 = math.log(2.0)


def _doubling_measure(seeds=20000, n=10, p=4):
    f = make_map("doubling")
    pool = build_seed_pool(f, p, n, seeds, np.random.default_rng(0))
    sel = select_An(pool, n, 0.5, 0.5, p)
    return f, empirical_measure(sel, M=2, m=1)


def test_c0_value():
    # c_0 = 4 (e (1 - e^{-1/2}))^{-1}
    assert math.isclose(C0_MANE, 4.0 / (math.e * (1 - math.exp(-0.5))),
                        rel_tol=1e-15)
    assert math.isclose(C0_MANE, 3.7395, rel_tol=1e-4)


def test_build_Qq_doubling_single_atom():
    part = build_Qq(make_map("doubling"), q=3, a=-0.2)
    # log|g'| = log 2 everywhere: one populated atom covering [0,1]
    assert part.n_atoms == 1
    assert abs(part.total_length() - 1.0) < 1e-9


def test_build_Qq_logistic_band_preimages():
    # oracle: log|4-8x| in ]0.5, 1.5] solves to two bands around 1/2
    f = make_map("logistic")
    part = build_Qq(f, q=1, a=-0.5)
    i = part.labels.index(("Q", 1))
    ivs = sorted(part.atoms[i])
    # the outer edges fall outside [0,1] (e^1.5 > 4) and clip at the domain
    lo1, hi1 = max(0.0, (4 - math.exp(1.5)) / 8), (4 - math.exp(0.5)) / 8
    lo2, hi2 = (4 + math.exp(0.5)) / 8, min(1.0, (4 + math.exp(1.5)) / 8)
    assert len(ivs) == 2
    np.testing.assert_allclose(ivs[0], (lo1, hi1), atol=1e-9)
    np.testing.assert_allclose(ivs[1], (lo2, hi2), atol=1e-9)


def test_Qq_atom_log_variation():
    # within an atom log|g'| varies by at most 1/q
    f = make_map("logistic")
    q = 4
    part = build_Qq(f, q=q, a=-0.1)
    rng = np.random.default_rng(1)
    xs = rng.uniform(0.001, 0.999, 10 ** 4)
    ids = part.locate_many(xs)
    u = f.log_abs_deriv(xs)
    for i in range(part.n_atoms):
        if part.labels[i] == ("tail",):
            continue
        sel = (ids == i) & np.isfinite(u)
        if np.sum(sel) > 1:
            assert np.max(u[sel]) - np.min(u[sel]) <= 1.0 / q + 1e-9


def test_qbin_chain_variation():
    # points sharing a depth-k Q-itinerary have |log(g^k)'| gaps <= k/q
    f = make_map("logistic")
    q, k = 4, 3
    labQ = qbin_label(f, q, -0.13)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.01, 0.99, 4000)
    codes = []
    u_sum = np.zeros(xs.shape)
    y = xs.copy()
    for _ in range(k):
        codes.append(labQ(y))
        u_sum += np.where(np.isfinite(f.log_abs_deriv(y)),
                          f.log_abs_deriv(y), -1e9)
        y = f.eval(y)
    code = np.stack(codes, 1)
    _, inv = np.unique(code, axis=0, return_inverse=True)
    for cid in np.unique(inv):
        grp = u_sum[inv == cid]
        grp = grp[grp > -1e8]
        if grp.size > 1:
            assert np.max(grp) - np.min(grp) <= k / q + 1e-9


def test_join_with_trivial_partition():
    f = make_map("doubling")
    J = partition_from_branches(monotone_branches(f))
    whole = type(J)(atoms=[[(0.0, 1.0)]], labels=[("all",)], name="triv")
    joined = join(J, whole)
    assert joined.n_atoms == J.n_atoms


def test_refine_doubling_eighths():
    f = make_map("doubling")
    J = partition_from_branches(monotone_branches(f))
    P3 = refine(J, f, 3)
    assert P3.n_atoms == 8
    lengths = sorted(sum(b - a for a, b in ivs) for ivs in P3.atoms)
    np.testing.assert_allclose(lengths, [0.125] * 8, atol=1e-9)


def test_refine_logistic_membership_oracle():
    f = make_map("logistic")
    bp = monotone_branches(f)
    J = partition_from_branches(bp)
    Q = build_Qq(f, q=1, a=-0.5)
    P = join(J, Q)
    P2 = refine(P, f, 2, bp)
    labJ = lambda xs: bp.locate_many(xs)
    labQ = qbin_label(f, 1, -0.5)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.001, 0.999, 10 ** 4)
    ids = P2.locate_many(xs)
    fx = f.eval(xs)
    direct = np.stack([labJ(xs), labQ(xs), labJ(fx), labQ(fx)], axis=1)
    # the two colorings must induce the same equivalence on the sample
    keep = ids >= 0
    _, inv_ids = np.unique(ids[keep], return_inverse=True)
    _, inv_dir = np.unique(direct[keep], axis=0, return_inverse=True)
    agree = 0
    seen = {}
    for a_, b_ in zip(inv_ids, inv_dir):
        if a_ in seen:
            agree += seen[a_] == b_
        else:
            seen[a_] = b_
            agree += 1
    assert agree / len(inv_ids) > 0.999


def test_partition_entropy_examples():
    two = EmpiricalMeasure(atoms=np.array([0.25, 0.75]),
                           weights=np.array([0.5, 0.5]), meta={})
    part = build_Qq(make_map("doubling"), 1, -0.5)  # single atom: H = 0
    whole = partition_from_branches(monotone_branches(make_map("doubling")))
    rep = partition_entropy(two, whole)
    assert math.isclose(rep.H_value, LOG2, rel_tol=1e-12)
    assert rep.check_invariants()
    dirac = EmpiricalMeasure(atoms=np.array([0.3]), weights=np.array([1.0]),
                             meta={})
    assert partition_entropy(dirac, whole).H_value == 0.0


def _rank_columns(mu, fn, m, g=None):
    """fn's label ranks at forward_points(mu, m, g), j = 0..m-1."""
    return [np.unique(fn(x), return_inverse=True)[1]
            for x in forward_points(mu, m, g)]


def test_doubling_refined_entropy_matches_m_log2():
    f, mu = _doubling_measure()
    bp = monotone_branches(f)
    labJ = lambda xs: bp.locate_many(xs)
    mu_plain = EmpiricalMeasure(atoms=mu.atoms, weights=mu.weights, meta={})
    Hs = itinerary_entropy(mu_plain, [_rank_columns(mu_plain, labJ, 5, f)], 5)
    for m in (1, 3, 5):
        H = Hs[m - 1]
        assert abs(H - m * LOG2) < 0.02


def test_itinerary_matches_geometric_refinement():
    f, mu = _doubling_measure(seeds=2000)
    bp = monotone_branches(f)
    J = partition_from_branches(bp)
    P3 = refine(J, f, 3)
    mu_plain = EmpiricalMeasure(atoms=mu.atoms, weights=mu.weights, meta={})
    H_geom = partition_entropy(mu_plain, P3).H_value
    ranks_J = _rank_columns(mu_plain, lambda xs: bp.locate_many(xs), 3, f)
    H_code = itinerary_entropy(mu_plain, [ranks_J], 3)[-1]
    assert abs(H_geom - H_code) < 1e-9


def _itinerary_oracle(mu, label_fns, m, g=None):
    """The row-unique coding: stack the label columns, np.unique(axis=0)."""
    cols = []
    if mu.pool is not None:
        pts = mu.pool.points
        for j in range(m):
            xj = pts[mu.time_idx + j, mu.seed_idx]
            for fn in label_fns:
                cols.append(fn(xj))
    else:
        xj = mu.atoms.copy()
        for j in range(m):
            for fn in label_fns:
                cols.append(fn(xj))
            if j < m - 1:
                xj = g.eval(xj)
    code = np.stack(cols, axis=1)
    _, inv = np.unique(code, axis=0, return_inverse=True)
    masses = np.bincount(inv, weights=mu.weights)
    return _entropy_of_masses(masses)


class _Shift:
    """Stand-in map on point ids: x -> x + step."""

    def __init__(self, step):
        self.step = step

    def eval(self, x):
        return x + self.step


_LABELS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-1, -10 ** 9 - 1, 2 ** 62, -2 ** 62, 2 ** 62 - 1]))


@st.composite
def _coded_measures(draw):
    """A measure whose atoms and forward points are integer ids, with
    label functions that read random label tables by id."""
    n = draw(st.integers(0, 30))
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    use_pool = draw(st.booleans())
    width = (m + 1) * (n + 1)      # ids read by either path stay below
    tables = []
    for _ in range(k):
        if draw(st.booleans()):
            tables.append(np.full(width, draw(_LABELS), dtype=np.int64))
        else:
            tables.append(np.array(draw(st.lists(
                _LABELS, min_size=width, max_size=width)), dtype=np.int64))
    fns = [lambda xs, t=t: t[np.asarray(xs).astype(np.int64)]
           for t in tables]
    w = np.array(draw(st.lists(st.floats(1e-6, 1.0), min_size=n,
                               max_size=n)), dtype=float)
    if use_pool:
        S = max(n, 1)
        pts = np.arange((m + 1) * S, dtype=float).reshape(m + 1, S)
        pool = SamplePool(seeds=np.zeros(S), points=pts,
                          log_derivs=np.zeros((m, S)),
                          time_mask=np.zeros((S, m + 1), dtype=bool),
                          provenance={}, n_orbit=m)
        seed_idx = np.array(draw(st.lists(st.integers(0, S - 1), min_size=n,
                                          max_size=n)), dtype=np.int64)
        time_idx = np.zeros(n, dtype=np.int64)
        mu = EmpiricalMeasure(atoms=pts[0, seed_idx], weights=w, meta={},
                              seed_idx=seed_idx, time_idx=time_idx, pool=pool)
        return mu, fns, m, None
    atoms = np.array(draw(st.lists(st.integers(0, n), min_size=n,
                                   max_size=n)), dtype=float)
    mu = EmpiricalMeasure(atoms=atoms, weights=w, meta={})
    return mu, fns, m, _Shift(n + 1)


@given(_coded_measures())
@settings(max_examples=300, deadline=None)
def test_itinerary_entropy_matches_row_unique_oracle(case):
    mu, fns, m, g = case
    Hs = itinerary_entropy(mu, [_rank_columns(mu, fn, m, g) for fn in fns], m)
    assert Hs == [_itinerary_oracle(mu, fns, k, g=g) for k in range(1, m + 1)]
    if mu.n_atoms == 0:
        assert Hs[-1] == 0.0


@st.composite
def _label_arrays(draw):
    """Integer labels whose span sits on either side of RANK_SPAN times
    their number, with _qbins' -10^9 - 1 tail at times."""
    n = draw(st.integers(0, 60))
    span = draw(st.sampled_from([1, 2, max(1, RANK_SPAN * n),
                                 RANK_SPAN * n + 1, 10 ** 6]))
    lo = draw(st.integers(-10, 10))
    x = draw(st.lists(st.integers(lo, lo + span - 1), min_size=n,
                      max_size=n))
    if n and draw(st.booleans()):
        x[draw(st.integers(0, n - 1))] = -10 ** 9 - 1
    return np.array(x, dtype=np.int64)


@given(_label_arrays())
@settings(max_examples=400, deadline=None)
def test_ranks_match_unique_inverse(x):
    want = np.unique(x, return_inverse=True)[1]
    got = _ranks(x)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # first_seen: the same classes, numbered by first appearance
    _, first = np.unique(x, return_index=True)
    renumber = np.empty(first.size, dtype=np.intp)
    renumber[np.argsort(first)] = np.arange(first.size)
    assert np.array_equal(_ranks(x, first_seen=True), renumber[want])


def test_ranks_edge_cases():
    for x in ([], [7], [-10 ** 9 - 1], [3, 3, 3], [-10 ** 9 - 1, 0, 5]):
        x = np.array(x, dtype=np.int64)
        assert np.array_equal(_ranks(x), np.unique(x, return_inverse=True)[1])
        assert _ranks(x).dtype == np.intp


def test_itinerary_entropy_pool_path_matches_oracle_on_a_run():
    f, mu = _doubling_measure(seeds=3000)
    g = power_map(f, 4)
    bp = monotone_branches(g)
    fns = [lambda xs: bp.locate_many(xs), qbin_label(g, 4, -0.1)]
    Hs = itinerary_entropy(mu, [_rank_columns(mu, fn, 3) for fn in fns], 3)
    for m in (1, 2, 3):
        assert Hs[m - 1] == _itinerary_oracle(mu, fns, m)


def _per_m_fold(mu, label_fns, m, g=None):
    """H_mu(P^m) alone by the rank fold over J_0, Q_0, ..., J_{m-1},
    Q_{m-1}, recomputing every column (the one-m-per-call coding)."""
    inv, xj = 0, mu.atoms
    for j in range(m):
        if mu.pool is not None:
            xj = mu.pool.points[mu.time_idx + j, mu.seed_idx]
        elif j:
            xj = g.eval(xj)
        for fn in label_fns:
            _, r = np.unique(fn(xj), return_inverse=True)
            _, inv = np.unique(inv * (r.max(initial=0) + 1) + r,
                               return_inverse=True)
    return _entropy_of_masses(np.bincount(inv, weights=mu.weights))


@given(_coded_measures(), st.data())
@settings(max_examples=300, deadline=None)
def test_itinerary_prefixes_equal_per_m_fold(case, data):
    # the prefix list equals the per-m fold at each m, each label's rank
    # columns passed as a list or as a generator
    mu, fns, m, g = case
    labels = [_rank_columns(mu, fn, m, g) for fn in fns]
    labels = [iter(cols) if data.draw(st.booleans()) else cols
              for cols in labels]
    want = [_per_m_fold(mu, fns, k, g=g) for k in range(1, m + 1)]
    assert itinerary_entropy(mu, labels, m) == want


def test_itinerary_prefixes_equal_per_m_fold_on_a_run():
    f, mu = _doubling_measure(seeds=3000)
    g = power_map(f, 4)
    bp = monotone_branches(g)
    labJ, labQ = (lambda xs: bp.locate_many(xs)), qbin_label(g, 4, -0.1)
    plain = EmpiricalMeasure(atoms=mu.atoms, weights=mu.weights, meta={})
    for meas, gg in ((mu, None), (plain, g)):
        want = [_per_m_fold(meas, [labJ, labQ], k, g=gg) for k in (1, 2, 3)]
        labels = [_rank_columns(meas, lab, 3, gg) for lab in (labJ, labQ)]
        assert itinerary_entropy(meas, labels, 3) == want


def test_choose_offset_counts_cut_at_zero_from_below_on_circle():
    # doubling^4 cuts at j/16; the only cut near 1 is 0.0, so atoms just
    # below 1 sit on it exactly as atoms just above 0 do
    g = power_map(make_map("doubling"), 4)
    cuts = [pt for pt, _ in monotone_branches(g).cut_points]
    rng = np.random.default_rng(0)
    for x in (1e-12, 1.0 - 1e-12):
        atoms = np.full(100, x)
        with pytest.raises(OffsetNotFound, match="fraction 1 "):
            choose_offset(g, 2, atoms, g.log_abs_deriv(atoms), rng,
                          cut_points=cuts)
    # one atom in 100 on the cut stays within the 1% tolerance
    atoms = np.append(rng.uniform(0.0, 1.0, 99), 1.0 - 1e-12)
    assert -0.5 < choose_offset(g, 2, atoms, g.log_abs_deriv(atoms), rng,
                                cut_points=cuts) < 0.0


def _mane_oracle_sums(measure, g, q, a):
    """The bin-mass dict loop: masses in first-appearance order."""
    masses = {}
    for k, w in zip(qbin_label(g, q, a)(measure.atoms), measure.weights):
        masses[int(k)] = masses.get(int(k), 0.0) + float(w)
    xs = np.array(list(masses.values()))
    kk = np.array(list(masses.keys()), dtype=float)
    return _entropy_of_masses(xs), float(np.sum(np.abs(kk) * xs)) + C0_MANE


def test_mane_masses_match_dict_loop_oracle():
    # each draw of rng gives another offset a, read back from the report
    g = power_map(make_map("logistic", smoothness_r=4.0), 3)
    bp, norms = monotone_branches(g), estimate_norms(g)
    rng = np.random.default_rng(11)
    offsets = set()
    for n in (1, 7, 5000):
        atoms = rng.uniform(0.0, 1.0, n)
        mu = EmpiricalMeasure(atoms=atoms, weights=rng.uniform(0, 1, n) / n,
                              meta={})
        for q in (1, 4, 9):
            rep = verify_mane_bounds(mu, g, q, bp, norms, rng)
            a = rep["offset_a"]
            assert -1.0 / q < a < 0.0
            offsets.add(q * a)
            lhs, rhs = _mane_oracle_sums(mu, g, q, a)
            assert rep["sete_lhs"] == rep["hq_lhs"] == lhs
            assert rep["sete_rhs"] == rhs
    assert len(offsets) == 9


def test_misiurewicz_identity_case():
    lam = [Fraction(1, 4)] * 4
    rep = verify_misiurewicz(lam, [0, 1, 2, 3], [0, 1, 2, 3], [0], m=2)
    assert rep["ok"]


def test_misiurewicz_truncated_shift():
    # 8 states as binary words of length 3; T is the shift with a fixed
    # tail bit; R reads the leading symbol
    T = [(2 * s) % 8 for s in range(8)]
    R = [s >> 2 for s in range(8)]
    lam = [Fraction(1, 8)] * 8
    rep = verify_misiurewicz(lam, T, R, list(range(6)), m=2)
    assert rep["ok"] and rep["margin"] >= 0


def test_misiurewicz_randomized():
    assert misiurewicz_battery(np.random.default_rng(12), 120) == 0


def _H_fraction(mass_by_label):
    """-sum v log v over the positive masses v, each term evaluated as the
    kernel does, (num / den)(ln num - ln den) for v = num / den in lowest
    terms, in the active decimal context, with uncached logs."""
    H = decimal.Decimal(0)
    for v in mass_by_label.values():
        if v > 0:
            num, den = decimal.Decimal(v.numerator), v.denominator
            H -= num / den * (num.ln() - decimal.Decimal(den).ln())
    return H


def test_H_exact_matches_fraction_entropy_at_each_precision():
    # the integer logs are cached: the same masses at 41, 15 and again
    # 41 digits each equal the uncached sum at their own precision (at 15
    # digits, 2/5 and 3/5 tell 41-digit logs from 15-digit ones)
    for counts in ([0, 3, 6, 9, 18, 36], [0, 2, 3]):
        Q = sum(counts)
        got = []
        for dps in (MISIUREWICZ_DPS, 15, MISIUREWICZ_DPS):
            with decimal.localcontext(decimal.Context(prec=dps)):
                want = _H_fraction({i: Fraction(c, Q)
                                    for i, c in enumerate(counts)})
                got.append(_H_exact(counts, Q))
                assert got[-1] == want
        assert got[0] == got[2] != got[1]


def _misiurewicz_context():
    return decimal.Context(prec=MISIUREWICZ_DPS,
                           rounding=decimal.ROUND_HALF_EVEN)


def _misiurewicz_fraction_oracle(lam, T, R, F, m):
    """verify_misiurewicz on Fraction masses and a numpy orbit table, as
    it stood before the integer-mass form: the differential oracle."""
    with decimal.localcontext(_misiurewicz_context()):
        N = len(T)
        lam = [Fraction(v).limit_denominator(10 ** 12)
               if not isinstance(v, Fraction) else v for v in lam]
        F = sorted(set(F))
        nF = len(F)
        depth = max(F) + m + 1
        orbit = np.empty((depth, N), dtype=int)
        orbit[0] = np.arange(N)
        for j in range(1, depth):
            orbit[j] = [T[s] for s in orbit[j - 1]]

        lamF = {}
        for k in F:
            for s in range(N):
                if lam[s] == 0:
                    continue
                tgt = int(orbit[k, s])
                lamF[tgt] = lamF.get(tgt, Fraction(0)) + lam[s] / nF

        by_rm = {}
        for s, mass in lamF.items():
            lab = tuple(R[int(orbit[j, s])] for j in range(m))
            by_rm[lab] = by_rm.get(lab, Fraction(0)) + mass
        H_rm = _H_fraction(by_rm)

        by_rf = {}
        for s in range(N):
            if lam[s] == 0:
                continue
            lab = tuple(R[int(orbit[k, s])] for k in F)
            by_rf[lab] = by_rf.get(lab, Fraction(0)) + lam[s]
        H_rf = _H_fraction(by_rf)

        charged = set()
        for s, mass in lamF.items():
            if mass > 0:
                charged.add(R[s])
        n_charged = max(1, len(charged))

        dF = len(set(F) ^ {k + 1 for k in F})
        lhs = H_rm / m
        rhs = H_rf / nF - m * decimal.Decimal(n_charged).ln() * dF / nF
        margin = float(lhs - rhs)
        return {"lhs": float(lhs), "rhs": float(rhs), "margin": margin,
                "ok": margin >= -1e-12, "n_charged": n_charged, "dF": dF}


def _bits(rep):
    return {k: v.hex() if isinstance(v, float) else v for k, v in rep.items()}


def _assert_misiurewicz_matches_oracle(lam, T, R, F, m):
    want = _misiurewicz_fraction_oracle(lam, T, R, F, m)
    assert _bits(verify_misiurewicz(lam, T, R, F, m)) == _bits(want)


_masses = st.one_of(
    st.just(Fraction(0)), st.integers(0, 3),
    st.fractions(min_value=0, max_value=2, max_denominator=60),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False))


@st.composite
def _finite_systems(draw):
    N = draw(st.integers(1, 12))
    T = draw(st.lists(st.integers(0, N - 1), min_size=N, max_size=N))
    R = draw(st.lists(st.integers(0, 3), min_size=N, max_size=N))
    lam = draw(st.lists(_masses, min_size=N, max_size=N))
    F = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6))
    return lam, T, R, F, draw(st.integers(1, 4))


@given(_finite_systems())
@settings(max_examples=400, deadline=None)
def test_misiurewicz_bit_equal_to_fraction_oracle(system):
    """Zero masses, totals other than 1, float entries (limit_denominator),
    mixed denominators (the lcm), unsorted and repeated F, m = 1..4; a
    system whose rounded masses are all 0 is rejected."""
    if not any(Fraction(v).limit_denominator(10 ** 12) for v in system[0]):
        with pytest.raises(ValueError, match="^lam "):
            verify_misiurewicz(*system)
    else:
        _assert_misiurewicz_matches_oracle(*system)


def _shift_family():
    """Criterion 4's exhaustive family as (lam, T, R, F, m): the truncated
    2-shift on 8 states, every nonempty F subset {0..5}, m in 1..4, three
    measures."""
    T = [(2 * s) % 8 for s in range(8)]
    R = [s >> 2 for s in range(8)]
    lams = [[Fraction(1, 8)] * 8,
            [Fraction(v, 36) for v in range(1, 9)],
            [Fraction(0)] * 3 + [Fraction(1)] + [Fraction(0)] * 4]
    for mask in range(1, 64):
        F = [k for k in range(6) if mask >> k & 1]
        for m in range(1, 5):
            for lam in lams:
                yield lam, T, R, F, m


def test_misiurewicz_bit_equal_to_fraction_oracle_on_shift_family():
    for system in _shift_family():
        _assert_misiurewicz_matches_oracle(*system)


def test_misiurewicz_report_ignores_the_callers_decimal_context():
    want = [_bits(verify_misiurewicz(*s)) for s in _shift_family()]
    with decimal.localcontext(decimal.Context(
            prec=12, rounding=decimal.ROUND_FLOOR)):
        assert [_bits(verify_misiurewicz(*s)) for s in _shift_family()] \
            == want


def _mpmath_H(masses):
    """-sum v log v over the positive Fraction masses, in mpmath at the
    working precision."""
    return -mpmath.fsum(mpmath.mpf(v.numerator) / v.denominator
                        * mpmath.log(mpmath.mpf(v.numerator) / v.denominator)
                        for v in masses if v > 0)


def _assert_decimal_matches_mpmath(lam, T, R, F, m):
    """_H_exact on the R^m and R^F cells, and verify_misiurewicz's lhs, rhs
    and margin, against mpmath at 60 digits, each within 1e-35.  The
    report holds floats, so away from 0 this asks for the float nearest
    the 60-digit value."""
    by_rm, by_rf = _dict_walk_cells(lam, T, R, F, m)
    rep = verify_misiurewicz(lam, T, R, F, m)
    nF = len(set(F))
    with mpmath.workdps(60):
        H_rm, H_rf = _mpmath_H(by_rm), _mpmath_H(by_rf)
        lhs = H_rm / m
        rhs = H_rf / nF - m * mpmath.log(rep["n_charged"]) * rep["dF"] / nF
        for cells, want in ((by_rm, H_rm), (by_rf, H_rf)):
            Q = math.lcm(*(v.denominator for v in cells))
            with decimal.localcontext(_misiurewicz_context()):
                got = _H_exact([int(v * Q) for v in cells], Q)
            assert abs(mpmath.mpf(str(got)) - want) < 1e-35
        for key, want in (("lhs", lhs), ("rhs", rhs), ("margin", lhs - rhs)):
            assert abs(rep[key] - float(want)) < 1e-35, key


def test_decimal_entropies_match_mpmath_on_shift_family():
    for system in _shift_family():
        _assert_decimal_matches_mpmath(*system)


@given(_finite_systems())
@settings(max_examples=200, deadline=None)
def test_decimal_entropies_match_mpmath(system):
    if any(Fraction(v).limit_denominator(10 ** 12) for v in system[0]):
        _assert_decimal_matches_mpmath(*system)


def _padded_batch(systems, dtype):
    """_misiurewicz_batch's arguments for a list of (lam, T, R, F, m)."""
    N = max(len(T) for _, T, _, _, _ in systems)
    K = max(max(F) for _, _, _, F, _ in systems) + 1
    B = len(systems)
    T_, R_ = np.tile(np.arange(N), (B, 1)), np.zeros((B, N), dtype=np.int64)
    w_, Fmask = np.zeros((B, N), dtype=dtype), np.zeros((B, K), dtype=bool)
    D = []
    for b, (lam, T, R, F, _) in enumerate(systems):
        lam = [Fraction(v).limit_denominator(10 ** 12)
               if not isinstance(v, Fraction) else v for v in lam]
        D.append(math.lcm(*(v.denominator for v in lam)))
        w = [v.numerator * (D[-1] // v.denominator) for v in lam]
        T_[b, :len(T)], R_[b, :len(T)], w_[b, :len(T)] = T, R, w
        Fmask[b, F] = True
    return T_, R_, w_, Fmask, np.array([s[4] for s in systems]), D


def _dict_walk_cells(lam, T, R, F, m):
    """The cell masses of R^m under lam^F and of R^F under lam, each list
    in the order a dict walk over the definition first meets the cells."""
    lam = [Fraction(v).limit_denominator(10 ** 12)
           if not isinstance(v, Fraction) else v for v in lam]
    F = sorted(set(F))

    def image(s, j):
        for _ in range(j):
            s = T[s]
        return s

    lamF, by_rm, by_rf = {}, {}, {}
    for k in F:
        for s in range(len(T)):
            if lam[s]:
                t = image(s, k)
                lamF[t] = lamF.get(t, 0) + lam[s] / len(F)
    for s, v in lamF.items():
        lab = tuple(R[image(s, j)] for j in range(m))
        by_rm[lab] = by_rm.get(lab, 0) + v
    for s in range(len(T)):
        if lam[s]:
            lab = tuple(R[image(s, k)] for k in F)
            by_rf[lab] = by_rf.get(lab, 0) + lam[s]
    return [list(by_rm.values()), list(by_rf.values())]


@given(st.lists(_finite_systems(), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_misiurewicz_batch_bit_equal_to_fraction_oracle(systems):
    """Systems of mixed sizes (N = 1 included) share one padded batch and
    each keeps its own report, with Python-int masses and, where they fit,
    int64 masses.  _H_exact gets each system's cell masses in the dict
    walk's order, the order its sum was rounded in before batching."""
    want = [_bits(_misiurewicz_fraction_oracle(*s)) for s in systems]
    args = _padded_batch(systems, object)
    calls, real = [], entropy._H_exact

    def recording(counts, Q):
        calls.append([Fraction(c, Q) for c in counts])
        return real(counts, Q)

    with mock.patch.object(entropy, "_H_exact", recording):
        reps = [_misiurewicz_batch(*args)]
    assert calls == [c for s in systems for c in _dict_walk_cells(*s)]
    if np.sum(np.abs(args[2])) * 9 < 2 ** 63:     # #F lam^F fits in int64
        reps.append(_misiurewicz_batch(*_padded_batch(systems, np.int64)))
    for rep in reps:
        assert [_bits({k: v[b].item() for k, v in rep.items()})
                for b in range(len(systems))] == want


def _battery_draw_by_draw(rng, count):
    """misiurewicz_battery as one verify_misiurewicz call per instance of
    _battery_draws, each cut to its N unpadded states (those of positive
    weight) with Fraction masses."""
    bad = 0
    for lo in range(0, count, BATTERY_BLOCK):
        for T, R, w, F, m in zip(*_battery_draws(
                rng, min(BATTERY_BLOCK, count - lo))):
            N = np.count_nonzero(w)
            lam = [Fraction(int(v), int(np.sum(w))) for v in w[:N]]
            bad += not verify_misiurewicz(lam, T[:N].tolist(),
                                          R[:N].tolist(),
                                          np.flatnonzero(F).tolist(),
                                          int(m))["ok"]
    return bad


@pytest.mark.parametrize("count", [0, 1, 1000])
def test_misiurewicz_battery_matches_draw_by_draw_loop(count, monkeypatch):
    # the battery's count and the generator state it leaves, also with a
    # boundary_set that drops dF, under which some instances fail
    for defect in (False, True):
        if defect:
            monkeypatch.setattr(entropy, "boundary_set", lambda S: set())
        rng, loop_rng = np.random.default_rng(4), np.random.default_rng(4)
        bad = misiurewicz_battery(rng, count)
        assert bad == _battery_draw_by_draw(loop_rng, count)
        assert (bad > 0) == (defect and count == 1000)
        assert rng.bit_generator.state == loop_rng.bit_generator.state
        assert rng.integers(2 ** 62) == loop_rng.integers(2 ** 62)


def test_battery_draws_cover_the_stated_family():
    T, R, w, F, m = _battery_draws(np.random.default_rng(8), 1000)
    assert T.shape == R.shape == w.shape == (1000, 12)
    assert F.shape == (1000, 9) and m.shape == (1000,)
    N = np.count_nonzero(w, axis=1)
    real = np.arange(12) < N[:, None]
    assert (w > 0).tolist() == real.tolist()     # states 0..N-1 carry mass
    assert ((T >= 0) & (T < N[:, None]))[real].all()
    assert ((R >= 0) & (R <= 3))[real].all() and (w[real] <= 5).all()
    # padded states map to themselves with R = w = 0
    assert (T == np.arange(12))[~real].all() and not R[~real].any()
    assert set(N.tolist()) == set(range(2, 13))
    assert set(F.sum(axis=1).tolist()) == set(range(1, 5))
    assert F.any(axis=0).all() and set(m.tolist()) == {1, 2, 3}
    assert set(np.max(R, axis=1, where=real, initial=0).tolist()) == {
        0, 1, 2, 3}


def test_misiurewicz_battery_draws_once_per_block(monkeypatch):
    # a fixed number of Generator calls per block, whatever its size
    class Counting:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def __getattr__(self, name):
            def call(*args, **kwargs):
                self.calls += 1
                return getattr(self.rng, name)(*args, **kwargs)
            return call

    def calls(count):
        rng = Counting(np.random.default_rng(6))
        assert misiurewicz_battery(rng, count) == 0
        return rng.calls

    monkeypatch.setattr(entropy, "BATTERY_BLOCK", 4)
    per_block = calls(1)
    assert 0 < per_block <= 8
    assert [calls(c) for c in (3, 4, 5, 12)] == [per_block] * 2 + [
        2 * per_block, 3 * per_block]


@pytest.mark.parametrize("F, m, name", [
    ([0], 0, "m"), ([0], -1, "m"), ([], 2, "F"), ([-1], 2, "F"),
    ([3, -2, 0], 1, "F")])
def test_misiurewicz_rejects_bad_arguments(F, m, name):
    lam = [Fraction(1, 4)] * 4
    with pytest.raises(ValueError, match=f"^{name} "):
        verify_misiurewicz(lam, [0, 1, 2, 3], [0, 1, 2, 3], F, m)


@pytest.mark.parametrize("T, R, lam, name", [
    ([-1, 0], [0, 1], 2, "T"),     # read as [1, 0] by negative indexing
    ([2, 0], [0, 1], 2, "T"), ([1, 0], [0], 2, "R"),
    ([1, 0], [0, 1], 3, "lam"),
    # a signed measure, the zero measure (also once rounded) and
    # non-finite masses
    ([1, 2, 0], [0, 1, 0], [Fraction(3, 2), Fraction(-1, 2), 0], "lam"),
    ([1, 2, 0], [0, 1, 0], [0.5, -0.25, 0.75], "lam"),
    ([1, 2, 0], [0, 1, 0], [0, 0, 0], "lam"),
    ([1, 2, 0], [0, 1, 0], [1e-15, 0.0, 0.0], "lam"),
    ([1, 2, 0], [0, 1, 0], [math.nan, 0.5, 0.5], "lam"),
    ([1, 2, 0], [0, 1, 0], [math.inf, 0.5, 0.5], "lam")])
def test_misiurewicz_rejects_bad_system(T, R, lam, name):
    # an int lam stands for that many equal masses
    if isinstance(lam, int):
        lam = [Fraction(1, lam)] * lam
    for m in (1, 2):
        with pytest.raises(ValueError, match=f"^{name} "):
            verify_misiurewicz(lam, T, R, [0, 1], m)


@pytest.mark.parametrize("T, R, F, m, name", [
    ([1, 0, 3, 2], [0, 0.5, 0, 1], [0, 1], 1, "R"),   # read as [0, 0, 0, 1]
    ([1, 0.5, 3, 2], [0, 1, 0, 1], [0, 1], 1, "T"),   # 0.5 ran as 0
    ([1, 0, 3, 2], [0, 1, 0, 1], [0, 1.5], 1, "F"),   # k = 1.5 was dropped
    ([1, 0, 3, 2], [0, 1, 0, 1], [0, 1], 2.5, "m"),
    ([1, 0, 3, 2], [0, 1, 0, 1], [0, 1], np.float64(2), "m"),
    ([1, 0, 3, 2], np.array([0, 1, 0, 1.0]), [0, 1], 1, "R")])
def test_misiurewicz_rejects_non_integers(T, R, F, m, name):
    lam = [Fraction(1, 4)] * 4
    with pytest.raises(ValueError, match=f"^{name} must hold integers"):
        verify_misiurewicz(lam, T, R, F, m)


def test_misiurewicz_takes_numpy_integers():
    lam = [Fraction(1, 4)] * 4
    T, R, F = [1, 0, 3, 2], [0, 1, 0, 1], [0, 2]
    want = verify_misiurewicz(lam, T, R, F, 2)
    assert verify_misiurewicz(lam, np.array(T), np.array(R, dtype=np.int8),
                              np.array(F, dtype=np.uint16),
                              np.int32(2)) == want


def test_mane_bounds_doubling():
    f, mu = _doubling_measure(seeds=2000)
    g = power_map(f, 4)
    rep = verify_mane_bounds(mu, g, 3, monotone_branches(g),
                             estimate_norms(g), np.random.default_rng(0))
    assert rep["sete_ok"] and rep["hq_ok"]
    # H(Q_q) = 0 for constant log|g'|
    assert abs(rep["hq_lhs"]) < 1e-9
    assert rep["hq_rhs"] >= C0_MANE + 1.0


def test_mane_bounds_logistic_measure():
    f = make_map("logistic", smoothness_r=4.0)
    p = 6
    pool = build_seed_pool(f, p, 60, 800, np.random.default_rng(5))
    sel = select_An(pool, 60, 0.05, 0.45, p)
    mu = empirical_measure(sel, M=3, m=2)
    g = power_map(f, p)
    rep = verify_mane_bounds(mu, g, 4, monotone_branches(g, grid_size=2 ** 14),
                             estimate_norms(g, grid_size=2 ** 14,
                                            refine_iters=2, n_used=2),
                             np.random.default_rng(0))
    assert rep["sete_ok"] and rep["hq_ok"] and rep["branch_size_ok"]


QUAD_TOL = 1e-4           # change_of_variable_check: quadrature stop step
QUAD_MAX_GRID = 2 ** 20   # and its finest grid


def change_of_variable_check(g, k, J_branch, A_set, B_set):
    """Leb(J cap A cap g^{-k} B) <= Leb(B) / inf_{J cap A} |(g^k)'|.

    Left side by midpoint quadrature, doubling the grid up to
    QUAD_MAX_GRID nodes until the estimate moves less than QUAD_TOL; the
    inf by grid scan plus local polish.
    """
    gk = power_map(g, k) if k > 1 else g
    a0, b0 = J_branch
    JA = sorted((max(a0, a), min(b0, b)) for a, b in A_set
                if min(b0, b) - max(a0, a) > 1e-13)
    lebB = sum(b - a for a, b in B_set)
    if not JA:
        return {"lhs": 0.0, "rhs": float("inf"), "margin": float("inf"),
                "ok": True, "err": 0.0}

    def inB(y):
        y = np.asarray(y)
        out = np.zeros(y.shape, dtype=bool)
        for (ba, bb) in B_set:
            out |= (y >= ba) & (y < bb)
        return out

    grid = 1 << 12
    prev = None
    lhs = 0.0
    err = float("inf")
    while grid <= QUAD_MAX_GRID:
        lhs = 0.0
        for (a, b) in JA:
            ts = a + (np.arange(grid) + 0.5) * (b - a) / grid
            if k >= 1:
                y = ts.copy()
                for _ in range(k):
                    y = g.eval(y)
            else:
                y = ts
            lhs += float(np.mean(inB(y))) * (b - a)
        if prev is not None:
            err = abs(lhs - prev)
            if err < QUAD_TOL:
                break
        prev = lhs
        grid *= 2

    inf_d = float("inf")
    for (a, b) in JA:
        ts = np.linspace(a + 1e-12, b - 1e-12, 257)
        vals = np.abs(gk.deriv(1, ts)) if k >= 1 else np.ones_like(ts)
        i = int(np.argmin(vals))
        lo = max(a, ts[max(0, i - 1)])
        hi = min(b, ts[min(len(ts) - 1, i + 1)])
        res = minimize_scalar(lambda t: abs(float(gk.deriv(1, t))),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-13}).fun
        inf_d = min(inf_d, float(np.min(vals)), float(res))
    rhs = lebB / inf_d if inf_d > 0 else float("inf")
    margin = rhs - lhs
    return {"lhs": lhs, "rhs": rhs, "inf_deriv": inf_d, "err": err,
            "margin": margin, "ok": margin >= -2 * max(err, 1e-12)}


def test_change_of_variable_doubling():
    f = make_map("doubling")
    rep = change_of_variable_check(f, 1, (0.0, 0.5), [(0.0, 1.0)],
                                   [(0.0, 1.0)])
    assert math.isclose(rep["lhs"], 0.5, abs_tol=1e-6)
    assert math.isclose(rep["rhs"], 0.5, rel_tol=1e-9)
    assert rep["ok"]


def test_change_of_variable_triple_squared():
    f = make_map("linear_circle", d=3.0)
    rep = change_of_variable_check(f, 2, (0.0, 1.0 / 9.0), [(0.0, 1.0)],
                                   [(0.4, 0.5)])
    assert rep["lhs"] <= 0.1 / 9.0 + 1e-6
    assert math.isclose(rep["rhs"], 0.1 / 9.0, rel_tol=1e-9)
    assert rep["ok"]


def test_change_of_variable_logistic_random_sets():
    f = make_map("logistic")
    rng = np.random.default_rng(2)
    for _ in range(5):
        pts = np.sort(rng.uniform(0.05, 0.95, 4))
        A = [(pts[0], pts[1])]
        B = [(pts[2], pts[3])]
        rep = change_of_variable_check(f, 1, (0.0, 0.5), A, B)
        assert rep["margin"] >= -2 * max(rep["err"], 1e-12)


def test_gibbs_empty_set_trivial():
    f = make_map("doubling")
    rep = gibbs_check(f, 0.3, [], q=4, eps=1 / 16, n=10, M=2, m=1,
                      beta=0.5, b=0.5, p=1, n_samples=100)
    assert rep["trivial"] and rep["ok"] and rep["rhs"] == 1.0


def test_gibbs_linear_closed_form():
    # 3^p x mod 1 with one full block of times: phi^E = #E p log 3 and
    # every cylinder has Lebesgue measure (3^p)^-#E-ish, far below rhs
    p = 2
    f = make_map("linear_circle", d=3.0)
    g = power_map(f, p)
    eps = choose_epsilon(g)
    n, M, m = 8, 2, 1
    E = list(range(1, n + 1))
    rep = gibbs_check(g, 0.377, E, q=4, eps=eps, n=n, M=M, m=m,
                      beta=0.3, b=0.9, p=p, n_samples=4000,
                      rng=np.random.default_rng(1))
    T = rep["T"]
    assert rep["phi_E"] == pytest.approx(len(T) * p * math.log(3.0), rel=1e-12)
    assert rep["ok"]
    # closed form: the T-cylinder of the linear map has measure 9^-#T;
    # it is below the bound with room to spare
    assert 9.0 ** -len(T) <= rep["rhs"]


def _gibbs_full_grid(g, x, E, q, eps, *, n, M, m, beta, b, p, bp, n_samples,
                     rng):
    """gibbs_check's Monte Carlo over whole sample orbits: orbit_grid on all
    samples for all n steps, then the label mask column by column.  Also
    returns the survivor count after each column of T."""
    from acim1d.entropy import GIBBS_C, _wilson
    from acim1d.maps import orbit_grid
    from acim1d.times import (
        boundary_counts, density_rows, mask_from_lists, surrogate_mask,
        trim_mask,
    )

    labQ = qbin_label(g, q, -0.5 / q)
    Tx = trim_mask(mask_from_lists([E], max([n - 1, *E]) + 1), n, M, m)
    T = np.flatnonzero(Tx[0]).tolist()
    if not T:
        return None, []
    xpts, xlds = orbit_grid(g, [float(x)], n)
    n_boundary = int(boundary_counts(Tx)[0])
    phi_E = float(sum(xlds[i, 0] for i in T))
    rhs = (GIBBS_C / eps) ** n_boundary * math.exp(-phi_E + len(T) / q)
    jx = bp.locate_many(xpts[T, 0])
    qx = labQ(xpts[T, 0])
    ys = rng.uniform(0.0, 1.0, n_samples)
    pts, lds = orbit_grid(g, ys, n)
    mask = np.ones(n_samples, dtype=bool)
    alive = []
    for col, i in enumerate(T):
        mask &= bp.locate_many(pts[i]) == jx[col]
        mask &= labQ(pts[i]) == qx[col]
        alive.append(int(np.count_nonzero(mask)))
    hits = 0
    if mask.any():
        lds = lds[:, mask]
        Ey = surrogate_mask(lds)
        hits = int(np.count_nonzero(
            (density_rows(Ey, n) > beta)
            & (np.cumsum(lds, axis=0)[n - 1] >= n * p * b - 1e-12)
            & (trim_mask(Ey, n, M, m) == Tx).all(axis=1)))
    ci = _wilson(hits, n_samples)
    return {"leb_hat": hits / n_samples, "ci": ci, "rhs": rhs,
            "ok": ci[0] <= rhs + 1e-12, "T": T, "phi_E": phi_E,
            "n_boundary": n_boundary, "trivial": False}, alive


_GIBBS_MAPS = {
    "doubling": (make_map("doubling"), 1),
    "doubling^2": (make_map("doubling"), 2),
    "doubling^4": (make_map("doubling"), 4),
    "logistic^2": (make_map("logistic", smoothness_r=4.0), 2),
}


def _gibbs_pair(name, x, E, n, M, m, n_samples, seed, q=2, beta=0.1, b=0.1):
    f, p = _GIBBS_MAPS[name]
    g = power_map(f, p)
    bp = monotone_branches(g)
    kw = dict(q=q, eps=0.01, n=n, M=M, m=m, beta=beta, b=b, p=p, bp=bp,
              n_samples=n_samples)
    got = gibbs_check(g, x, E, rng=np.random.default_rng(seed), **kw)
    want, alive = _gibbs_full_grid(g, x, E, rng=np.random.default_rng(seed),
                                   **kw)
    return got, want, alive


@given(st.sampled_from(sorted(_GIBBS_MAPS)), st.floats(0.0, 1.0),
       st.integers(2, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_gibbs_check_matches_full_grid_oracle(name, x, n, data):
    E = data.draw(st.lists(st.integers(0, n + 2), max_size=n + 3))
    M, m = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
    got, want, _ = _gibbs_pair(name, x, sorted(set(E)), n, M, m,
                               data.draw(st.one_of(st.integers(1, 8),
                                                   st.integers(1, 3000))),
                               data.draw(st.integers(0, 2 ** 32 - 1)))
    assert got["trivial"] if want is None else got == want


def test_gibbs_check_matches_full_grid_oracle_at_the_edges():
    # T = [0, n - 1), the widest set trim keeps (clip needs a later time
    # below n): the first and the last possible column both filter, and
    # the survivors are iterated one step past T
    n = 8
    got, want, alive = _gibbs_pair("doubling", 0.3, list(range(n + 1)), n,
                                   M=2, m=1, n_samples=4000, seed=5)
    assert want["T"] == list(range(n - 1)) and alive[-1] > 0
    assert got == want
    # one sample left after the last column
    got, want, alive = _gibbs_pair("doubling", 0.3, list(range(n + 1)), n,
                                   M=2, m=1, n_samples=300, seed=4)
    assert alive[-1] == 1
    assert got == want
    # survivors that count as hits (0 is never a surrogate time, so T
    # starts at 1; slope 16 > 10 makes every later time one)
    got, want, alive = _gibbs_pair("doubling^4", 0.3, list(range(1, 5)), 4,
                                   M=2, m=1, n_samples=4000, seed=5)
    assert want["T"] == [1, 2] and want["leb_hat"] > 0
    assert got == want
    # x at the logistic critical point: Q_0 is the tail bin, which no
    # sample shares, so the first column kills every sample
    got, want, alive = _gibbs_pair("logistic^2", 0.5, list(range(n + 1)), n,
                                   M=2, m=1, n_samples=4000, seed=6)
    assert want["T"][0] == 0 and alive[0] == 0
    assert got == want


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_gibbs_check_reads_the_recorded_orbit(preset):
    # the pool's recorded orbit of a seed in place of its recomputation;
    # E is every time, so T is never empty and phi_E reads the orbit
    f, p, n = make_map(preset), 2, 12
    g = power_map(f, p)
    pool = build_seed_pool(f, p, n, 40, np.random.default_rng(8))
    kw = dict(q=4, eps=0.01, n=n, M=2, m=1, beta=0.1, b=0.1, p=p,
              bp=monotone_branches(g), n_samples=500)
    for s in range(0, 40, 4):
        x, E = float(pool.seeds[s]), list(range(n + 1))
        got = gibbs_check(g, x, E, orbit=(pool.points[:n + 1, s],
                                          pool.log_derivs[:n, s]),
                          rng=np.random.default_rng(s), **kw)
        assert not got["trivial"]
        assert got == gibbs_check(g, x, E, rng=np.random.default_rng(s),
                                  **kw)


def test_gibbs_logistic_power_instance():
    f = make_map("logistic", smoothness_r=4.0)
    p = 6
    g = power_map(f, p)
    eps = 2.0 ** -12  # representative certificate scale for g
    pool = build_seed_pool(f, p, 30, 50, np.random.default_rng(17))
    sel = select_An(pool, 30, 0.05, 0.45, p)
    s = sel.indices[0]
    x = float(pool.seeds[s])
    rep = gibbs_check(g, x, pool.time_list(s), q=4, eps=eps, n=30, M=3, m=2,
                      beta=0.05, b=0.45, p=p, n_samples=3000,
                      rng=np.random.default_rng(3))
    assert rep["ok"]


def test_entropy_formula_doubling_verdict():
    f, mu = _doubling_measure(seeds=20000)
    rep = entropy_formula_residual(f, mu, q_list=[2], m_list=[1, 2, 3],
                                   p=4, tol=0.03)
    assert rep["verdict"] == "AC-consistent"
    assert abs(rep["h_f_est"] - LOG2) <= 0.03
    assert abs(rep["int_phi_f"] - LOG2) < 1e-9
    assert rep["exponent_positive"]


def test_entropy_formula_dirac_not_ac():
    f = make_map("linear_circle", d=3.0)
    # Dirac at the fixed point 1/2 (3/2 = 1/2 mod 1): h = 0, int = log 3
    atoms = np.full(10 ** 4, 0.5)
    mu = EmpiricalMeasure(atoms=atoms, weights=np.full(10 ** 4, 1e-4),
                          meta={})
    rep = entropy_formula_residual(f, mu, q_list=[2], m_list=[1, 2], p=1,
                                   tol=0.05)
    assert rep["verdict"] == "not-AC"
    assert rep["residual_f"] == pytest.approx(-math.log(3.0), abs=1e-6)


def test_entropy_formula_needs_atoms():
    f = make_map("doubling")
    mu = EmpiricalMeasure(atoms=np.array([0.1]), weights=np.array([1.0]),
                          meta={})
    with pytest.raises(InsufficientAtoms):
        entropy_formula_residual(f, mu, [2], [1, 2], p=1)


@pytest.mark.parametrize("conditions", list(itertools.product(
    [False, True], repeat=3)))
def test_ac_verdict_truth_table(conditions):
    want = "AC-consistent" if conditions == (True, True, True) else "not-AC"
    assert ac_verdict(*conditions) == want
    if conditions[2]:  # checks_ok defaults to True
        assert ac_verdict(*conditions[:2]) == want
