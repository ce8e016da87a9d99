"""Time-set calculus: oracle equivalence, lemma checks, detectors."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from acim1d.maps import make_map, orbit_grid, power_map
from acim1d.times import (
    boundary_counts, boundary_set, chain_table, clip, clip_bruteforce,
    components, density, density_rows, enm_bruteforce_rows,
    hyperbolic_surrogate_times, mask_from_lists, surrogate_mask, trim,
    trim_bruteforce, trim_counts, trim_mask, trim_masks, verify_enm,
    verify_enm_grid, verify_hyperbolic,
)
from acim1d.times import _pair_lemmas, _trim_lemmas

time_sets = st.frozensets(st.integers(min_value=0, max_value=11), max_size=12)


def test_clip_examples():
    assert clip({0, 2, 3, 7}, 8, 2) == {0, 1, 2}
    assert clip(set(), 10, 3) == set()
    assert clip(set(range(10)), 10, 1) == set(range(9))


def test_trim_examples():
    assert trim({0, 3, 5, 9}, 10, 3, 2) == {0, 1, 2}
    # m = 1 keeps the clip untouched (L = 0 is admissible)
    for E in ({0, 1, 4, 5, 6}, {2, 3, 9}, set(range(8))):
        assert trim(E, 10, 2, 1) == clip(E, 10, 2)
    # degenerate short component is dropped
    assert trim({0, 1}, 2, 1, 3) == set()


def test_boundary_examples():
    assert boundary_set({0, 1, 2}) == {0, 3}
    assert boundary_set(set()) == set()
    assert boundary_set({0, 2, 4}) == {0, 1, 2, 3, 4, 5}


@given(time_sets, st.integers(0, 4), st.integers(1, 4))
@settings(max_examples=300)
def test_clip_trim_match_bruteforce(E, M, m):
    n = 12
    assert clip(E, n, M) == clip_bruteforce(E, n, M)
    assert trim(E, n, M, m) == trim_bruteforce(E, n, M, m)


def _assert_row_oracle_matches_sets(E, M):
    """enm_bruteforce_rows(E, M, 1..4) equals clip_bruteforce and
    trim_bruteforce of every row, at the horizon n = the width of E."""
    n = E.shape[1]
    clip_rows, trims = enm_bruteforce_rows(E, M, range(1, 5))
    assert clip_rows.shape == (E.shape[0], n) and sorted(trims) == [1, 2, 3, 4]
    for r, row in enumerate(E):
        Es = np.flatnonzero(row).tolist()
        assert np.flatnonzero(clip_rows[r]).tolist() == sorted(
            clip_bruteforce(Es, n, M)), (r, M)
        for m, T in trims.items():
            assert np.flatnonzero(T[r]).tolist() == sorted(
                trim_bruteforce(Es, n, M, m)), (r, M, m)


@st.composite
def narrow_matrices(draw):
    """Boolean matrices of width 0-12 with an all-true and an all-false
    row."""
    width = draw(st.integers(0, 12))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=width,
                                  max_size=width), max_size=6))
    return np.array(rows + [[True] * width, [False] * width], dtype=bool)


@given(narrow_matrices(), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_row_oracle_matches_set_oracles(E, M):
    _assert_row_oracle_matches_sets(E, M)


def test_row_oracle_matches_set_oracles_on_all_subsets():
    E = ((np.arange(1 << 8)[:, None] >> np.arange(8)) & 1).astype(bool)
    for M in range(6):
        _assert_row_oracle_matches_sets(E, M)


def _clip_ordered_pairs(E, n, M):
    """E_n^M by the literal double loop over ordered pairs: the oracle of
    clip_bruteforce's one visit per unordered pair."""
    out = set()
    for k in E:
        for l in E:
            if k < n and l < n and abs(k - l) <= M:
                out.update(range(k, l))
    return out


@given(st.lists(st.integers(-3, 16), max_size=14), st.integers(0, 12),
       st.integers(0, 6))
@settings(max_examples=400)
def test_clip_bruteforce_matches_ordered_pair_loop(E, n, M):
    # list input with repeats, elements at and beyond n, a few below 0
    assert clip_bruteforce(E, n, M) == _clip_ordered_pairs(E, n, M)
    assert clip_bruteforce(set(E), n, M) == _clip_ordered_pairs(E, n, M)


@given(time_sets, st.integers(0, 4), st.integers(0, 4), st.integers(1, 4))
@settings(max_examples=300)
def test_enm_lemma_random(E, M, Mextra, m):
    rep = verify_enm(E, 12, M, M + Mextra, m)
    assert rep["i_boundary_subset"]
    assert rep["iii_ok"]
    assert rep["iv_ok"]
    assert rep["monotone_in_M"]


def test_enm_empty_and_full():
    rep = verify_enm(set(), 12, 2, 3, 1)
    assert rep["i_boundary_subset"] and rep["iii_ok"] and rep["iv_ok"]
    n = 12
    E = set(range(n))
    rep = verify_enm(E, n, 1, 1, 1)
    assert rep["iii_ok"]
    d = boundary_set(trim(E, n, 1, 1))
    assert d == {0, n - 1}  # single component [[0, n-1[[


@given(time_sets, st.integers(1, 5), st.integers(1, 3))
@settings(max_examples=200)
def test_counting_bound_for_clip(E, M, m):
    # corrected form of the "clipping vs density" property: the clip keeps
    # every element that has an M-neighbor, up to one loss per component
    n = 12
    S = clip(E, n, M)
    iso = {e for e in E if 0 <= e < n
           and not any(0 < abs(e - f) <= M for f in E if f < n)}
    kept = {e for e in E if 0 <= e < n - M}
    assert len(S) >= len(kept) - len(components(S)) - len(iso)


def test_surrogate_uniform_expansion():
    # doubling^4 has slope 16 > 10, so every time qualifies
    g = power_map(make_map("doubling"), 4)
    E = hyperbolic_surrogate_times(g, 0.137, 30)
    assert E == list(range(1, 31))


def test_surrogate_slope_one_empty():
    from acim1d.maps import CIRCLE

    g = make_map("affine", c0=0.2, c1=1.0, domain=CIRCLE)  # rigid rotation
    assert len(hyperbolic_surrogate_times(g, 0.3, 25)) == 0


def _chain(lds):
    """Prefix sums S_0..S_n of one orbit's log|g'|."""
    return np.concatenate(([0.0], np.cumsum(lds)))


def _surrogate_by_definition(S, c=10.0):
    """O(n^2) oracle: the l with S_l - S_k >= (l-k) log c for every k < l,
    S the prefix sums of log|g'| along one orbit."""
    logc = math.log(c)
    return [l for l in range(1, len(S)) if np.isfinite(S[l]) and all(
        S[l] - S[k] >= (l - k) * logc - 1e-12 for k in range(l))]


def test_surrogate_matches_direct_recomputation():
    g = power_map(make_map("logistic"), 6)
    _, lds = orbit_grid(g, [0.137], 60)
    fast = hyperbolic_surrogate_times(g, 0.137, 60)
    assert fast == _surrogate_by_definition(_chain(lds[:, 0]))


def test_verify_hyperbolic_surrogate_by_construction():
    g = power_map(make_map("doubling"), 4)
    E = hyperbolic_surrogate_times(g, 0.271, 24)
    rep = verify_hyperbolic(g, 0.271, E, 24, 3, 2)
    assert rep["i_ok"] and rep["ii_ok"] and rep["iii_ok"]
    assert rep["i_margin"] >= -1e-9


def test_verify_hyperbolic_vacuous_on_empty():
    g = make_map("doubling")
    rep = verify_hyperbolic(g, 0.1, (), 10, 2, 1)
    assert rep["i_ok"] and rep["ii_ok"] and rep["iii_ok"]
    assert rep["i_margin"] == np.inf


def test_verify_hyperbolic_exact_linear():
    # 3^3 = 27 > 10: all inequalities hold with exact linear arithmetic
    g = power_map(make_map("linear_circle", d=3.0), 3)
    E = hyperbolic_surrogate_times(g, 0.4321, 20)
    assert len(E) == 20
    rep = verify_hyperbolic(g, 0.4321, E, 20, 2, 2)
    expected = math.log(27.0) - math.log(10.0)
    assert abs(rep["i_margin"] - expected) < 1e-9
    assert rep["iii_ok"]


def test_density_helper():
    assert density({0, 1, 2}, 6) == 0.5
    assert density(set(), 5) == 0.0


# ---------------------------------------------------------------------------
# batched kernels against the set-based oracles
# ---------------------------------------------------------------------------


@st.composite
def time_matrices(draw):
    """Random boolean seed x time matrices plus an all-true and an
    all-false row; the horizon n may be below or above the width."""
    width = draw(st.integers(1, 14))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=width,
                                  max_size=width), max_size=6))
    E = np.array(rows + [[True] * width, [False] * width], dtype=bool)
    n = draw(st.integers(1, width + 2))
    return E, n


def _row_sets(E):
    return [set(np.flatnonzero(row).tolist()) for row in E]


@given(time_matrices(), st.integers(0, 5), st.integers(1, 4))
@settings(max_examples=400, deadline=None)
def test_kernels_match_set_oracles(En, M, m):
    E, n = En
    C, trims = trim_masks(chain_table(E, M), n, [m])
    T = trims[m]
    width = min(n, E.shape[1])
    assert C.shape == T.shape == (E.shape[0], width)
    assert np.array_equal(trim_mask(E, n, M, m), T)
    dT = boundary_counts(T)
    d_n = density_rows(E, n)
    for r, Es in enumerate(_row_sets(E)):
        want = trim(Es, n, M, m)
        assert set(np.flatnonzero(C[r]).tolist()) == clip(Es, n, M)
        assert set(np.flatnonzero(T[r]).tolist()) == want
        assert want == trim_bruteforce(Es, n, M, m)
        assert dT[r] == len(boundary_set(want))
        assert d_n[r] == density(Es, n)


@given(time_matrices(), st.integers(0, 5),
       st.lists(st.integers(1, 5), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_trim_masks_match_bruteforce(En, M, ms):
    # several m from one chain table, ms unsorted and repeated, n below,
    # at and above the width of E
    E, n = En
    table = chain_table(E, M)
    C, got = trim_masks(table, n, ms)
    assert list(got) == list(dict.fromkeys(ms))
    width = min(n, E.shape[1])
    assert C.tolist() == mask_from_lists(
        [clip_bruteforce(Es, n, M) for Es in _row_sets(E)], width).tolist()
    for m, T in got.items():
        assert T.shape == (E.shape[0], width)
        assert T.tolist() == mask_from_lists(
            [trim_bruteforce(Es, n, M, m) for Es in _row_sets(E)],
            width).tolist()
    with pytest.raises(ValueError):
        trim_masks(table, n, ms + [0])


def _clip(E, n, M):
    return trim_masks(chain_table(E, M), n, [])[0]


def test_kernels_edge_cases():
    E = mask_from_lists([[0], [0, 1], list(range(12)), [], [3, 11]], 12)
    # n = 1: only element 0 is below the horizon, so every clip is empty
    assert not _clip(E, 1, 3).any() and not trim_mask(E, 1, 3, 1).any()
    assert density_rows(E, 1).tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]
    # M = 0: no pair of distinct elements is within distance 0
    assert not _clip(E, 12, 0).any() and not trim_mask(E, 12, 0, 2).any()
    # element 0 starts a component; elements >= n are ignored
    assert np.flatnonzero(trim_mask(E, 12, 1, 1)[1]).tolist() == [0]
    assert np.flatnonzero(trim_mask(E, 4, 1, 1)[2]).tolist() == [0, 1, 2]
    assert boundary_counts(trim_mask(E, 12, 1, 1)).tolist() == [0, 2, 2, 0, 0]
    with pytest.raises(ValueError):
        trim_mask(E, 12, 2, 0)


def _counts(E, M, m):
    return trim_counts(chain_table(E, M), m)


def _per_horizon_counts(E, M, m):
    """trim_counts' oracle: one trim_mask per horizon n = 0..W."""
    return np.stack([np.count_nonzero(trim_mask(E, n, M, m), axis=1)
                     for n in range(E.shape[1] + 1)], axis=1)


@given(time_matrices(), st.integers(0, 5), st.integers(1, 4))
@settings(max_examples=400, deadline=None)
def test_trim_counts_match_per_horizon_trim(En, M, m):
    E, _ = En
    got = _counts(E, M, m)
    assert got.shape == (E.shape[0], E.shape[1] + 1)
    assert np.array_equal(got, _per_horizon_counts(E, M, m))


def test_trim_counts_edge_cases():
    # rows: empty, full, elements in columns 0 and W-1, a chain of three,
    # chains that merge as M grows, and a lone element at column 0
    E = mask_from_lists([[], list(range(12)), [0, 11], [3, 4, 5],
                         [0, 2, 3, 11], [0]], 12)
    full = [0, 0] + list(range(1, 12))
    assert _counts(E, 1, 1).tolist() == [
        [0] * 13, full, [0] * 13, [0] * 5 + [1] + [2] * 7,
        [0] * 4 + [1] * 9, [0] * 13]
    # m - 1 = 2 is the length of [[3;5[[, so no L leaves a component
    assert _counts(E, 1, 3)[3].tolist() == [0] * 13
    # one chain 0, 2, 3 at M = 3: [[0;3[[ cut back onto 2 at m = 2
    assert _counts(E, 3, 2)[4].tolist() == [0] * 4 + [2] * 9
    # M = 0: no two distinct elements are within distance 0
    assert not _counts(E, 0, 1).any()
    # 11 is M = 11 after 0: [[0;11[[ appears only at horizon 12
    assert _counts(E, 11, 1)[2].tolist() == [0] * 12 + [11]
    for M in range(6):
        for m in range(1, 5):
            assert np.array_equal(_counts(E, M, m),
                                  _per_horizon_counts(E, M, m)), (M, m)
    # width 1 and no rows
    assert _counts(np.array([[True], [False]]), 2, 1).tolist() == \
        [[0, 0], [0, 0]]
    assert _counts(np.zeros((0, 5), dtype=bool), 2, 1).shape == (0, 6)
    with pytest.raises(ValueError):
        _counts(E, 2, 0)


@st.composite
def bare_time_matrices(draw):
    """Random boolean seed x time matrices of zero to six rows."""
    width = draw(st.integers(1, 14))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=width,
                                  max_size=width), max_size=6))
    return np.array(rows, dtype=bool).reshape(len(rows), width)


@given(bare_time_matrices(), st.integers(0, 5))
@example(np.zeros((0, 4), dtype=bool), 2)          # no rows
@example(np.array([[True], [False]]), 1)           # width 1
@example(np.array([[True, True, False, True]]), 0)  # M = 0
@settings(max_examples=300, deadline=None)
def test_chain_table_readers_match_bruteforce(E, M):
    # one table, read by trim_masks at every horizon n = 0..W+2 (n = 0
    # included) and every m = 1..W+2 (m - 1 past the last column
    # included), and by trim_counts at every m: each mask equals the
    # per-set oracle row by row, and trim_counts' column n counts
    # trim_masks' rows at n
    S, W = E.shape
    table = chain_table(E, M)
    sets = _row_sets(E)
    ms = range(1, W + 3)
    counts = {m: trim_counts(table, m) for m in ms}
    for n in range(W + 3):
        clip_n, trims = trim_masks(table, n, ms)
        width = min(n, W)
        assert clip_n.shape == (S, width)
        assert clip_n.tolist() == mask_from_lists(
            [clip_bruteforce(Es, n, M) for Es in sets], width).tolist()
        for m, T in trims.items():
            assert T.shape == (S, width)
            assert T.tolist() == mask_from_lists(
                [trim_bruteforce(Es, n, M, m) for Es in sets],
                width).tolist()
            assert counts[m][:, width].tolist() == \
                np.count_nonzero(T, axis=1).tolist()


def verify_enm_rows(E, n, M, Mprime, m, S=None, Sp=None):
    """verify_enm_grid's oracle, one pair (M, M') at a time from its
    per-trim and per-pair parts.  S and Sp, if given, are
    trim_mask(E, n, M, m) and trim_mask(E, n, Mprime, m)."""
    if M > Mprime:
        raise ValueError("need M <= Mprime")
    S = trim_mask(E, n, M, m) if S is None else S
    Sp = trim_mask(E, n, Mprime, m) if Sp is None else Sp
    return _pair_lemmas(M, S, Sp, _trim_lemmas(E, n, M, S),
                        boundary_counts(Sp))


@given(time_matrices(), st.integers(0, 4), st.integers(0, 3),
       st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_verify_enm_rows_matches_per_row_oracle(En, M, Mextra, m):
    # Mextra = 0 covers M == M'; rows may hold elements >= n
    E, n = En
    Mp = M + Mextra
    rep = verify_enm_rows(E, n, M, Mp, m)
    reused = verify_enm_rows(E, n, M, Mp, m, trim_mask(E, n, M, m),
                             trim_mask(E, n, Mp, m))
    for r, Es in enumerate(_row_sets(E)):
        for key, want in verify_enm(Es, n, M, Mp, m).items():
            assert rep[key][r] == want, key
            assert reused[key][r] == want, key


@given(time_matrices(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_verify_enm_grid_matches_pairwise_rows(En, m_max):
    # every (M, m) of a 4 x m_max grid, pairs taken across the whole grid
    E, n = En
    trims = {(M, m): trim_mask(E, n, M, m) for M in range(4)
             for m in range(1, m_max + 1)}
    got = dict(verify_enm_grid(E, n, trims))
    assert sorted(got) == sorted((M, Mp, m) for M, m in trims
                                 for Mp in range(M, 4))
    for (M, Mp, m), rep in got.items():
        want = verify_enm_rows(E, n, M, Mp, m)
        assert list(rep) == list(want)
        for key in want:
            assert np.array_equal(rep[key], want[key]), (M, Mp, m, key)


def test_verify_enm_rows_flags_violations():
    # trimmed sets passed in directly: dS = {1, 3} is not inside E = {0, 5},
    # and S = {1, 2} is not inside S' = {}
    E = mask_from_lists([[0, 5]], 8)
    S = mask_from_lists([[1, 2]], 8)
    rep = verify_enm_rows(E, 8, 2, 3, 1, S, np.zeros_like(S))
    assert not rep["i_boundary_subset"][0] and not rep["monotone_in_M"][0]
    assert rep["iii_margin"][0] == 8 and rep["iv_margin"][0] == -2
    assert not rep["iv_ok"][0]
    with pytest.raises(ValueError):
        verify_enm_rows(E, 8, 3, 2, 1)


def test_surrogate_mask_columns_match_definition():
    g = power_map(make_map("logistic"), 6)
    rng = np.random.default_rng(4)
    recs = [orbit_grid(g, [x], 40)[1][:, 0] for x in rng.uniform(0, 1, 25)]
    lds = np.column_stack(recs)
    mask = surrogate_mask(lds)
    assert mask.shape == (25, 41) and not mask[:, 0].any()
    assert mask.any(axis=1).sum() > 5
    for s, rec in enumerate(recs):
        assert np.flatnonzero(mask[s]).tolist() == \
            _surrogate_by_definition(_chain(rec))
