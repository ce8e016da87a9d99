"""Geometric/hyperbolic time detection and the E_n^{M,m} set calculus.

The discrete machinery works on finite subsets E of the nonnegative
integers below a horizon n:

  - clip:      E_n^M  = union of [[k;l[[ over pairs k,l in E cap [0,n)
               with |k-l| <= M,
  - trim:      E_n^{M,m} removes, from each component [[k;l[[ of E_n^M,
               the minimal L in [m-1, M+m-2] elements such that the
               shortened component still ends at an element of E
               (components with no valid L are dropped),
  - boundary:  dE = E symmetric-difference (E+1).

The kernels look L up where trim and the oracles search for it.  Each
component [[k;l[[ is a chain: a maximal run of elements with gaps <= M.
Lemma: with a the last element <= l-m+1, L = l-a if a > k, else none.
Proof: no element lies in ]]a; l-m+1]], so no L < l-a is admissible.
If a > k, L = l-a >= m-1 is, as the element b after a in the chain has
b >= l-m+2 and b-a <= M, so l-a <= M+m-2.  If a <= k, no L is.

A pool's time sets are one boolean seed x time matrix (row s, column t:
t in E(x_s)).  chain_table finds its chains at M once; trim_masks reads
the clip and the trims at one horizon n off it, trim_counts every n's
trim sizes.  These, density_rows, boundary_counts and verify_enm_grid
work on all rows at once; the set-based functions above and the
brute-force enumerations (clip_bruteforce and trim_bruteforce per set,
enm_bruteforce_rows per matrix) are their oracles.

Two detectors produce the raw time sets: the reparametrization-tree
walk (the defining construction) and a fast surrogate that keeps the
times l whose past is uniformly expanded, |(g^{l-k})'(g^k x)| >=
c^{l-k} for every k < l, computed with a running-minimum pass over
log-derivative prefix sums.  With c = EXPANSION the surrogate times
satisfy the hyperbolic-time inequalities by construction.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .maps import orbit_grid

__all__ = [
    "clip", "trim", "boundary_set", "components", "verify_enm",
    "hyperbolic_surrogate_times", "verify_hyperbolic", "density", "EXPANSION",
    "mask_from_lists", "density_rows", "chain_table", "trim_mask", "trim_masks",
    "trim_counts", "boundary_counts", "surrogate_mask", "verify_enm_grid",
]

EXPANSION = 10.0                 # c: hyperbolic times expand by c per step
LOG10 = math.log(EXPANSION)


def density(S, n):
    """d_n(S) = #(S cap [0,n)) / n."""
    if n <= 0:
        return 0.0
    return sum(1 for s in S if 0 <= s < n) / n


def components(S):
    """Connected components of an integer set as (start, stop) half-open runs."""
    xs = sorted(S)
    if not xs:
        return []
    runs = []
    a = b = xs[0]
    for v in xs[1:]:
        if v == b + 1:
            b = v
        else:
            runs.append((a, b + 1))
            a = b = v
    runs.append((a, b + 1))
    return runs


def clip(E, n, M):
    """E_n^M: union of [[k;l[[ over k,l in E cap [0,n) with |k-l| <= M.

    Only adjacent qualifying pairs matter: any qualifying [k,l) is a
    union of adjacent-element intervals with gaps <= l-k <= M.
    """
    elems = sorted(e for e in set(E) if 0 <= e < n)
    out = set()
    for a, b in zip(elems, elems[1:]):
        if b - a <= M:
            out.update(range(a, b))
    return out


def trim(E, n, M, m):
    """E_n^{M,m}: shorten each clip component back onto an element of E."""
    if m < 1:
        raise ValueError("m must be >= 1")
    Eset = set(E)
    out = set()
    for k, l in components(clip(E, n, M)):
        chosen = None
        for L in range(m - 1, M + m - 1):
            if l - L > k and (l - L) in Eset:
                chosen = L
                break
        if chosen is not None:
            out.update(range(k, l - chosen))
    return out


def boundary_set(S):
    """dS = S symmetric-difference (S+1)."""
    S = set(S)
    return S ^ {s + 1 for s in S}


def mask_from_lists(sets, width):
    """Boolean (len(sets), width) matrix; row s marks sets[s] (all < width)."""
    sizes = [len(E) for E in sets]
    mask = np.zeros((len(sets), width), dtype=bool)
    mask[np.repeat(np.arange(len(sets)), sizes), np.fromiter(
        itertools.chain.from_iterable(sets), int, sum(sizes))] = True
    return mask


def density_rows(E, n):
    """d_n of every row: #(E cap [0,n)) / n."""
    return np.count_nonzero(np.asarray(E, dtype=bool)[:, :n], axis=1) / n


def chain_table(E, M):
    """(E, M, last, k) for the boolean (S, W) matrix E: last[s, t] is row
    s's last element <= t (-M-1 if none), k[s, t] the first element of
    its chain, a maximal run of elements with gaps <= M (-1 if none)."""
    E = np.asarray(E, dtype=bool)
    t = np.arange(E.shape[1], dtype=np.int32)
    last = np.maximum.accumulate(np.where(E, t, np.int32(-M - 1)), axis=1)
    start = E.copy()            # elements more than M after the one before
    start[:, 1:] &= t[1:] - last[:, :-1] > M
    k = np.maximum.accumulate(np.where(start, t, np.int32(-1)), axis=1)
    return E, M, last, k


def trim_mask(E, n, M, m):
    """Row-wise trim at one m: trim_masks' batch of one."""
    return trim_masks(chain_table(E[:, :n], M), n, [m])[1][m]


def trim_masks(table, n, ms):
    """(clip, {m: trim}) of a chain_table's rows at horizon n, m in ms.  A
    chain ends below n at each element l < n with no element in
    ]]l; min(l+M, n-1)]]; the clip is the union of [[k(l);l[[ over those
    ends, each trim that of [[k(l);a[[, a = last[l-m+1], if a > k(l)."""
    trims = dict.fromkeys(ms)
    if any(m < 1 for m in trims):
        raise ValueError("m must be >= 1")
    E, M, last, k = table
    t = np.arange(min(n, E.shape[1]))
    rows, l = np.nonzero(last[:, np.minimum(t + M, t.size - 1)] == t)
    k = k[rows, l]

    def union(end):         # of [[k;end[[ over the chains with end > k
        keep = end > k
        fill = np.zeros((E.shape[0], t.size), dtype=np.int8)
        fill[rows[keep], k[keep]] = 1       # starts and ends are distinct
        fill[rows[keep], end[keep]] = -1
        return np.cumsum(fill, axis=1, dtype=np.int8) > 0

    return union(l), {      # a lone element clips to nothing
        m: union(last[rows, np.maximum(l - m + 1, 0)]) for m in trims}


def trim_counts(table, m):
    """(S, W+1) ints: [s, n] = #trim_masks(table, n, [m])[1][m][s], every
    n in one pass: max(last[l-m+1], k(l)) - k(l), l the last element < n
    of row s, plus the trimmed lengths of the chains before it."""
    if m < 1:
        raise ValueError("m must be >= 1")
    E, _, last, k = table
    S, W = E.shape
    t = np.arange(W, dtype=np.int32)
    end = k.copy()      # at element l: its chain's trim end, k(l) if dropped
    end[:, m - 1:] = np.maximum(last[:, :max(W - m + 1, 0)], k[:, m - 1:])
    out = np.zeros((S, W + 1), dtype=np.int32)
    out[:, 1:] = np.take_along_axis(end - k, np.maximum(last, 0), axis=1)
    del end
    # from each chain's start (k == t) on, add the chains before it
    out[:, 1:] += np.cumsum(np.where(k == t, out[:, :-1], np.int32(0)),
                            axis=1, dtype=np.int32)
    return out


def boundary_counts(T):
    """#(T symmetric-difference (T+1)) per row: the row's 0/1 transitions."""
    return np.count_nonzero(np.diff(np.asarray(T, dtype=np.int8), axis=1,
                                    prepend=0, append=0), axis=1)


# ---------------------------------------------------------------------------
# brute-force oracles (kept alongside the fast paths; tests compare them)
# ---------------------------------------------------------------------------


def clip_bruteforce(E, n, M):
    """Union of [[k;l[[ over every pair k < l of E cap (-inf, n) with
    l - k <= M (pairs with k >= l add nothing)."""
    out = set()
    for k, l in itertools.combinations(sorted({e for e in E if e < n}), 2):
        if l - k <= M:
            out.update(range(k, l))
    return out


def trim_bruteforce(E, n, M, m):
    """The trim step, from the definition, on the components of
    clip_bruteforce(E, n, M)."""
    Eset = set(E)
    out = set()
    for k, l in components(clip_bruteforce(E, n, M)):
        for L in range(m - 1, M + m - 1):
            if l - L > k and (l - L) in Eset:
                out.update(range(k, l - L))
                break
    return out


def enm_bruteforce_rows(E, M, ms):
    """E_n^M and each E_n^{M,m}, m in ms, of every row of the boolean
    (S, n) matrix E, n its width, by enumeration of the definitions.

    The clip ORs E[:, k] & E[:, l] into columns k..l-1 for every pair
    k < l <= k+M.  Each component [[k;l[[ is found by trying every
    k < l, and keeps its rows as an index array; per m each row of it is
    cut to [[k;l-L[[ at the least L in [m-1, M+m-2] with l-L > k and E
    at l-L.  Returns (clip, {m: trim}); clip_bruteforce and
    trim_bruteforce are its per-set oracles in the tests."""
    E = np.asarray(E, dtype=bool)
    S, n = E.shape
    clip = np.zeros((S, n), dtype=bool)
    for k in range(n):
        for l in range(k + 1, min(k + M, n - 1) + 1):
            clip[:, k:l] |= (E[:, k] & E[:, l])[:, None]
    edge = np.pad(clip, ((0, 0), (1, 1)))      # edge[:, t + 1] = clip[:, t]
    runs = []                                   # (k, l, rows of [[k;l[[)
    for k in range(n):
        inside = ~edge[:, k]
        for l in range(k + 1, n + 1):
            inside = inside & clip[:, l - 1]
            if not inside.any():
                break
            rows = np.flatnonzero(inside & ~edge[:, l + 1])
            if rows.size:
                runs.append((k, l, rows))
    trims = {}
    for m in ms:
        out = trims[m] = np.zeros((S, n), dtype=bool)
        for k, l, rows in runs:
            for L in range(m - 1, min(M + m - 1, l - k)):
                hit = E[rows, l - L]
                out[rows[hit], k:l - L] = True
                rows = rows[~hit]
    return clip, trims


# ---------------------------------------------------------------------------
# combinatorial lemma checks
# ---------------------------------------------------------------------------


def verify_enm(E, n, M, Mprime, m):
    """Check the boundary/counting properties of E_n^{M,m}.

    Returns a dict of booleans and margins for: (i) dE_n^{M,m} subset E,
    (iii) M * #d/2 <= n + M, (iv) #(E_n^{M',m} \\ E_n^{M,m}) >=
    M (#dE_n^{M,m} - #dE_n^{M',m}) / 2, plus trimmed-set monotonicity
    in M.
    """
    if M > Mprime:
        raise ValueError("need M <= Mprime")
    Eset = set(E)
    S = trim(E, n, M, m)
    Sp = trim(E, n, Mprime, m)
    dS = boundary_set(S)
    dSp = boundary_set(Sp)
    i_ok = dS <= Eset
    iii_margin = (n + M) - M * len(dS) / 2
    iv_margin = len(Sp - S) - M * (len(dS) - len(dSp)) / 2
    return {
        "i_boundary_subset": i_ok,
        "iii_margin": iii_margin,
        "iii_ok": iii_margin >= 0,
        "iv_margin": iv_margin,
        "iv_ok": iv_margin >= 0,
        "monotone_in_M": S <= Sp,
    }


def verify_enm_grid(E, n, trims):
    """verify_enm(E_r, n, M, M', m) on every row E_r of the boolean matrix
    E (same keys, arrays), from trims = {(M, m): trim_mask(E, n, M, m)},
    for every M <= M' of trims, yielded as ((M, M', m), report) in the
    order of trims.  Each trim's boundary count, (i) flag and (iii)
    margin are computed once."""
    E = np.asarray(E, dtype=bool)
    one = {(M, m): _trim_lemmas(E, n, M, S) for (M, m), S in trims.items()}
    for (M, m), S in trims.items():
        for (Mp, mp), Sp in trims.items():
            if mp == m and Mp >= M:
                yield (M, Mp, m), _pair_lemmas(M, S, Sp, one[M, m],
                                               one[Mp, m]["nd"])


def _trim_lemmas(E, n, M, S):
    """The lemmas on one trim S = trim_mask(E, n, M, m) alone, per row:
    #dS, (i) dS subset E and (iii) M #dS / 2 <= n + M."""
    pad = np.pad(S, ((0, 0), (1, 1)))
    dS = pad[:, 1:] ^ pad[:, :-1]              # S symmetric-difference (S+1)
    Ew = np.pad(E, ((0, 0), (0, 1)))[:, :dS.shape[1]]   # E on dS's columns
    nd = np.count_nonzero(dS, axis=1)
    iii = (n + M) - M * nd / 2
    return {"nd": nd, "i_boundary_subset": ~np.any(dS & ~Ew, axis=1),
            "iii_margin": iii, "iii_ok": iii >= 0}


def _pair_lemmas(M, S, Sp, one, ndp):
    """The verify_enm_grid report of trims S (at M) and Sp (at M' >= M),
    given S's _trim_lemmas one and ndp = #dSp per row: adds (iv) and
    monotonicity in M."""
    iv = np.count_nonzero(Sp & ~S, axis=1) - M * (one["nd"] - ndp) / 2
    return {"i_boundary_subset": one["i_boundary_subset"],
            "iii_margin": one["iii_margin"], "iii_ok": one["iii_ok"],
            "iv_margin": iv, "iv_ok": iv >= 0,
            "monotone_in_M": ~np.any(S & ~Sp, axis=1)}


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


def surrogate_mask(log_derivs):
    """Surrogate hyperbolic times of every seed column of log|g'|.

    log_derivs has shape (n, S); returns a boolean (S, n+1) matrix.  l
    qualifies iff S_l - S_k >= (l-k) log c for every k < l, where S is the
    prefix sum and c = EXPANSION.  Equivalently S_l - l log c must reach a
    new running maximum over {S_k - k log c : k < l}; that gives the O(n)
    pass.  A -inf log-derivative (critical hit) kills every later time.
    """
    lds = np.asarray(log_derivs, dtype=float)
    n, S = lds.shape
    prefix = np.vstack([np.zeros(S), np.cumsum(lds, axis=0)])
    t = prefix - LOG10 * np.arange(n + 1)[:, None]
    run_max = np.maximum.accumulate(t, axis=0)
    before = np.vstack([np.full(S, np.inf), run_max[:-1]])   # max over k < l
    return np.ascontiguousarray((np.isfinite(t) & (t >= before - 1e-12)).T)


def hyperbolic_surrogate_times(g, x, n_max):
    """Surrogate detector (c = EXPANSION) on a fresh orbit of g from x, as a
    sorted list of times."""
    _, lds = orbit_grid(g, [x], n_max)
    return np.flatnonzero(surrogate_mask(lds)[0]).tolist()


# ---------------------------------------------------------------------------
# hyperbolic-time property verification
# ---------------------------------------------------------------------------


def verify_hyperbolic(g, x, E, n, M, m, log_sup_gprime):
    """Check the expansion inequalities of hyperbolic times along an orbit,
    with c = EXPANSION:

    (i)   for l in E and every k < l:  S_l - S_k >= (l-k) log c
    (ii)  per connected component [[a;b[[ of E_n^{M,m}:
          S_b - S_a >= (b-a) log c
    (iii) for every [[k;l[[ inside E_n^{M,m}:
          S_l - S_k >= (l-k) log c - M log_sup_gprime (log||g'||_inf)

    Returns worst margins (positive = pass).  E may come from either
    detector; an empty E passes vacuously with margins +inf.
    """
    elems = sorted(set(E))
    horizon = max([n] + elems) if elems else n
    _, lds = orbit_grid(g, [x], horizon)
    S = np.concatenate(([0.0], np.cumsum(lds[:, 0])))

    margin_i = min([np.inf] + [
        float(np.min((S[l] - S[:l]) - (l - np.arange(l)) * LOG10))
        for l in elems if l > 0])

    T = trim(elems, n, M, m)
    margin_ii = margin_iii = np.inf
    for a, b in components(T):
        margin_ii = min(margin_ii, float(S[b] - S[a] - (b - a) * LOG10))
        k, l = np.add(np.triu_indices(b - a + 1, 1), a)
        margin_iii = min(margin_iii, float(np.min(
            (S[l] - S[k]) - ((l - k) * LOG10 - M * log_sup_gprime))))
    return {
        "i_margin": margin_i,
        "ii_margin": margin_ii,
        "iii_margin": margin_iii,
        "i_ok": margin_i >= -1e-9,
        "ii_ok": margin_ii >= -1e-9,
        "iii_ok": margin_iii >= -1e-9,
        "n_times": len(elems),
        "n_trimmed": len(T),
    }
