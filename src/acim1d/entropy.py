"""Partitions, partition entropy, and the inequality suites.

The working partition is P_q = J v Q_q: monotone branches joined with
level sets of log|g'| cut into bins ]k/q, (k+1)/q] + a.  The offset
a in ]-1/q, 0[ is drawn so that no recorded orbit point sits within
CUT_DIST of an atom boundary (the finite-sample stand-in for "the
boundary has zero measure").

Entropy of an empirical measure under P_q^m is computed by itinerary
coding: an atom at orbit position (seed, i) belongs to the P_q^m cell
determined by its labels at times i..i+m-1, so cell masses are exact
for purely atomic measures and no interval bookkeeping is needed; one
fold over the labels in time order gives every H(P_q^1..m) as a
prefix.

Inequality suites: the block-entropy lower bound for shifted averages
(exact integer masses over one common denominator, high-precision
logs), the countable-partition entropy bounds with c_0 = 4 (e (1 -
e^{-1/2}))^{-1}, and the Gibbs cylinder bound with C = GIBBS_C.
"""

from __future__ import annotations

import decimal
import functools
import math
import numbers
from fractions import Fraction

import numpy as np

from .errors import InsufficientAtoms, OffsetNotFound
from .branches import monotone_branches, rprime_norm
from .maps import orbit_grid, power_map
from .measures import (
    PROXY_MIN, forward_points, in_An, log_derivs_at, positive_exponent_proxy,
)
from .times import (
    boundary_counts, boundary_set, mask_from_lists, surrogate_mask, trim_mask,
)

__all__ = [
    "choose_offset", "itinerary_entropy", "verify_misiurewicz",
    "misiurewicz_battery",
    "verify_mane_bounds", "gibbs_check",
    "entropy_formula_residual", "ac_verdict", "C0_MANE", "qbin_label",
]

C0_MANE = 4.0 / (math.e * (1.0 - math.exp(-0.5)))
GIBBS_C = 8.0
OFFSET_DRAWS = 1000       # choose_offset: offsets tried before giving up
CUT_DIST = 1e-9           # a point this close to an atom border sits on it
CUT_MASS_TOL = 0.01       # largest tolerated mass of points on J cuts
MISIUREWICZ_DPS = 41      # decimal digits (>= 136 bits) of the exact
                          # block-entropy check
MIN_ATOMS = 10 ** 4       # entropy_formula_residual's smallest measure
RANK_SPAN = 4             # _ranks counts while span <= RANK_SPAN * size
QBIN_TAIL = -10 ** 9 - 1  # Q_q index of the bins below it and of criticals
# misiurewicz_battery's instances per kernel call: each array stays below
# malloc's 128 KiB mmap threshold, which freeing a larger one would raise
BATTERY_BLOCK = 256


# ---------------------------------------------------------------------------
# partition labels
# ---------------------------------------------------------------------------


def qbin_label(g, q, a):
    """Vectorized Q_q bin index of points: k with log|g'(x)| in I_{q,k}.

    Indices below QBIN_TAIL (and criticals) are lumped into QBIN_TAIL.
    """
    return lambda xs: _qbins(g.log_abs_deriv(np.asarray(xs, dtype=float)),
                             q, a)


def _qbins(u, q, a):
    """qbin_label's index from the values u = log|g'(x)|."""
    k = np.where(np.isfinite(u), np.ceil(q * (u - a)) - 1.0, QBIN_TAIL)
    return np.maximum(k, QBIN_TAIL).astype(np.int64)


def choose_offset(g, q, orbit_atoms, log_derivs, rng, cut_points=None):
    """Draw a in ]-1/q, 0[ keeping orbit points CUT_DIST away from atom
    borders, trying up to OFFSET_DRAWS offsets.

    The Q_q borders sit where q (log|g'(x)| - a) is an integer; the J
    borders do not depend on a, so no draw can clear them: points within
    CUT_DIST of a branch cut (mod 1 on the circle) are tolerated up to
    mass CUT_MASS_TOL (exactly-dyadic maps quantize late orbit points
    onto cuts) and OffsetNotFound is raised only when their fraction is
    material.  log_derivs is log|g'| at orbit_atoms.
    """
    atoms = np.asarray(orbit_atoms, dtype=float)
    if cut_points:
        frac = float(np.mean(g.domain.nearest_distance(atoms, cut_points)
                             < CUT_DIST))
        if frac > CUT_MASS_TOL:
            raise OffsetNotFound(
                f"fraction {frac:.3g} of orbit points sit on branch cuts "
                f"(> {CUT_MASS_TOL})")
    u = log_derivs[np.isfinite(log_derivs)]
    for _ in range(OFFSET_DRAWS):
        a = -rng.uniform(0.0, 1.0) / q
        if a <= -1.0 / q or a >= 0.0:
            continue
        frac = np.abs((q * (u - a)) - np.round(q * (u - a)))
        if frac.size == 0 or np.min(frac) > q * CUT_DIST:
            return float(a)
    raise OffsetNotFound(f"no admissible offset after {OFFSET_DRAWS} draws")


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------


def _entropy_of_masses(masses):
    p = np.asarray(masses, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def _ranks(labels, first_seen=False):
    """Dense ranks of integer labels, np.unique's inverse, numbered in
    value order or (first_seen) in order of first appearance.  While the
    span of the values is at most RANK_SPAN times their number they are
    counted in a table over the span, which then takes no more memory
    than np.unique's sort; wider labels go to np.unique."""
    labels = np.asarray(labels)
    n = labels.size
    lo = int(labels.min()) if n else 0
    span = int(labels.max()) - lo + 1 if n else 0
    if 0 < span <= RANK_SPAN * n:
        off = labels - lo
        table = np.zeros(span, dtype=np.intp)
        table[off] = 1
        np.cumsum(table, out=table)
        table -= 1
        inv = table[off]
        del off, table
    else:
        inv = np.unique(labels, return_inverse=True)[1]
    if first_seen and n:
        first = np.full(inv.max() + 1, n)
        np.minimum.at(first, inv, np.arange(n))
        renumber = np.empty_like(first)
        renumber[np.argsort(first)] = np.arange(first.size)
        inv = renumber[inv]
    return inv


def itinerary_entropy(mu, labels, m):
    """[H_mu(P^1), ..., H_mu(P^m)] by coding atoms with their forward labels.

    labels lists the joined partitions, each as an iterable (a shared list,
    or a generator) of its label ranks (np.unique inverses) at the forward
    points j = 0..m-1 of the atoms.
    """
    # rank fold over the columns J_0, Q_0, J_1, ...: after step j, inv is
    # the row rank (np.unique(axis=0)'s inverse) of the columns so far;
    # inv, r < atoms, so keys stay below atoms^2: int64 to ~3e9 atoms
    labels = [iter(lab) for lab in labels]
    inv, Hs = 0, []
    for _ in range(m):
        for lab in labels:
            r = next(lab)
            key = inv * (r.max(initial=0) + 1) + r
            del inv, r      # only key is held while _ranks ranks it
            inv = _ranks(key)
            del key
        Hs.append(_entropy_of_masses(np.bincount(inv, weights=mu.weights)))
    return Hs


# ---------------------------------------------------------------------------
# the block-entropy inequality (exact masses, high-precision logs)
# ---------------------------------------------------------------------------


def _H_exact(counts, Q):
    """-sum p log p over p = c / Q, c in counts, in the active decimal
    context: each term is (c/Q)(ln c - ln Q) with c/Q in lowest terms,
    summed in the order of counts."""
    H = decimal.Decimal(0)
    for c in counts:
        if c > 0:
            d = math.gcd(c, Q)
            H -= _plogp(c // d, Q // d)
    return H


def _plogp(num, den):
    """p log p for p = num / den, as (num / den)(ln num - ln den) in the
    active decimal context."""
    prec = decimal.getcontext().prec
    return decimal.Decimal(num) / den * (_ln(num, prec) - _ln(den, prec))


@functools.lru_cache(maxsize=1 << 12)
def _ln(n, prec):
    """ln n for an integer n >= 1, correctly rounded to prec digits;
    cached per (integer, precision)."""
    return decimal.Decimal(n).ln(decimal.Context(prec=prec))


def _misiurewicz_batch(T, R, w, Fmask, m, D):
    """verify_misiurewicz's report on each system of a batch.

    Row b is one system padded to width N (padding states map to
    themselves and have w = 0): map T, integer labels R, integer masses w
    over D[b] (int64, or object for Python ints), Fmask[b, k] for k in F
    and depth m[b]; B N < 2^31.  State s of system b is b N + s and every
    label fold starts from b; first-seen ranks keep each system's cells in
    the order the dict walk of the definition meets them, which _H_exact
    sums in.  Entropies and logs are evaluated in a decimal context of
    MISIUREWICZ_DPS digits, ROUND_HALF_EVEN, set here, so a caller's
    context does not reach the report.
    """
    B, N = T.shape
    K, depth = Fmask.shape[1], int(m.max(initial=1))
    T = (T + N * np.arange(B)[:, None]).astype(np.int32).ravel()
    orbit = np.empty((max(K, depth), B * N), dtype=np.int32)
    orbit[0] = np.arange(B * N)         # orbit[j, b N + s] = b N + T^j(s)
    for j in range(1, orbit.shape[0]):
        orbit[j] = T[orbit[j - 1]]
    Rc = _ranks(R.ravel())
    stop = int(Rc.max(initial=-1)) + 1  # the digit of a lane without one

    def cells(states, masses, live):
        """Masses summed by the cells of R at T^j (j with live[b, j]), as
        one list per system."""
        system = lab = states // N
        for j in range(live.shape[1]):
            digit = np.where(live[system, j], Rc[orbit[j][states]], stop)
            lab = _ranks(lab * (stop + 1) + digit, first_seen=True)
        counts = np.zeros(lab.max(initial=-1) + 1, dtype=masses.dtype)
        np.add.at(counts, lab, masses)
        cell_sys = np.empty(counts.size, dtype=np.intp)
        cell_sys[lab] = system
        ends = np.cumsum(np.bincount(cell_sys, minlength=B)).tolist()
        counts = counts.tolist()
        return [counts[a:b] for a, b in zip([0] + ends, ends)]

    # D #F lam^F: w[s] lands on T^k(s) for each k in F, met k-major
    hit = Fmask[:, :, None] & (w != 0)[:, None, :]
    tgt = orbit[:K].reshape(K, B, N).transpose(1, 0, 2)[hit]
    key = _ranks(tgt, first_seen=True)
    lamF = np.zeros(key.max(initial=-1) + 1, dtype=w.dtype)
    np.add.at(lamF, key, np.broadcast_to(w[:, None, :], hit.shape)[hit])
    charged = np.empty(lamF.size, dtype=np.intp)
    charged[key] = tgt
    by_rm = cells(charged, lamF, np.arange(depth) < m[:, None])
    support = np.flatnonzero(w)
    by_rf = cells(support, w.ravel()[support], Fmask)
    pos = lamF > 0                      # #R_{lam^F}: one cell per label
    n_charged = map(len, cells(charged[pos], lamF[pos],
                               np.ones((B, 1), dtype=bool)))

    # the report as arrays: no per-system object outlives the loop
    lhs, rhs, margin = np.empty((3, B))
    ncs, dFs = np.empty((2, B), dtype=np.int64)
    with decimal.localcontext(decimal.Context(
            prec=MISIUREWICZ_DPS, rounding=decimal.ROUND_HALF_EVEN)):
        for b, (Fb, mb, nc, Db) in enumerate(zip(
                Fmask.tolist(), m.tolist(), n_charged, D)):
            F = [k for k, inF in enumerate(Fb) if inF]
            nF, nc, dF = len(F), max(1, nc), len(boundary_set(F))
            left = _H_exact(by_rm[b], Db * nF) / mb
            right = (_H_exact(by_rf[b], Db) / nF
                     - mb * _ln(nc, MISIUREWICZ_DPS) * dF / nF)
            lhs[b], rhs[b], margin[b] = map(float, (left, right,
                                                    left - right))
            ncs[b], dFs[b] = nc, dF
    return {"lhs": lhs, "rhs": rhs, "margin": margin,
            "ok": margin >= -1e-12, "n_charged": ncs, "dF": dFs}


def verify_misiurewicz(lam, T, R, F, m):
    """Exact check of the shifted-average block-entropy bound.

    For a finite system (states 0..N-1, map T, integer partition labels
    R, masses lam) and a finite F subset Z_0^+:

      (1/m) H_{lam^F}(R^m) >= (1/#F) H_lam(R^F)
                              - m log(#R_{lam^F}) #dF / #F

    with lam^F = (1/#F) sum_{k in F} T^k_* lam.  Masses are exact: lam
    (Fractions; other entries go through limit_denominator(10**12)) is
    scaled to integer masses over one common denominator D, the lcm of
    its denominators, so lam^F has integer masses over D #F.  Entropies
    and logs are evaluated in decimal at MISIUREWICZ_DPS digits (integer
    logs cached per precision).  This is _misiurewicz_batch on a batch
    of one.  Raises ValueError when m or an entry of T, R or F is not an
    integer (Python or numpy), when m < 1, when F is empty or has a
    negative element, when an entry of T lies outside 0..N-1 (N =
    len(T)), when R or lam is not of length N, or when lam has a
    negative or non-finite entry or a zero rounded total.
    """
    for name, v in (("m", [m]), ("T", T), ("R", R), ("F", F)):
        if not all(isinstance(x, numbers.Integral) for x in v):
            raise ValueError(f"{name} must hold integers, got {list(v)}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    N = len(T)
    if not all(0 <= t < N for t in T):
        raise ValueError(f"T must map into 0..{N - 1}, got {list(T)}")
    for name, v in (("R", R), ("lam", lam)):
        if len(v) != N:
            raise ValueError(f"{name} must have length {N} = len(T), got "
                             f"{len(v)}")
    F = sorted(set(F))
    if not F or F[0] < 0:
        raise ValueError(f"F must be a nonempty set of times >= 0, got {F}")
    if any(v < 0 or not (isinstance(v, (int, Fraction)) or math.isfinite(v))
           for v in lam):
        raise ValueError(f"lam must be finite and >= 0, got {list(lam)}")
    lam = [v if isinstance(v, Fraction) else
           Fraction(v).limit_denominator(10 ** 12) for v in lam]
    if not any(lam):
        raise ValueError(f"lam must have a positive total, got {lam}")
    D = math.lcm(*(v.denominator for v in lam))
    w = [v.numerator * (D // v.denominator) for v in lam]
    rep = _misiurewicz_batch(
        np.array([T], dtype=np.intp), np.array([R], dtype=np.int64),
        np.array([w], dtype=object), np.isin(np.arange(F[-1] + 1), F)[None],
        np.array([m]), [D])
    return {k: v[0].item() for k, v in rep.items()}


def _battery_draws(rng, B):
    """B instances of misiurewicz_battery's family, one rng call per field:
    (B, 12) arrays T, R, w (states N..11 map to themselves with R = w = 0),
    the (B, 9) F mask (k lowest ranks of 9 uniforms) and m."""
    N = rng.integers(2, 13, B)
    T = rng.integers(0, N[:, None], (B, 12))
    R = rng.integers(0, rng.integers(2, 5, B)[:, None], (B, 12))
    w = rng.integers(1, 6, (B, 12))
    pad = np.arange(12) >= N[:, None]
    T = np.where(pad, np.arange(12), T)
    R[pad] = w[pad] = 0
    k = rng.integers(1, 5, B)
    Fmask = rng.random((B, 9)).argsort(axis=1).argsort(axis=1) < k[:, None]
    return T, R, w, Fmask, rng.integers(1, 4, B)


def misiurewicz_battery(rng, count):
    """verify_misiurewicz on count random instances drawn from rng (2-12
    states, 2-4 labels, integer weights 1-5, F a 1-4 element subset of
    0..8, m in 1..3), BATTERY_BLOCK instances to a _battery_draws and a
    _misiurewicz_batch; returns the number that fail."""
    bad = 0
    for lo in range(0, count, BATTERY_BLOCK):
        T, R, w, Fmask, m = _battery_draws(
            rng, min(BATTERY_BLOCK, count - lo))
        ok = _misiurewicz_batch(T, R, w, Fmask, m, w.sum(axis=1).tolist())
        bad += int(np.count_nonzero(~ok["ok"]))
    return bad


def verify_mane_bounds(measure, g, q, bp, norms, rng):
    """The countable-partition entropy bounds on a finite-atom measure.

    (1) sum_k -x_k log x_k <= sum_k |k| x_k + c_0 for the Q_q bin masses
        (c_0 = 4 (e (1 - e^{-1/2}))^{-1}),
    (2) H(Q_q) <= c_0 + 1 + q * int |log|g'|| d(measure),
    (3) per atom: branch length >= (|g'(x)| / ||d^{r'} g||)^{1/(r'-1)}.
    log|g'| comes from log_derivs_at: a pooled measure needs its pool's g.
    The offset a of Q_q is choose_offset's draw from rng.
    """
    u = log_derivs_at(measure, 0, g)
    a = choose_offset(g, q, measure.atoms, u, rng)
    # bin masses in order of first appearance, each summed in atom order
    bins = _qbins(u, q, a)
    inv = _ranks(bins, first_seen=True)
    xs = np.bincount(inv, weights=measure.weights)
    kk = np.empty(xs.size)
    kk[inv] = bins
    lhs = _entropy_of_masses(xs)
    rhs1 = float(np.sum(np.abs(kk) * xs)) + C0_MANE
    int_abs = float(np.sum(measure.weights * np.abs(
        np.where(np.isfinite(u), u, 0.0))))
    rhs2 = C0_MANE + 1.0 + q * int_abs

    rp, d_rp = rprime_norm(g, norms)
    margin3 = float("inf")
    if d_rp > 0:
        ids = bp.locate_many(measure.atoms)
        lengths = np.array([br.length for br in bp.branches])
        good = ids >= 0
        bound = (np.exp(u[good]) / d_rp) ** (1.0 / (rp - 1.0))
        margin3 = float(np.min(lengths[ids[good]] - bound)) if good.any() \
            else float("inf")
    return {
        "sete_lhs": lhs, "sete_rhs": rhs1, "sete_ok": rhs1 - lhs >= -1e-9,
        "hq_lhs": lhs, "hq_rhs": rhs2, "hq_ok": rhs2 - lhs >= -1e-9,
        "branch_size_margin": margin3,
        "branch_size_ok": margin3 >= -1e-9,
        "c0": C0_MANE, "offset_a": a,
    }


# ---------------------------------------------------------------------------
# Gibbs
# ---------------------------------------------------------------------------


def _wilson(hits, n, z=1.96):
    if n == 0:
        return 0.0, 1.0
    ph = hits / n
    den = 1 + z * z / n
    center = (ph + z * z / (2 * n)) / den
    half = z * math.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / den
    return max(0.0, center - half), min(1.0, center + half)


def gibbs_check(g, x, E, q, eps, *, n, M, m, beta, b, p, bp=None,
                orbit=None, n_samples=20000, rng=None):
    """Monte Carlo check of the Gibbs cylinder bound for one seed.

    R collects the points sharing x's monotone-branch and Q_q-bin
    itinerary along E_n^{M,m}(x) (Q_q at offset a = -1/(2q)), the same
    trimmed time set, and the A_n membership (in_An, surrogate times at
    c = EXPANSION); the bound is

       Leb(R) <= (C/eps)^{#dE} exp(-phi_g^E(x) + #E / q),  C = GIBBS_C.

    Membership is tested on uniform samples with a Wilson interval; the
    inequality "fails" only when the interval's lower end exceeds the
    right-hand side.  orbit, if known, is x's orbit as (points[:n + 1],
    log|g'| at points[:n]), the arrays orbit_grid gives for x.
    """
    rng = rng or np.random.default_rng(0)
    bp = bp or monotone_branches(g)
    labQ = qbin_label(g, q, -0.5 / q)

    Tx = trim_mask(mask_from_lists([E], max([n - 1, *E]) + 1), n, M, m)
    T = np.flatnonzero(Tx[0]).tolist()
    if not T:
        # R is the ambient cell; rhs = (C/eps)^0 e^0 = 1 >= Leb(R)
        return {"leb_hat": 1.0, "ci": (0.0, 1.0), "rhs": 1.0, "ok": True,
                "T": T, "trivial": True}
    n_boundary = int(boundary_counts(Tx)[0])
    if orbit is None:
        orbit = (a[:, 0] for a in orbit_grid(g, [float(x)], n))
    pts, lds = orbit
    phi_E = float(sum(lds[i] for i in T))
    rhs = (GIBBS_C / eps) ** n_boundary * math.exp(-phi_E + len(T) / q)

    # itinerary of x along T
    jx = bp.locate_many(pts[T])
    qx = labQ(pts[T])

    # sample orbits step by step; at i in T the samples off x's labels
    # leave, so only survivors (~1/256 a column on logistic^6) iterate on
    ys = g.domain.reduce(rng.uniform(0.0, 1.0, n_samples))
    rows, labels_x = [], dict(zip(T, zip(jx, qx)))   # rows: survivors' orbits
    for i in range(n):
        ys = g.eval(ys) if i else ys
        if i in labels_x:
            keep = np.flatnonzero(bp.locate_many(ys) == labels_x[i][0])
            keep = keep[labQ(ys[keep]) == labels_x[i][1]]
            ys, rows = ys[keep], [r[keep] for r in rows]
            if not ys.size:
                break
        rows.append(ys)
    # A_n and equal trimmed set, on survivors only
    hits = 0
    if ys.size:
        lds = g.log_abs_deriv(np.array(rows))
        Ey = surrogate_mask(lds)
        hits = int(np.count_nonzero(
            in_An(Ey, n, np.cumsum(lds, axis=0)[n - 1], beta, b, p)
            & (trim_mask(Ey, n, M, m) == Tx).all(axis=1)))
    leb_hat = hits / n_samples
    ci = _wilson(hits, n_samples)
    ok = ci[0] <= rhs + 1e-12

    return {"leb_hat": leb_hat, "ci": ci, "rhs": rhs, "ok": ok, "T": T,
            "phi_E": phi_E, "n_boundary": n_boundary, "trivial": False}


# ---------------------------------------------------------------------------
# entropy-formula residual and verdict
# ---------------------------------------------------------------------------


def ac_verdict(residual_ok, exponent_ok, checks_ok=True):
    """The decision rule: AC-consistent iff every condition holds."""
    return "AC-consistent" if residual_ok and exponent_ok and checks_ok \
        else "not-AC"


def entropy_formula_residual(f, mu, q_list, m_list, p, tol=0.05,
                             rng=None, bp=None, exponent_proxy=None):
    """Estimate h(g, P_q) by refinement slopes and compare with int log|g'|.

    h_est is the largest over q of the least-squares slope of
    H_mu(P_q^m) against m over the last (up to) three m values; the
    residual h_est - int log|g'| d mu is reported at the g level and,
    through p h_f = h_{f^p}, at the f level.  The verdict is
    AC-consistent when the f-level residual is within tol and the
    positive-exponent proxy (exponent_proxy, if already computed) holds.
    log|g'| comes from log_derivs_at, so a pooled measure needs a pool
    built under g = f^p.  Fewer than MIN_ATOMS atoms raise InsufficientAtoms.
    """
    if mu.n_atoms < MIN_ATOMS:
        raise InsufficientAtoms(f"{mu.n_atoms} atoms < {MIN_ATOMS}")
    rng = rng or np.random.default_rng(0)
    g = power_map(f, p)
    bp = bp or monotone_branches(g, grid_size=2 ** 14)
    u = log_derivs_at(mu, 0, g)
    m_top = max(m_list)
    # the J_j ranks do not depend on q: one list serves every q's fold
    ranks_J = [_ranks(bp.locate_many(x))
               for x in forward_points(mu, m_top, g)]

    tables = {}
    slopes = {}
    for q in q_list:
        a = choose_offset(g, q, mu.atoms, u, rng, cut_points=[
            pt for pt, _ in bp.cut_points])
        ranks_Q = (_ranks(_qbins(log_derivs_at(mu, j, g), q, a))
                   for j in range(m_top))
        H_top = itinerary_entropy(mu, [ranks_J, ranks_Q], m_top)
        Hs = [H_top[m - 1] for m in m_list]
        tables[q] = {"a": a, "m": list(m_list), "H": Hs}
        tail = min(3, len(m_list))
        ms = np.asarray(m_list[-tail:], dtype=float)
        hs = np.asarray(Hs[-tail:])
        slopes[q] = float(np.polyfit(ms, hs, 1)[0]) if tail > 1 else \
            float(hs[0] / ms[0])
    h_g = max(slopes.values())
    int_phi_g = float(np.sum(mu.weights * np.where(np.isfinite(u), u, -745.0)))
    residual_g = h_g - int_phi_g
    h_f = h_g / p
    int_phi_f = int_phi_g / p
    residual_f = residual_g / p

    if exponent_proxy is not None:
        proxy = exponent_proxy
    elif mu.pool is not None:
        proxy = positive_exponent_proxy(mu)
    else:
        proxy = 1.0 if int_phi_g > 0 else 0.0
    residual_ok = abs(residual_f) <= tol
    exponent_positive = int_phi_g > 0 and proxy >= PROXY_MIN
    verdict = ac_verdict(residual_ok, exponent_positive)
    return {
        "h_g_est": h_g, "int_phi_g": int_phi_g, "residual_g": residual_g,
        "h_f_est": h_f, "int_phi_f": int_phi_f, "residual_f": residual_f,
        "p": p, "slopes": slopes, "tables": tables,
        "exponent_proxy": proxy, "exponent_positive": exponent_positive,
        "verdict": verdict, "tol": tol, "residual_ok": residual_ok,
    }
