"""Monotone-branch partitions of interval and circle maps.

A monotone branch is a maximal half-open interval [a, b) on whose
interior g' keeps a constant nonzero sign and g never hits the marked
point 0.  For interval maps the marked-point cuts coincide with
critical points or the domain boundary, so this reduces to the classic
partition; for circle maps the extra cuts at preimages of 0 restore
injectivity of g on each branch.

Circle branches are stored as (a, length) with the right endpoint
possibly wrapping past 1; membership is decided by the left-closed
convention after reduction mod 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .maps import SortedTable, critical_set
from .solvers import brentq, minimize_bounded

__all__ = [
    "Branch", "BranchPartition", "monotone_branches",
    "count_branches_with_min_slope",
]

_SLICE = 1 << 16    # points per locate_many slice


@dataclass(frozen=True)
class Branch:
    """Half-open branch [a, a+length) (length may wrap past 1 on the circle)."""

    a: float
    length: float
    sign: int
    sup_slope: float

    @property
    def b(self):
        return self.a + self.length

    def contains(self, x, circle):
        if circle:
            return (x - self.a) % 1.0 < self.length
        return self.a <= x < self.b


@dataclass
class BranchPartition:
    """Ordered branches plus the cut points that generated them."""

    map_name: str
    branches: list
    cut_points: list  # (point, reason) pairs, deduplicated
    is_circle: bool
    critical: list    # critical_set(g) as computed: points and flat pieces

    def locate(self, x):
        """Index of the branch containing x, or -1 (cut point / flat piece)."""
        if self.is_circle:
            x = x % 1.0
        for i, br in enumerate(self.branches):
            if br.contains(x, self.is_circle):
                return i
        return -1

    @cached_property
    def _lookup(self):
        """Built once, as a partition is never mutated: the left-end search
        and, per search count r, the candidate's index, left end, length and
        right end (r = 0: none on the interval, the wrap on the circle)."""
        lefts, lengths = np.array([(b.a, b.length) for b in self.branches]).T
        order = np.argsort(lefts)
        ids = np.concatenate([[order[-1] if self.is_circle else -1], order])
        a, span = lefts[ids], lengths[ids]
        return SortedTable(lefts[order]), ids, a, span, a + span

    def locate_many(self, xs):
        """Vectorized locate: the candidate branch is the one with the last
        left endpoint <= x, tested with the arithmetic of Branch.contains.
        SortedTable finds it as np.searchsorted would (x*2^13 is exact and
        picks a bucket, a short bisection ends in it) from a 32 KiB index,
        under malloc's 128 KiB mmap threshold, built once per partition.
        On the circle x % 1.0 on a slice in [0, 1), and (x - a) % 1.0 off
        the wrap, are the identity and skipped.  NaN and +-inf give -1.
        Runs over 2^16-point slices, so its temporaries stay O(2^16)."""
        xs = np.asarray(xs, dtype=float)
        out = np.full(xs.shape, -1, dtype=int)
        if not self.branches:
            return out
        table, ids, lefts, lengths, rights = self._lookup
        flat, res = xs.reshape(-1), out.reshape(-1)
        for i in range(0, flat.size, _SLICE):
            x = flat[i:i + _SLICE]
            if self.is_circle and not (x.min() >= 0.0 and x.max() < 1.0):
                x = x % 1.0         # rounds to 1.0 for x in about (-1e-16, 0)
                x[x == 1.0] = 0.0
            r = table.search(x, side="right")
            if self.is_circle:
                d = x - lefts[r]
                d[r == 0] %= 1.0    # the wrap: no left end <= x
                inside = d < lengths[r]
            else:           # a <= x holds for r > 0
                inside = x < rights[r]
            res[i:i + _SLICE] = np.where(inside, ids[r], -1)
        return out

    def to_rows(self):
        """CSV rows (map, index, a, b, sign, sup_slope)."""
        return [
            (self.map_name, i, br.a, br.b, br.sign, br.sup_slope)
            for i, br in enumerate(self.branches)
        ]


def _zeros_of_map(g, grid_size=8192):
    """Interior solutions of g(x) = 0 (mod 1 on the circle).

    Uses v(x) = ((g(x)+1/2) mod 1) - 1/2, continuous near its zeros, and
    brackets sign changes with both values close to 0 to dodge the wrap
    discontinuity at +-1/2; one solver call refines every bracket.
    """
    xs = np.linspace(0.0, 1.0, grid_size + 1)
    circle = g.domain.is_circle
    v = g.eval(xs)
    if circle:
        v = ((v + 0.5) % 1.0) - 0.5

    def vv(t, _):
        y = g.eval(t)
        return ((y + 0.5) % 1.0) - 0.5 if circle else y

    a, b = v[:-1], v[1:]
    cells = np.flatnonzero((np.abs(a) <= 0.25) & (np.abs(b) <= 0.25)
                           & ((a == 0.0) | (a * b < 0)))
    hit = v[cells] == 0.0
    roots = iter(brentq(vv, xs[cells[~hit]], xs[cells[~hit] + 1],
                        xtol=1e-13).tolist())
    zeros = [xs[i] if h else next(roots) for i, h in zip(cells, hit)]
    if v[-1] == 0.0:
        zeros.append(xs[-1])
    return zeros


def _sup_slopes(g, lo, hi, samples=64):
    """sup |g'| on each [lo[j], hi[j]]: the largest of 64 samples, polished
    by bounded Brent between that sample's neighbours, every interval in
    one solver call.  Each hi - lo must be positive: a zero step in one
    row would change how np.linspace spaces every row."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    ts = np.linspace(lo, hi, samples, axis=1)
    vals = np.abs(g.deriv(1, g.domain.reduce(ts)))
    best = vals.max(axis=1)
    i, rows = vals.argmax(axis=1), np.arange(lo.size)
    # Python's max(lo, t) and min(hi, t), ties to lo and hi
    a = ts[rows, np.maximum(i - 1, 0)]
    a = np.where(a > lo, a, lo)
    b = ts[rows, np.minimum(i + 1, samples - 1)]
    b = np.where(b < hi, b, hi)
    polish = b > a
    v = -minimize_bounded(
        lambda t, _: -np.abs(g.deriv(1, g.domain.reduce(t))),
        a[polish], b[polish], 1e-12)
    best[polish] = np.where(v > best[polish], v, best[polish])
    return best.tolist()


def monotone_branches(g, tol=1e-12, grid_size=8192):
    """Connected components of {g' != 0 and g != 0}, left-closed.

    Cut points are critical points of g, interior preimages of the
    marked point 0, and (interval case) the domain boundary.  Flat
    critical pieces are excluded from every branch and reported apart.
    """
    circle = g.domain.is_circle
    crits = critical_set(g, tol=tol, grid_size=grid_size)
    flat_pieces = [c for c in crits if isinstance(c, tuple)]
    crit_pts = [c for c in crits if not isinstance(c, tuple)]
    zeros = _zeros_of_map(g, grid_size)

    cuts = []
    for c in crit_pts:
        cuts.append((c % 1.0 if circle else c, "critical"))
    for z in zeros:
        if circle or (tol < z < 1 - tol):
            cuts.append((z % 1.0 if circle else z, "preimage_of_zero"))
    if not circle:
        cuts.append((0.0, "domain_boundary"))
        cuts.append((1.0, "domain_boundary"))

    # dedupe, keeping the first reason for coincident cuts
    cuts.sort(key=lambda t: t[0])
    dedup = []
    for p, reason in cuts:
        if dedup and abs(p - dedup[-1][0]) < 10 * max(tol, 1e-12):
            continue
        dedup.append((p, reason))
    pts = [p for p, _ in dedup]

    if circle:
        if not pts:
            # no cuts at all: the whole circle is one branch
            segs = [(0.0, 1.0)]
        else:
            segs = [(pts[i], (pts[i + 1] if i + 1 < len(pts) else pts[0] + 1.0))
                    for i in range(len(pts))]
    else:
        segs = list(zip(pts, pts[1:]))

    flat_set = [(a, b) for a, b in flat_pieces]
    kept = []
    for lo, hi in segs:
        if hi - lo <= 10 * max(tol, 1e-12):
            continue
        mid = (lo + hi) / 2.0
        midr = mid % 1.0 if circle else mid
        if any(a - tol <= midr <= b + tol for a, b in flat_set):
            continue
        d = float(g.deriv(1, midr))
        if d != 0.0:
            kept.append((lo, hi, 1 if d > 0 else -1))
    slopes = _sup_slopes(g, [lo for lo, _, _ in kept],
                         [hi for _, hi, _ in kept])
    branches = [Branch(a=lo % 1.0 if circle else lo, length=hi - lo,
                       sign=sign, sup_slope=slope)
                for (lo, hi, sign), slope in zip(kept, slopes)]
    return BranchPartition(
        map_name=g.name,
        branches=branches,
        cut_points=dedup,
        is_circle=circle,
        critical=crits,
    )


def rprime_norm(g, norms):
    """(r', ||d^{r'} g||_inf) with r' = min(2, r), from norms: the order
    and the norm of the branch-size and branch-count bounds."""
    rprime = min(2.0, g.smoothness_r)
    return rprime, norms.sup_abs_deriv[2] if rprime == 2.0 else \
        norms.sup_abs_deriv["r"]


def count_branches_with_min_slope(g, s, partition, norms):
    """Branches of partition where sup|g'| >= s, with the C^r counting
    bound from norms, g's estimate_norms.

    bound = C(r', g) s^{-1/(r'-1)} + 1 with C = ||d^{r'} g||_inf^{1/(r'-1)},
    multiplied by ||g'||_inf on the circle (extra injectivity cuts).
    """
    if s <= 0:
        raise ValueError("s must be positive")
    count = sum(1 for br in partition.branches if br.sup_slope >= s)
    rprime, d_rp = rprime_norm(g, norms)
    C = d_rp ** (1.0 / (rprime - 1.0)) if d_rp > 0 else 0.0
    bound = C * s ** (-1.0 / (rprime - 1.0)) + 1.0
    if g.domain.is_circle:
        bound *= norms.sup_abs_deriv[1]
    return count, {
        "count": count,
        "bound": bound,
        "C": C,
        "rprime": rprime,
        "within_bound": count <= bound + 1e-9,
    }
