"""The geometric partition path: partitions as unions of intervals.

Q_q from the crossings of log|g'| with its bin edges, joins, pullbacks
through branch inverses, refinement P^m = v_{j<m} g^{-j} P, the
partition entropy of an atomic measure, and the refined branch
partition J^n from pulled-back cuts.  The package codes atoms by their
label itineraries instead (entropy.itinerary_entropy, qbin_label,
BranchPartition.locate_many); the tests use this path as the oracle
that coding is checked against.  build_Qq, pullback and
branch_preimages find their roots with scipy.optimize.brentq;
refine_branches pulls cuts back with branch_preimages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from acim1d.branches import Branch, BranchPartition, monotone_branches
from acim1d.entropy import _entropy_of_masses
from acim1d.errors import Acim1dError


class InverseNotBracketed(Acim1dError):
    """A branch-wise pullback target was not bracketed by a sign change."""


@dataclass
class Partition1D:
    """Atoms are finite unions of half-open intervals with labels."""

    atoms: list                 # list of [(a, b), ...]
    labels: list
    offset_a: float = None
    name: str = ""

    def __post_init__(self):
        segs = []
        for i, ivs in enumerate(self.atoms):
            for (a, b) in ivs:
                if b > a:
                    segs.append((a, b, i))
        segs.sort()
        self._lefts = np.array([s[0] for s in segs])
        self._rights = np.array([s[1] for s in segs])
        self._ids = np.array([s[2] for s in segs], dtype=int)

    @property
    def n_atoms(self):
        return len(self.atoms)

    def locate_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        j = np.searchsorted(self._lefts, xs, side="right") - 1
        out = np.full(xs.shape, -1, dtype=int)
        ok = j >= 0
        jj = np.clip(j, 0, None)
        inside = ok & (xs < self._rights[jj])
        out[inside] = self._ids[jj[inside]]
        return out

    def total_length(self):
        return float(np.sum(self._rights - self._lefts))


def build_Qq(g, q, a, grid_size=16384, k_lo=None, k_hi=None):
    """Level-set partition Q_q of log|g'| with bins ]k/q,(k+1)/q] + a.

    Enumerates bins intersecting the observed range of log|g'| (clipped
    to [k_lo, k_hi] when given); everything below the lowest enumerated
    bin is lumped into a single tail atom, flagged by label ('tail',).
    On every enumerated atom log|g'| varies by at most 1/q.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not -1.0 / q < a < 0.0:
        raise ValueError("offset a must lie in ]-1/q, 0[")
    xs = np.linspace(0.0, 1.0, grid_size + 1)
    with np.errstate(divide="ignore"):
        u = g.log_abs_deriv(xs)
    finite = u[np.isfinite(u)]
    if finite.size == 0:
        raise ValueError("derivative vanishes everywhere on the grid")
    lo = math.floor(q * (float(np.min(finite)) - a)) - 1
    hi = math.ceil(q * (float(np.max(finite)) - a)) + 1
    if k_lo is not None:
        lo = max(lo, k_lo)
    if k_hi is not None:
        hi = min(hi, k_hi)

    # crossing points of u against every bin edge, then constant-label runs
    cut_ts = {0.0, 1.0}
    for k in range(lo, hi + 2):
        c = k / q + a
        s = u - c
        for i in range(grid_size):
            a0, a1 = s[i], s[i + 1]
            if np.isfinite(a0) and np.isfinite(a1) and a0 * a1 < 0:
                try:
                    t = brentq(lambda t: float(g.log_abs_deriv(
                        np.asarray(t))) - c, xs[i], xs[i + 1], xtol=1e-13)
                    cut_ts.add(t)
                except ValueError:
                    pass
    cuts = sorted(cut_ts)
    per_label = {}
    for x0, x1 in zip(cuts, cuts[1:]):
        if x1 - x0 < 1e-13:
            continue
        mid = 0.5 * (x0 + x1)
        um = float(g.log_abs_deriv(np.asarray(mid)))
        if not np.isfinite(um):
            lab = ("tail",)
        else:
            k = math.ceil(q * (um - a)) - 1
            lab = ("tail",) if k < lo else ("Q", min(k, hi))
        per_label.setdefault(lab, []).append((x0, x1))
    labels = sorted(per_label, key=str)
    atoms = [_merge(per_label[lab]) for lab in labels]
    return Partition1D(atoms=atoms, labels=labels, offset_a=a,
                       name=f"Q_{q}")


def _merge(intervals):
    out = []
    for a, b in sorted(intervals):
        if out and a - out[-1][1] < 1e-12:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


def join(P, Q):
    """Common refinement: pairwise intersections with combined labels."""
    atoms, labels = [], []
    for ai, la in zip(P.atoms, P.labels):
        for bi, lb in zip(Q.atoms, Q.labels):
            inter = _intersect_unions(ai, bi)
            if inter:
                atoms.append(inter)
                labels.append((la, lb))
    return Partition1D(atoms=atoms, labels=labels, offset_a=Q.offset_a,
                       name=f"{P.name}v{Q.name}")


def _intersect_unions(A, B):
    out = []
    for (a0, a1) in A:
        for (b0, b1) in B:
            lo, hi = max(a0, b0), min(a1, b1)
            if hi - lo > 1e-13:
                out.append((lo, hi))
    return sorted(out)


def partition_from_branches(bp):
    """Monotone branches as a Partition1D (circle arcs split at the wrap)."""
    atoms, labels = [], []
    for i, br in enumerate(bp.branches):
        if br.b <= 1.0 + 1e-12:
            atoms.append([(br.a, min(br.b, 1.0))])
        else:
            atoms.append([(br.a, 1.0), (0.0, br.b - 1.0)])
        labels.append(("J", i))
    return Partition1D(atoms=atoms, labels=labels, name="J")


def pullback(P, g, bp):
    """g^{-1} P through branch-wise inverses."""
    atoms, labels = [], []
    for ivs, lab in zip(P.atoms, P.labels):
        pre = []
        for (a, b) in ivs:
            for br in bp.branches:
                seg = _pullback_interval(g, br, a, b)
                if seg is not None:
                    pre.append(seg)
        if pre:
            atoms.append(sorted(pre))
            labels.append(lab)
    return Partition1D(atoms=atoms, labels=labels, offset_a=P.offset_a,
                       name=f"g^-1({P.name})")


def _pullback_interval(g, br, a, b):
    circle = g.domain.is_circle
    lo = br.a + 1e-13
    hi = br.a + br.length - 1e-13

    def u(t):
        return float(g.eval(t % 1.0 if circle else t))

    ulo, uhi = u(lo), u(hi)
    vmin, vmax = min(ulo, uhi), max(ulo, uhi)
    aa, bb = max(a, vmin), min(b, vmax)
    if bb - aa < 1e-13:
        return None

    def inv(c):
        if c <= vmin:
            return lo if ulo < uhi else hi
        if c >= vmax:
            return hi if ulo < uhi else lo
        return brentq(lambda t: u(t) - c, lo, hi, xtol=1e-13)

    x0, x1 = inv(aa), inv(bb)
    if x0 > x1:
        x0, x1 = x1, x0
    if x1 - x0 < 1e-13:
        return None
    return (x0, x1)


def refine(P, g, m, bp=None):
    """P^m = v_{j<m} g^{-j} P via iterated pullback and join."""
    bp = bp or monotone_branches(g)
    out = P
    level = P
    for _ in range(m - 1):
        level = pullback(level, g, bp)
        out = join(out, level)
    return out


@dataclass
class EntropyReport:
    H_value: float
    partition_id: str
    measure_id: str
    m: int
    per_atom_masses: np.ndarray = field(repr=False, default=None)

    def check_invariants(self):
        p = self.per_atom_masses[self.per_atom_masses > 0]
        h = float(-np.sum(p * np.log(p)))
        return (abs(h - self.H_value) < 1e-12
                and self.H_value <= math.log(max(1, p.size)) + 1e-12)


def partition_entropy(measure, P, measure_id="mu", m=1):
    """H(P) = sum -lambda(P) log lambda(P) on atom masses."""
    ids = P.locate_many(measure.atoms)
    masses = np.bincount(np.where(ids >= 0, ids, P.n_atoms),
                         weights=measure.weights, minlength=P.n_atoms + 1)
    H = _entropy_of_masses(masses)
    return EntropyReport(H_value=H, partition_id=P.name, measure_id=measure_id,
                         m=m, per_atom_masses=masses)


def branch_preimages(g, partition, c, tol=1e-13):
    """Solutions of g(x) = c, one per branch where c is attained.

    Circle maps: on a branch interior g never crosses the marked point,
    so g mod 1 is continuous and monotone there; the bracket check works
    directly on reduced values.
    """
    circle = g.domain.is_circle
    roots = []
    for br in partition.branches:
        lo = br.a + 1e-14
        hi = br.a + br.length - 1e-14
        def u(t):
            return float(g.eval(t % 1.0 if circle else t))
        ulo, uhi = u(lo), u(hi)
        a, b = (ulo, uhi) if ulo <= uhi else (uhi, ulo)
        if not (a - tol <= c <= b + tol):
            continue
        if not (a <= c <= b):
            # grazing contact at branch end; clamp
            roots.append(lo if abs(ulo - c) < abs(uhi - c) else hi)
            continue
        try:
            t = brentq(lambda t: u(t) - c, lo, hi, xtol=tol)
        except ValueError as exc:
            raise InverseNotBracketed(
                f"target {c} not bracketed on branch [{br.a}, {br.b})") from exc
        roots.append(t % 1.0 if circle else t)
    return roots


def refine_branches(g, n, tol=1e-12, grid_size=8192):
    """The join J^n = v_{i<n} g^{-i} J via branch-wise pullback of cuts."""
    base = monotone_branches(g, tol=tol, grid_size=grid_size)
    if n == 1:
        return base
    circle = g.domain.is_circle
    cuts = {round(p % 1.0 if circle else p, 13) for p, _ in base.cut_points}
    frontier = set(cuts)
    for _ in range(n - 1):
        new = set()
        for c in frontier:
            for x in branch_preimages(g, base, c):
                new.add(round(x % 1.0 if circle else x, 13))
        frontier = new - cuts
        cuts |= new

    pts = sorted(cuts)
    branches = []
    if circle:
        segs = [(pts[i], pts[i + 1] if i + 1 < len(pts) else pts[0] + 1.0)
                for i in range(len(pts))]
    else:
        pts = sorted({0.0, 1.0} | set(pts))
        segs = list(zip(pts, pts[1:]))
    for lo, hi in segs:
        if hi - lo <= 100 * tol:
            continue
        mid = (lo + hi) / 2.0
        midr = mid % 1.0 if circle else mid
        sgn = 1.0
        ok = True
        y = midr
        for _ in range(n):
            d = float(g.deriv(1, y))
            if d == 0.0:
                ok = False
                break
            sgn *= np.sign(d)
            y = float(g.eval(y))
        if not ok:
            continue
        branches.append(Branch(
            a=lo % 1.0 if circle else lo, length=hi - lo,
            sign=int(sgn), sup_slope=float("nan")))
    return BranchPartition(
        map_name=f"{g.name}^{n}-join",
        branches=branches,
        cut_points=[(p, "pullback") for p in pts],
        is_circle=circle,
        critical=base.critical,
    )
