"""The reparametrization tree: leveled affine contractions with certificates.

Vertices at level n carry affine contractions phi (rate <= 1/100) whose
composed curve sigma o theta is (n, eps)-bounded for g; expanding
vertices additionally satisfy |(g^n o sigma o theta)'(0)| >= eps/6 and
cover through their middle thirds.  Geometric times of a point x are
the levels at which an expanding vertex with matching k'-labels
contains x in its middle third.

Construction per level, in one batched pass over its parents:
  1. segment each parent's parameter domain into runs where the labels
     (k, k') = (floor log+|g'|, floor log-|g'|) along g^(n-1) o sigma o
     theta are constant, cutting additionally at parameter solutions of
     (g^n o sigma o theta)(t) = 0 (marked-point rule; pieces touching
     such a cut are orientation-flipped so the cut is the image of -1),
  2. where the local first-derivative sup K_S of g^n o sigma o theta
     exceeds 81*eps, tile the segment with the splitting construction's
     layout (reparam.cover_centers) at rate 0.8*eps/K_S < 1/100:
     expanding children covering through their middle thirds plus two
     plain end caps; otherwise tile the segment with plain children of
     rate at most 1/100.

The rate threshold is where eps-boundedness, the 1/100 cap, and the
eps/6 center bound become simultaneously certifiable: on a label run the
derivative of g^n o sigma o theta varies by at most e (labels) times 3/2
(parent distortion), so rate 0.8*eps/K_S puts the center derivative at
or above 0.8*eps/(3e/2) > eps/6.  Maps whose per-step expansion stays
below ~81*eps/eps therefore produce no expanding vertices; that matches
the regime of the construction (g = f^p with p large).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import TreeBudgetExceeded
from .jets import Jet, jet_of_polynomial
from .maps import estimate_norms, orbit_grid, power_map
from .reparam import affine_reparam, check_bounded, cover_centers

__all__ = ["ReparamTree", "verify_tree"]

EXPAND_THRESHOLD = 81.0   # K_S / eps above which a segment splits expandingly
EXPAND_SUP = 0.8          # post-split sup target, as a fraction of eps
PLAIN_SUP = 0.9           # plain-piece sup budget, as a fraction of eps
RATE_CAP = 1.0 / 100.0
KPRIME_CAP = 60           # parameters with -log|g'| above this get no child
SEG_GRID = 193            # parent-parameter grid for label runs and sups
CERT_GRID = 33            # per-child grid for the build-time certificates
CHUNK = 512               # parents per build pass, children per certificate
ACTIVE_CAP = 16           # vertices kept per level by the geometric-time walk
C_R = 1000.0              # verify_tree item 5: constant of the child-count bounds

# One 102-byte row per vertex.  theta(t) = theta_alpha + theta_rho t is the
# composed affine self-map of [-1,1]; phi(t) = alpha + rho t the contraction
# from the parent; expanding the vertex type (False at the root); sup1/min1/
# center1 are |(g^level o sigma o theta)'| on the build grid (center1 at
# t = 0); image_* the ends of sigma o theta([-1,1]).
VERTEX = np.dtype([
    ("vid", np.int64), ("level", np.int32), ("parent", np.int64),
    ("alpha", float), ("rho", float), ("theta_alpha", float),
    ("theta_rho", float), ("k_label", np.int32), ("kprime_label", np.int32),
    ("expanding", bool), ("passthrough", bool), ("sup1", float),
    ("min1", float), ("center1", float), ("image_left", float),
    ("image_right", float)])


class ReparamTree:
    """Leveled tree of affine contractions for g = f^p over a seed sigma.

    levels[n] is an np.recarray of VERTEX rows in vid order, each parent's
    children contiguous and in parent order.
    """

    def __init__(self, f, p, sigma, eps, level_budget=10 ** 6):
        self.p = int(p)
        self.g = power_map(f, p)
        self.sigma = sigma
        self.eps = float(eps)
        self.level_budget = int(level_budget)
        norms = estimate_norms(self.g, grid_size=4096, refine_iters=2, n_used=2)
        self.log_sup_gprime = float(np.log(max(norms.sup_abs_deriv[1], 1e-300)))

        base = sigma.poly()
        if base.shape[0] > 2:
            raise ValueError("tree construction requires an affine sigma")
        self.sigma_c = float(base[0])
        self.sigma_s = float(base[1]) if base.shape[0] > 1 else 0.0
        root_cert = check_bounded(sigma, self.g, eps, 0, grid=257)
        if not root_cert.is_eps_bounded:
            raise ValueError("sigma must be eps-bounded to seed the tree")

        s = abs(self.sigma_s)
        root = np.rec.array([(0, 0, -1, 0.0, 1.0, 0.0, 1.0, 0, 0, False,
                              False, s, s, s, self.sigma_c - s,
                              self.sigma_c + s)], dtype=VERTEX)
        self.levels = [root]
        self._lazy = {}      # vid -> children, for the walk past the levels
        self._next_vid = 1

    # -- jet plumbing ------------------------------------------------------

    def _curve_jets(self, A, R, ts, n, order=1, want_labels=False):
        """Jets of g^n o sigma o theta on ts, theta(t) = A + R t.

        A, R, ts broadcast; returns the final jet and, if requested, the
        log|g'| values along the (n-1)-st image (the level-n labels).
        """
        pts = A + R * ts
        jet = jet_of_polynomial(np.array([self.sigma_c, self.sigma_s]),
                                pts, order)
        c = jet.c.copy()
        for j in range(1, order + 1):
            c[j] = c[j] * R ** j
        jet = Jet(c)
        label_ld = None
        for i in range(n):
            if want_labels and i == n - 1:
                label_ld = self.g.log_abs_deriv(jet.value)
            jet = self.g.jet_apply(jet)
        return jet, label_ld

    # -- child construction -------------------------------------------------

    def _segments(self, parents, n):
        """The label runs of each parent's level-n curve, one entry per
        segment: (parent row, ends u0 and u1, derivative sup K, marked
        ends, passthrough, k and k' labels).  Only these per-segment values
        outlive the call, not the parents x SEG_GRID grid arrays."""
        half = np.where(parents["expanding"], 1.0 / 3.0, 1.0)
        ts = np.linspace(-half, half, SEG_GRID, axis=1)
        jet, ld = self._curve_jets(parents["theta_alpha"][:, None],
                                   parents["theta_rho"][:, None], ts, n,
                                   order=1, want_labels=True)
        phi_d1 = np.abs(jet.deriv(1))
        k_arr, kp_arr = _labels(ld)
        excluded = (kp_arr < 0) | (-ld > KPRIME_CAP)

        # cuts: the grid ends, label-run and exclusion edges, marked points
        ex0, ex1 = excluded[:, :-1], excluded[:, 1:]
        cut = np.zeros(ts.shape, dtype=bool)
        cut[:, [0, -1]] = True
        cut[:, 1:] |= (ex0 != ex1) | (~ex0 & ~ex1 & (
            (k_arr[:, :-1] != k_arr[:, 1:])
            | (kp_arr[:, :-1] != kp_arr[:, 1:])))
        marked = np.zeros(ts.shape, dtype=bool)
        pi, ii, tm = self._marked_crossings(jet.value, ts)
        # searchsorted(ts[pi], tm): tm lies in [ts[ii], ts[ii + 1]] up to
        # rounding, so only these two grid points can sit below it
        jj = ii + (ts[pi, ii] < tm) + (ts[pi, ii + 1] < tm)
        inner = (jj > 0) & (jj < SEG_GRID)
        cut[pi[inner], jj[inner]] = marked[pi[inner], jj[inner]] = True

        # segments: consecutive cuts of a parent, kept when their middle
        # grid point is not excluded
        cp, ci = np.nonzero(cut)
        red = np.maximum.reduceat(phi_d1.ravel(), cp * SEG_GRID + ci)
        seg = np.flatnonzero(cp[:-1] == cp[1:])
        sp, sa, sb = cp[seg], ci[seg], ci[seg + 1]
        sm = (sa + sb) // 2
        keep = ~excluded[sp, sm]
        seg, sp, sa, sb, sm = seg[keep], sp[keep], sa[keep], sb[keep], sm[keep]
        kseg = np.maximum(red[seg], phi_d1[sp, sb])
        passthrough = (self.log_sup_gprime <= 0.0) & (kseg <= self.eps) & (
            np.count_nonzero(cut, axis=1)[sp] == 2)
        return (sp, ts[sp, sa], ts[sp, sb], kseg, marked[sp, sa],
                marked[sp, sb], passthrough, k_arr[sp, sm], kp_arr[sp, sm])

    def _expand(self, parents, spent=None):
        """Children of parents (rows of one level), in parent order and then
        child order, with fresh vids; one batched pass over all parents.

        spent, when given, counts the children already built on this level:
        the pass raises TreeBudgetExceeded as soon as spent plus its tiled
        pieces pass level_budget, before any row or certificate is made."""
        n = int(parents["level"][0]) + 1
        sp, u0, u1, kseg, mark0, mark1, passthrough, k_seg, kp_seg = \
            self._segments(parents, n)

        # tiling: one loop step per segment
        centers, rhos, n_exp, n_pieces = [], [], [], []
        for a, b, K, thru in zip(u0.tolist(), u1.tolist(), kseg.tolist(),
                                 passthrough.tolist()):
            w = b - a
            ne = 0
            if K > EXPAND_THRESHOLD * self.eps:
                rho = EXPAND_SUP * self.eps / K
            else:
                rho = min(RATE_CAP, PLAIN_SUP * self.eps / max(K, 1e-300))
            if thru or w <= 2 * rho:
                c, rho = [0.5 * (a + b)], 0.5 * w
            elif K > EXPAND_THRESHOLD * self.eps:
                exp_c, plain_c = cover_centers(a, b, rho)
                c, ne = np.concatenate((exp_c, plain_c)), len(exp_c)
            else:
                count = int(math.ceil(w / (2 * rho)))
                rho = w / (2 * count)
                c = a + (2 * np.arange(count) + 1) * rho
            centers.append(c)
            rhos.append(rho)
            n_exp.append(ne)
            n_pieces.append(len(c))

        count = sum(n_pieces)
        if spent is not None and spent + count > self.level_budget:
            count += spent
            growth = count / max(1, len(self.levels[n - 1]))
            raise TreeBudgetExceeded(
                f"level {n} exceeds budget {self.level_budget} (partial "
                f"count {count}, growth ~{growth:.1f}x)", level=n,
                count=count, budget=self.level_budget, growth_rate=growth)
        kids = np.recarray(count, dtype=VERTEX)
        if not kids.size:
            return kids
        own = np.repeat(np.arange(sp.size), n_pieces)
        first = np.cumsum(n_pieces) - n_pieces
        kids.expanding = np.arange(kids.size) - first[own] < np.asarray(
            n_exp)[own]
        kids.vid = self._next_vid + np.arange(kids.size)
        self._next_vid += kids.size
        kids.level = n
        kids.parent = parents["vid"][sp][own]
        kids.alpha = alpha = np.concatenate(centers)
        del centers
        # a piece whose right edge sits on a marked cut (and whose left edge
        # does not) is flipped, so the cut is the image of t = -1
        rho = np.asarray(rhos)[own]
        flip = mark1[own] & (np.abs((alpha + rho) - u1[own]) < 1e-14) & ~(
            mark0[own] & (np.abs((alpha - rho) - u0[own]) < 1e-14))
        kids.rho = np.where(flip & ~passthrough[own], -rho, rho)
        A = parents["theta_alpha"][sp][own]
        R = parents["theta_rho"][sp][own]
        kids.theta_alpha = A + R * alpha
        kids.theta_rho = R * kids.rho
        kids.k_label = k_seg[own]
        kids.kprime_label = kp_seg[own]
        kids.passthrough = passthrough[own]
        del own, alpha, rho, flip, A, R     # certify with the rows alone
        tloc = np.linspace(-1.0, 1.0, CERT_GRID)
        for lo in range(0, kids.size, CHUNK):
            part = slice(lo, lo + CHUNK)
            d1 = np.abs(self._curve_jets(
                kids.theta_alpha[part, None], kids.theta_rho[part, None],
                tloc, n)[0].deriv(1))
            kids.sup1[part] = d1.max(axis=1)
            kids.min1[part] = d1.min(axis=1)
            kids.center1[part] = d1[:, CERT_GRID // 2]
        img_c = self.sigma_c + self.sigma_s * kids.theta_alpha
        img_h = np.abs(self.sigma_s * kids.theta_rho)
        kids.image_left = img_c - img_h
        kids.image_right = img_c + img_h
        return kids

    def _marked_crossings(self, vals, ts):
        """Grid intervals (row pi, index ii) of each parent's curve that
        hold a marked point (0 mod 1 on the circle, 0 on the interval), and
        the parameter tm of the point in that interval."""
        if self.g.domain.is_circle:
            u = ((vals + 0.5) % 1.0) - 0.5
            a, b = u[:, :-1], u[:, 1:]
            pi, ii = np.nonzero((np.abs(a) <= 0.25) & (np.abs(b) <= 0.25)
                                & (a * b < 0))
            a, b = a[pi, ii], b[pi, ii]
            return pi, ii, ts[pi, ii] + (ts[pi, ii + 1] - ts[pi, ii]) * a / (
                a - b)
        lo = np.abs(vals) < 1e-9
        pi, ii = np.nonzero(lo[:, :-1] != lo[:, 1:])
        return pi, ii, 0.5 * (ts[pi, ii] + ts[pi, ii + 1])

    # -- materialization ----------------------------------------------------

    def build(self, n_levels):
        """Materialize levels 1..n_levels breadth-first, CHUNK parents per
        batched pass; obeys the budget."""
        while len(self.levels) - 1 < n_levels:
            parents = self.levels[-1]
            self._lazy.clear()
            parts, count = [], 0
            for lo in range(0, len(parents), CHUNK):
                parts.append(self._expand(parents[lo:lo + CHUNK], count))
                count += len(parts[-1])
            self.levels.append(parts[0] if len(parts) == 1 else np.concatenate(
                parts or [parents[:0]]).view(np.recarray))
        return self

    @property
    def n_vertices(self):
        return sum(len(lv) for lv in self.levels)

    # -- geometric-time walk -------------------------------------------------

    def _children(self, parents, m):
        """Children of parents (rows of level m - 1): a slice of each from
        levels[m] when it is built, else expanded lazily (one batch for the
        parents not seen before) and cached."""
        vids = parents["vid"]
        if m < len(self.levels):
            col = self.levels[m]["parent"]
            lo = np.searchsorted(col, vids, "left")
            hi = np.searchsorted(col, vids, "right")
            return self.levels[m][np.concatenate(list(map(np.arange, lo, hi)))]
        new = [v not in self._lazy for v in vids.tolist()]
        if any(new):
            fresh = vids[new]
            kids = self._expand(parents[new])
            # kids come in fresh's order, the walk's and not vid order: cut
            # where the parent's place in fresh steps up
            order = np.argsort(fresh)
            place = order[np.searchsorted(fresh, kids["parent"], sorter=order)]
            self._lazy.update(zip(fresh.tolist(), np.split(
                kids, np.searchsorted(place, np.arange(1, fresh.size)))))
        return np.concatenate([self._lazy[v] for v in vids.tolist()])

    def param_of(self, x, theta_alpha, theta_rho):
        """Parameter t with sigma(theta(t)) = x (affine sigma), circle-lifted."""
        if self.sigma_s == 0.0:
            return np.inf
        A = self.sigma_c + self.sigma_s * theta_alpha
        Rr = self.sigma_s * theta_rho
        xl = x
        if self.g.domain.is_circle:
            xl = A + (((x - A) + 0.5) % 1.0) - 0.5
        return (xl - A) / Rr

    def walk_geometric_times(self, x, n_max):
        """Levels m <= n_max at which x sits in the middle third of an
        expanding vertex whose k'-labels match the orbit of x."""
        _, kp_x = orbit_labels(self.g, x, n_max)
        active = self.levels[0]
        t0 = self.param_of(x, active.theta_alpha[0], active.theta_rho[0])
        if not np.isfinite(t0) or abs(t0) > 1.0 + 1e-12:
            return []
        out = []
        for m in range(1, n_max + 1):
            want_kp = kp_x[m - 1]
            if want_kp < 0:
                break
            kids = self._children(active, m)
            t = np.abs(self.param_of(x, kids["theta_alpha"],
                                     kids["theta_rho"]))
            keep = (kids["kprime_label"] == want_kp) & (t <= 1.0 + 1e-12)
            if np.any(keep & kids["expanding"] & (t <= 1.0 / 3.0 + 1e-12)):
                out.append(m)
            kids, t = kids[keep], t[keep]
            active = kids[np.lexsort((kids["vid"], t))[:ACTIVE_CAP]]
            if not active.size:
                break
        return out

    # -- export ----------------------------------------------------------------

    def to_rows(self):
        """CSV rows (level, parent_id, rate, k, kprime, vtype, image_left,
        image_right, margin_item3) of the non-root vertices in vid order,
        yielded 2^13 vertices at a time; vtype is the expanding column as
        text."""
        for lv in self.levels[1:]:
            for i in range(0, len(lv), 1 << 13):
                v = lv[i:i + (1 << 13)]
                yield from zip(*(a.tolist() for a in (
                    v.level, v.parent, v.rho, v.k_label, v.kprime_label,
                    np.where(v.expanding, "Expanding", "Plain"),
                    v.image_left, v.image_right, np.where(
                        v.expanding, v.center1 - self.eps / 6.0, np.nan))))


def _column(levels, name):
    """Field name of the non-root vertices in vid order, one column copied
    out of the levels."""
    return np.concatenate([lv[name] for lv in levels])[1:]


def _labels(lds):
    """(k, k') = (floor log+|g'|, floor log-|g'|) from log|g'| values;
    -1 in both where log|g'| is not finite (a critical hit)."""
    fin = np.isfinite(lds)
    ks = np.where(fin, np.floor(np.maximum(0.0, lds)), -1).astype(int)
    kps = np.where(fin, np.floor(np.maximum(0.0, -lds)), -1).astype(int)
    return ks, kps


def orbit_labels(g, z, n):
    """Label vectors (k_i, k'_i) along the orbit of z, i = 1..n; -1 marks
    a critical hit."""
    ks, kps = _labels(orbit_grid(g, [float(z)], n)[1][:, 0])
    return ks.tolist(), kps.tolist()


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_tree(tree, witness_samples=64, cert_sample=64, rng=None):
    """Batch certificate check of the tree guarantees.

    Returns per-item pass counts and worst margins:
      item1  (n,eps)-boundedness of sampled vertex compositions
      item2  contraction rates <= 1/100 (passthrough vertices reported
             apart) and expanding-parent children inside the middle third
      item3  expanding center derivative >= eps/6
      item4  witness covering with matching labels
      item5  per-(parent, k') child counts against the C_R bounds
      item6  witness covering by arbitrary vertices (label-free)
    Items 2-6 work on the level columns; a NaN margin stays NaN.  The
    witness pass runs before any column is copied out of the levels.
    """
    rng = rng or np.random.default_rng(0)
    g = tree.g
    eps = tree.eps
    n_nonroot = tree.n_vertices - 1
    pick = rng.choice(n_nonroot, size=min(cert_sample, n_nonroot),
                      replace=False) if n_nonroot else []
    xs = tree.sigma.point(rng.uniform(-0.98, 0.98, witness_samples), g.domain)
    report = {}

    # items 4 and 6: witness covering on sampled sigma-parameters
    for key, rate in zip(("item4", "item6"), _witness_pass_rates(tree, xs)):
        report[key] = {"pass_rate_per_level": rate.tolist(),
                       "ok": bool(np.all(rate >= 0.99))}
    ratios, dist_ok = distortion_suite(tree)
    col = partial(_column, tree.levels)
    vid, parent, expanding = col("vid"), col("parent"), col("expanding")
    # vids ascend over the levels; the root (vid 0) is not expanding
    parent_expanding = expanding[np.searchsorted(vid, parent)] & (parent > 0)

    # item 2: structural
    rho = np.abs(col("rho"))
    passthrough = col("passthrough")
    rate_bad = vid[~passthrough & (rho > RATE_CAP + 1e-15)].tolist()
    nest_bad = vid[parent_expanding & (
        np.abs(col("alpha")) + rho > 1.0 / 3.0 + 1e-12)].tolist()
    report["item2"] = {
        "n_checked": n_nonroot,
        "n_passthrough": int(np.count_nonzero(passthrough)),
        "rate_violations": rate_bad,
        "nesting_violations": nest_bad,
        "ok": not rate_bad and not nest_bad,
        "pass_rate": 1.0 - (len(rate_bad) + len(nest_bad)) / max(1, n_nonroot),
    }

    # item 3 + distortion + eps margins from stored build data
    m3 = col("center1")[expanding] - eps / 6.0
    bad3 = vid[expanding][m3 < -1e-12].tolist()
    report["item3"] = {"worst_margin": float(np.min(m3, initial=np.inf)),
                       "violations": bad3, "ok": not bad3}
    worst_eps = float(np.min(eps - col("sup1"), initial=np.inf))
    report["eps_bound"] = {"worst_margin": worst_eps,
                           "ok": worst_eps >= -1e-12}
    report["distortion"] = {"worst_ratio": float(ratios.max(initial=0.0)),
                            "ok": dist_ok}

    # item 1: sampled full certificates through every k <= level
    worst1 = np.inf
    ok1 = True
    for level, a, b in zip(col("level")[pick].tolist(),
                           col("theta_alpha")[pick], col("theta_rho")[pick]):
        cert = check_bounded(affine_reparam(
            tree.sigma_c + tree.sigma_s * a, tree.sigma_s * b), g, eps, level,
            grid=65)
        ok1 &= cert.n_eps_bounded_up_to >= level
        worst1 = min([worst1] + [eps - ck.sup_first_deriv for ck in cert.per_k])
    report["item1"] = {"n_checked": len(pick), "ok": ok1,
                       "worst_eps_margin": worst1}

    # item 5: per-(parent, k', type) child counts; a parent fixes the level
    log_factor = tree.log_sup_gprime
    regularized = log_factor <= 0.0
    count_factor = max(1.0, math.floor(max(0.0, log_factor)) + 1.0) \
        if regularized else log_factor
    r = g.smoothness_r
    kprime = col("kprime_label")
    _, first, cnt = np.unique(      # k' lies in [0, KPRIME_CAP] on children
        (parent * (KPRIME_CAP + 1) + kprime) * 2 + expanding,
        return_index=True, return_counts=True)
    bound = np.array([C_R * count_factor * math.exp(
        max(max(0.0, log_factor), kp / (r - 1.0)) if e else kp / (r - 1.0))
        for kp, e in zip(kprime[first].tolist(), expanding[first].tolist())])
    report["item5"] = {"ok": bool(np.all(cnt <= bound)),
                       "worst_margin": float(np.min(bound - cnt,
                                                    initial=np.inf)),
                       "log_factor_regularized": regularized}

    report["ok"] = all(report[k].get("ok", True) for k in
                       ("item1", "item2", "item3", "item4", "item5", "item6",
                        "eps_bound", "distortion"))
    return report


def _witness_pass_rates(tree, xs):
    """verify_tree's items 4 and 6 at the witness points xs: per level n,
    the share of the witnesses whose orbit labels are valid through n that
    lie in some level-n vertex (item 6), and in one whose label path from
    the root is the witness's own, inside its middle third when it is
    expanding (item 4); 1 where no witness is valid.

    A vertex holds x only if its centre A = sigma_c + sigma_s theta_alpha
    lies within |sigma_s theta_rho| of x (mod 1 on the circle), so per
    level the centres are sorted once and param_of runs on the vertices
    whose centre lies within the reach, 1.01 times the level's largest
    |sigma_s theta_rho| plus 1e-12 for rounding, of x (and of x - 1 and
    x + 1 on the circle)."""
    levels = tree.levels
    n_levels = len(levels) - 1
    circle = tree.g.domain.is_circle
    kx, kpx = _labels(orbit_grid(tree.g, xs, n_levels)[1])
    valid = np.logical_and.accumulate(kpx >= 0, axis=0)
    depth = np.count_nonzero(valid, axis=0)
    lab = [(lv["k_label"], lv["kprime_label"]) for lv in levels]
    up = [None] + [np.searchsorted(levels[j - 1]["vid"], levels[j]["parent"])
                   for j in range(1, n_levels + 1)]
    hits4 = np.zeros(n_levels)
    hits6 = np.zeros(n_levels)
    for n in range(1, n_levels + 1):
        thA, thR = levels[n]["theta_alpha"], levels[n]["theta_rho"]
        expanding = levels[n]["expanding"]
        A = tree.sigma_c + tree.sigma_s * thA
        key = A % 1.0 if circle else A
        order = np.argsort(key, kind="stable")
        key = key[order]
        reach = 1.01 * np.fmax.reduce(np.abs(tree.sigma_s * thR),
                                      initial=0.0) + 1e-12
        for w in np.flatnonzero(depth >= n).tolist():
            x = xs[w]
            centres = (x % 1.0 - 1.0, x % 1.0, x % 1.0 + 1.0) if circle \
                else (x,)
            cand = order[np.concatenate([np.arange(
                np.searchsorted(key, c - reach, "left"),
                np.searchsorted(key, c + reach, "right")) for c in centres])]
            # param_of is a scalar inf when sigma_s = 0
            t = np.broadcast_to(np.abs(tree.param_of(x, thA[cand],
                                                     thR[cand])), cand.shape)
            inside = t <= 1.0 + 1e-9
            hits6[n - 1] += bool(np.any(inside))
            pos = cand[inside & (~expanding[cand] | (t <= 1.0 / 3.0 + 1e-9))]
            for j in range(n, 0, -1):       # keep those whose labels match
                k, kp = lab[j]
                pos = up[j][pos[(k[pos] == kx[j - 1, w])
                                & (kp[pos] == kpx[j - 1, w])]]
            hits4[n - 1] += bool(pos.size)
    valid = np.count_nonzero(valid, axis=1).astype(float)
    return tuple(np.where(valid > 0, hits / np.maximum(valid, 1), 1.0)
                 for hits in (hits4, hits6))


def distortion_suite(tree):
    """Distortion ratios of every materialized vertex composition.

    Uses the build-time grid sups; returns (ratios, ok) where ok demands
    ratio <= 3/2 + 1e-9 for every vertex whose composition is bounded.
    """
    sup1, min1 = (_column(tree.levels, f) for f in ("sup1", "min1"))
    ratios = sup1[min1 > 0] / min1[min1 > 0]
    return ratios, bool(np.all(ratios <= 1.5 + 1e-9))
