"""The reparametrization tree: leveled affine contractions with certificates.

Vertices at level n carry affine contractions phi (rate <= 1/100) whose
composed curve sigma o theta is (n, eps)-bounded for g; expanding
vertices additionally satisfy |(g^n o sigma o theta)'(0)| >= eps/6 and
cover through their middle thirds.  Geometric times of a point x are
the levels at which an expanding vertex with matching k'-labels
contains x in its middle third.

Construction per level and parent:
  1. segment the parent parameter domain into runs where the labels
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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import TreeBudgetExceeded
from .jets import Jet, jet_of_polynomial
from .maps import estimate_norms, orbit_grid, power_map
from .reparam import affine_reparam, check_bounded, cover_centers

__all__ = ["TreeVertex", "ReparamTree", "verify_tree"]

EXPAND_THRESHOLD = 81.0   # K_S / eps above which a segment splits expandingly
EXPAND_SUP = 0.8          # post-split sup target, as a fraction of eps
PLAIN_SUP = 0.9           # plain-piece sup budget, as a fraction of eps
RATE_CAP = 1.0 / 100.0
KPRIME_CAP = 60           # parameters with -log|g'| above this get no child
SEG_GRID = 193            # parent-parameter grid for label runs and sups
CERT_GRID = 33            # per-child grid for the build-time certificates
ACTIVE_CAP = 16           # vertices kept per level by the geometric-time walk
C_R = 1000.0              # verify_tree item 5: constant of the child-count bounds


@dataclass
class TreeVertex:
    __slots__ = ("vid", "level", "parent", "alpha", "rho", "theta_alpha",
                 "theta_rho", "k_label", "kprime_label", "vtype",
                 "passthrough", "sup1", "min1", "center1", "image_left",
                 "image_right")
    vid: int
    level: int
    parent: int
    alpha: float            # contraction from parent: t -> alpha + rho t
    rho: float
    theta_alpha: float      # composed affine self-map of [-1,1]
    theta_rho: float
    k_label: int
    kprime_label: int
    vtype: str              # "Expanding" | "Plain" | "Root"
    passthrough: bool
    sup1: float             # sup |(g^level o sigma o theta)'| at build
    min1: float
    center1: float          # |(g^level o sigma o theta)'(0)|
    image_left: float
    image_right: float


class ReparamTree:
    """Leveled tree of affine contractions for g = f^p over a seed sigma."""

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

        root = TreeVertex(0, 0, -1, 0.0, 1.0, 0.0, 1.0, 0, 0, "Root", False,
                          abs(self.sigma_s), abs(self.sigma_s),
                          abs(self.sigma_s),
                          self.sigma_c - abs(self.sigma_s),
                          self.sigma_c + abs(self.sigma_s))
        self.levels = [[root]]
        self._children_cache = {0: None}
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

    def children(self, vertex):
        """Children of a vertex, constructed on first access and cached."""
        got = self._children_cache.get(vertex.vid)
        if got is not None:
            return got
        kids = self._make_children(vertex)
        self._children_cache[vertex.vid] = kids
        return kids

    def _make_children(self, parent):
        n = parent.level + 1
        half = 1.0 / 3.0 if parent.vtype == "Expanding" else 1.0
        ts = np.linspace(-half, half, SEG_GRID)
        A, R = parent.theta_alpha, parent.theta_rho
        jet, ld = self._curve_jets(A, R, ts, n, order=1, want_labels=True)
        phi_vals = jet.value
        phi_d1 = np.abs(jet.deriv(1))

        k_arr, kp_arr = _labels(ld)
        excluded = (kp_arr < 0) | (-ld > KPRIME_CAP)

        cuts = {0, SEG_GRID - 1}
        for i in range(SEG_GRID - 1):
            if excluded[i] != excluded[i + 1] or \
                    (not excluded[i] and not excluded[i + 1] and
                     (k_arr[i] != k_arr[i + 1] or kp_arr[i] != kp_arr[i + 1])):
                cuts.add(i + 1)
        marked_ts = self._marked_crossings(phi_vals, ts)
        marked_idx = set()
        for tm in marked_ts:
            i = int(np.searchsorted(ts, tm))
            if 0 < i < SEG_GRID:
                cuts.add(i)
                marked_idx.add(i)
        cut_list = sorted(cuts)

        specs = []  # (alpha, rho, k, kp, vtype, passthrough)
        for a_i, b_i in zip(cut_list, cut_list[1:]):
            if b_i <= a_i:
                continue
            if excluded[a_i:b_i + 1].all():
                continue
            mid_i = (a_i + b_i) // 2
            if excluded[mid_i]:
                continue
            u0, u1 = ts[a_i], ts[b_i]
            k, kp = int(k_arr[mid_i]), int(kp_arr[mid_i])
            Kseg = float(np.max(phi_d1[a_i:b_i + 1]))
            left_marked = a_i in marked_idx
            right_marked = b_i in marked_idx
            if (self.log_sup_gprime <= 0.0 and Kseg <= self.eps
                    and len(cut_list) == 2):
                specs.append((0.5 * (u0 + u1), 0.5 * (u1 - u0), k, kp,
                              "Plain", True))
                continue
            if Kseg > EXPAND_THRESHOLD * self.eps:
                rho = EXPAND_SUP * self.eps / Kseg
                specs.extend(self._tile_expanding(u0, u1, rho, k, kp,
                                                  left_marked, right_marked))
            else:
                rho = min(RATE_CAP, PLAIN_SUP * self.eps / max(Kseg, 1e-300))
                specs.extend(self._tile_plain(u0, u1, rho, k, kp,
                                              left_marked, right_marked))

        return self._certify_children(parent, specs, n)

    @staticmethod
    def _tile_plain(u0, u1, rho, k, kp, left_marked, right_marked):
        w = u1 - u0
        out = []
        if w <= 2 * rho:
            out.append((0.5 * (u0 + u1), 0.5 * w, k, kp, "Plain", False))
        else:
            count = int(math.ceil(w / (2 * rho)))
            rho_eff = w / (2 * count)
            for j in range(count):
                c = u0 + (2 * j + 1) * rho_eff
                out.append((c, rho_eff, k, kp, "Plain", False))
        return _orient(out, u0, u1, left_marked, right_marked)

    @staticmethod
    def _tile_expanding(u0, u1, rho, k, kp, left_marked, right_marked):
        w = u1 - u0
        if w <= 2 * rho:
            out = [(0.5 * (u0 + u1), 0.5 * w, k, kp, "Plain", False)]
        else:
            exp_c, plain_c = cover_centers(u0, u1, rho)
            out = [(c, rho, k, kp, "Expanding", False) for c in exp_c] + \
                  [(c, rho, k, kp, "Plain", False) for c in plain_c]
        return _orient(out, u0, u1, left_marked, right_marked)

    def _certify_children(self, parent, specs, n):
        if not specs:
            return []
        A, R = parent.theta_alpha, parent.theta_rho
        tloc = np.linspace(-1.0, 1.0, CERT_GRID)
        alphas = np.array([s[0] for s in specs])
        rhos = np.array([s[1] for s in specs])
        thA = A + R * alphas
        thR = R * rhos
        jet, _ = self._curve_jets(thA[:, None], thR[:, None], tloc, n)
        d1 = np.abs(jet.deriv(1))
        sup1 = d1.max(axis=1)
        min1 = d1.min(axis=1)
        center1 = d1[:, CERT_GRID // 2]

        kids = []
        for i, (a, rho, k, kp, vtype, passthrough) in enumerate(specs):
            img_c = self.sigma_c + self.sigma_s * thA[i]
            img_h = abs(self.sigma_s * thR[i])
            kids.append(TreeVertex(
                self._next_vid, n, parent.vid, a, rho, float(thA[i]),
                float(thR[i]), k, kp, vtype, passthrough,
                float(sup1[i]), float(min1[i]), float(center1[i]),
                img_c - img_h, img_c + img_h))
            self._next_vid += 1
        return kids

    def _marked_crossings(self, vals, ts):
        if self.g.domain.is_circle:
            u = ((vals + 0.5) % 1.0) - 0.5
            out = []
            for i in range(len(ts) - 1):
                a, b = u[i], u[i + 1]
                if abs(a) <= 0.25 and abs(b) <= 0.25 and a * b < 0:
                    out.append(ts[i] + (ts[i + 1] - ts[i]) * a / (a - b))
            return out
        lo = np.abs(vals) < 1e-9
        out = []
        for i in range(len(ts) - 1):
            if lo[i] != lo[i + 1]:
                out.append(0.5 * (ts[i] + ts[i + 1]))
        return out

    # -- materialization ----------------------------------------------------

    def build(self, n_levels):
        """Materialize levels 1..n_levels breadth-first; obeys the budget."""
        while len(self.levels) - 1 < n_levels:
            level = []
            for parent in self.levels[-1]:
                level.extend(self.children(parent))
                if len(level) > self.level_budget:
                    prev = max(1, len(self.levels[-1]))
                    raise TreeBudgetExceeded(
                        f"level {len(self.levels)} exceeds budget "
                        f"{self.level_budget} (partial count {len(level)}, "
                        f"growth ~{len(level) / prev:.1f}x)",
                        level=len(self.levels), count=len(level),
                        budget=self.level_budget,
                        growth_rate=len(level) / prev)
            self.levels.append(level)
        return self

    @property
    def n_vertices(self):
        return sum(len(lv) for lv in self.levels)

    # -- geometric-time walk -------------------------------------------------

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
        root = self.levels[0][0]
        t0 = self.param_of(x, root.theta_alpha, root.theta_rho)
        if not np.isfinite(t0) or abs(t0) > 1.0 + 1e-12:
            return []
        active = [root]
        out = []
        for m in range(1, n_max + 1):
            want_kp = kp_x[m - 1]
            if want_kp < 0:
                break
            nxt = []
            hit = False
            for par in active:
                for ch in self.children(par):
                    if ch.kprime_label != want_kp:
                        continue
                    t = self.param_of(x, ch.theta_alpha, ch.theta_rho)
                    if abs(t) > 1.0 + 1e-12:
                        continue
                    if ch.vtype == "Expanding" and abs(t) <= 1.0 / 3.0 + 1e-12:
                        hit = True
                    nxt.append((abs(t), ch))
            if hit:
                out.append(m)
            nxt.sort(key=lambda p: (p[0], p[1].vid))
            active = [ch for _, ch in nxt[:ACTIVE_CAP]]
            if not active:
                break
        return out

    # -- export ----------------------------------------------------------------

    def to_rows(self):
        """CSV rows (level, parent_id, rate, k, kprime, vtype, image_left,
        image_right, margin_item3)."""
        rows = []
        for lv in self.levels[1:]:
            for v in lv:
                margin3 = v.center1 - self.eps / 6.0 if v.vtype == "Expanding" \
                    else float("nan")
                rows.append((v.level, v.parent, v.rho, v.k_label,
                             v.kprime_label, v.vtype, v.image_left,
                             v.image_right, margin3))
        return rows


def _orient(pieces, u0, u1, left_marked, right_marked):
    """Flip pieces whose right edge sits on a marked cut, so the cut is
    the image of t = -1 (where the marked point is allowed)."""
    out = []
    for (c, rho, k, kp, vtype, pt) in pieces:
        flip = right_marked and abs((c + rho) - u1) < 1e-14
        if left_marked and abs((c - rho) - u0) < 1e-14:
            flip = False  # left edge already maps from -1
        out.append((c, -rho if flip else rho, k, kp, vtype, pt))
    return out


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


_FIELDS = (("vid", np.int64), ("level", np.int32), ("parent", np.int64),
           ("alpha", float), ("rho", float), ("theta_alpha", float),
           ("theta_rho", float), ("k_label", np.int32),
           ("kprime_label", np.int32), ("passthrough", bool), ("sup1", float),
           ("center1", float))


def _vertex_arrays(tree):
    """Every vertex's fields as arrays in level order, the root first, plus
    ppos, the index of each vertex's parent (the root's own for the root)."""
    vs = [v for lv in tree.levels for v in lv]
    V = {f: np.fromiter(map(operator.attrgetter(f), vs), dt, len(vs))
         for f, dt in _FIELDS}
    V["expanding"] = np.fromiter(map("Expanding".__eq__, map(
        operator.attrgetter("vtype"), vs)), bool, len(vs))
    pos = np.zeros(V["vid"].max() + 1, dtype=int)
    pos[V["vid"]] = np.arange(V["vid"].size)
    V["ppos"] = pos[np.maximum(V["parent"], 0)]
    return V


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
    Items 2-6 work on arrays of the vertex fields; a NaN margin stays NaN.
    """
    rng = rng or np.random.default_rng(0)
    g = tree.g
    eps = tree.eps
    report = {}
    ratios, dist_ok = distortion_suite(tree)
    V = _vertex_arrays(tree)
    W = {f: a[1:] for f, a in V.items()}     # the non-root vertices

    # item 2: structural
    rho = np.abs(W["rho"])
    rate_bad = W["vid"][~W["passthrough"] & (rho > RATE_CAP + 1e-15)].tolist()
    nest_bad = W["vid"][V["expanding"][W["ppos"]] & (
        np.abs(W["alpha"]) + rho > 1.0 / 3.0 + 1e-12)].tolist()
    n_nonroot = tree.n_vertices - 1
    report["item2"] = {
        "n_checked": n_nonroot,
        "n_passthrough": int(np.count_nonzero(W["passthrough"])),
        "rate_violations": rate_bad,
        "nesting_violations": nest_bad,
        "ok": not rate_bad and not nest_bad,
        "pass_rate": 1.0 - (len(rate_bad) + len(nest_bad)) / max(1, n_nonroot),
    }

    # item 3 + distortion + eps margins from stored build data
    m3 = W["center1"][W["expanding"]] - eps / 6.0
    bad3 = W["vid"][W["expanding"]][m3 < -1e-12].tolist()
    report["item3"] = {"worst_margin": float(np.min(m3, initial=np.inf)),
                       "violations": bad3, "ok": not bad3}
    worst_eps = float(np.min(eps - W["sup1"], initial=np.inf))
    report["eps_bound"] = {"worst_margin": worst_eps,
                           "ok": worst_eps >= -1e-12}
    report["distortion"] = {"worst_ratio": float(ratios.max(initial=0.0)),
                            "ok": dist_ok}

    # item 1: sampled full certificates through every k <= level
    pick = rng.choice(n_nonroot, size=min(cert_sample, n_nonroot),
                      replace=False) if n_nonroot else []
    worst1 = np.inf
    ok1 = True
    for i in pick:
        level = int(W["level"][i])
        cert = check_bounded(affine_reparam(
            tree.sigma_c + tree.sigma_s * W["theta_alpha"][i],
            tree.sigma_s * W["theta_rho"][i]), g, eps, level, grid=65)
        ok1 &= cert.n_eps_bounded_up_to >= level
        worst1 = min([worst1] + [eps - ck.sup_first_deriv for ck in cert.per_k])
    report["item1"] = {"n_checked": len(pick), "ok": ok1,
                       "worst_eps_margin": worst1}

    # item 5: per-(parent, k', vtype) child counts; a parent fixes the level
    log_factor = tree.log_sup_gprime
    regularized = log_factor <= 0.0
    count_factor = max(1.0, math.floor(max(0.0, log_factor)) + 1.0) \
        if regularized else log_factor
    r = g.smoothness_r
    _, first, cnt = np.unique(      # k' lies in [0, KPRIME_CAP] on children
        (W["parent"] * (KPRIME_CAP + 1) + W["kprime_label"]) * 2
        + W["expanding"], return_index=True, return_counts=True)
    bound = np.array([C_R * count_factor * math.exp(
        max(max(0.0, log_factor), kp / (r - 1.0)) if e else kp / (r - 1.0))
        for kp, e in zip(W["kprime_label"][first].tolist(),
                         W["expanding"][first].tolist())])
    report["item5"] = {"ok": bool(np.all(cnt <= bound)),
                       "worst_margin": float(np.min(bound - cnt,
                                                    initial=np.inf)),
                       "log_factor_regularized": regularized}

    # items 4 and 6: witness covering on sampled sigma-parameters; match
    # marks the level's vertices whose label path is the witness's own
    n_levels = len(tree.levels) - 1
    xs = tree.sigma.point(rng.uniform(-0.98, 0.98, witness_samples), g.domain)
    kx, kpx = _labels(orbit_grid(g, xs, n_levels)[1])
    valid = np.logical_and.accumulate(kpx >= 0, axis=0)
    start = np.searchsorted(V["level"], np.arange(n_levels + 2))
    hits4 = np.zeros(n_levels)
    hits6 = np.zeros(n_levels)
    for w in range(xs.size):
        match = np.ones(1, dtype=bool)
        for n in range(1, 1 + np.count_nonzero(valid[:, w])):
            lv = slice(start[n], start[n + 1])
            match = (match[V["ppos"][lv] - start[n - 1]]
                     & (V["k_label"][lv] == kx[n - 1, w])
                     & (V["kprime_label"][lv] == kpx[n - 1, w]))
            t = np.abs(tree.param_of(xs[w], V["theta_alpha"][lv],
                                     V["theta_rho"][lv]))
            inside = t <= 1.0 + 1e-9
            hits4[n - 1] += bool(np.any(inside & match & (
                ~V["expanding"][lv] | (t <= 1.0 / 3.0 + 1e-9))))
            hits6[n - 1] += bool(np.any(inside))
    valid = np.count_nonzero(valid, axis=1).astype(float)
    for key, hits in (("item4", hits4), ("item6", hits6)):
        rate = np.where(valid > 0, hits / np.maximum(valid, 1), 1.0)
        report[key] = {"pass_rate_per_level": rate.tolist(),
                       "ok": bool(np.all(rate >= 0.99))}

    report["ok"] = all(report[k].get("ok", True) for k in
                       ("item1", "item2", "item3", "item4", "item5", "item6",
                        "eps_bound", "distortion"))
    return report


def distortion_suite(tree):
    """Distortion ratios of every materialized vertex composition.

    Uses the build-time grid sups; returns (ratios, ok) where ok demands
    ratio <= 3/2 + 1e-9 for every vertex whose composition is bounded.
    """
    sup1, min1 = (np.array([getattr(v, f) for lv in tree.levels[1:]
                            for v in lv], dtype=float) for f in ("sup1", "min1"))
    ratios = sup1[min1 > 0] / min1[min1 > 0]
    return ratios, bool(np.all(ratios <= 1.5 + 1e-9))
