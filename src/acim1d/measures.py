"""Empirical measures carried by orbit segments at selected times.

The pipeline draws seeds x, records their g-orbits and raw time sets
E(x), filters by density and finite-time expansion (the A_n selection),
and averages Dirac masses at the orbit points whose times survive the
clip/trim calculus:

   mu_n^{M,m}  =  sum_x sum_{i in E_n^{M,m}(x)} delta_{g^i x}
                  / sum_x #E_n^{M,m}(x)
   nu_n^{M,m}  =  (1 / (n beta_inf)) * mean_x sum_i delta_{g^i x}

with the uniform measure over retained seeds standing in for the
normalized Lebesgue measure on A_n.  Atom provenance (seed, time) is
kept so entropy estimators can read forward itineraries off the pool
orbits instead of re-iterating the map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySelection, InsufficientAtoms
from .maps import UNIT_INTERVAL, estimate_norms, orbit_grid, power_map
from .probes import probe_functions
from .times import (
    LOG10, boundary_counts, chain_table, density_rows,
    mask_from_lists, surrogate_mask, trim_masks,
)

__all__ = [
    "SamplePool", "Selection", "EmpiricalMeasure", "DensityEstimate",
    "build_seed_pool", "in_An", "select_An", "empirical_measure",
    "forward_points", "log_derivs_at", "invariance_defect",
    "density_estimate", "compare_density", "support_gap_from_critical",
    "ref_uniform", "ref_logistic_acip",
]


@dataclass
class SamplePool:
    """Seed orbits under g with raw detector time sets."""

    seeds: np.ndarray          # (S,)
    points: np.ndarray         # (n_orbit+1, S)
    log_derivs: np.ndarray     # (n_orbit, S) log|g'| at points[:-1]
    time_mask: np.ndarray      # (S, n_orbit+1) bool: t in raw E(x_s)
    provenance: dict
    n_orbit: int

    @property
    def n_seeds(self):
        return self.seeds.shape[0]

    def time_list(self, s):
        """Raw E(x_s) as a sorted list of ints."""
        return np.flatnonzero(self.time_mask[s]).tolist()


def build_seed_pool(f, p, n, n_seeds, rng, detector="surrogate",
                    window=None, orbit_buffer=8, tree=None):
    """Draw seeds, record g = f^p orbits, and attach detector time sets.

    window restricts seeds to an interval (the sigma image for the tree
    detector); orbit_buffer extends orbits beyond n so entropy
    itineraries of depth up to orbit_buffer stay inside the record.
    """
    g = power_map(f, p)
    lo, hi = window if window is not None else (0.0, 1.0)
    seeds = rng.uniform(lo, hi, n_seeds)
    n_orbit = n + orbit_buffer
    pts, lds = orbit_grid(g, seeds, n_orbit)

    if detector not in ("surrogate", "tree", "both"):
        raise ValueError(f"unknown detector {detector!r}")
    if detector != "surrogate" and tree is None:
        raise ValueError("tree detector requires a built ReparamTree")
    prov = {"map": f.name, "p": p, "g": g.name, "detector": detector,
            "window": (lo, hi)}
    if detector != "tree":
        times = surrogate_mask(lds)
    if detector != "surrogate":
        walked = mask_from_lists(
            [tree.walk_geometric_times(float(x), n_orbit) for x in seeds],
            n_orbit + 1)
        if detector == "tree":
            times = walked
        else:
            union = np.maximum(1, np.count_nonzero(times | walked, axis=1))
            agree = np.count_nonzero(times & walked, axis=1) / union
            prov["tree_agreement_rate"] = \
                float(np.mean(agree)) if n_seeds else 1.0
    return SamplePool(seeds=seeds, points=pts, log_derivs=lds,
                      time_mask=times, provenance=prov, n_orbit=n_orbit)


@dataclass
class Selection:
    """Indices of pool seeds surviving the A_n filter, plus diagnostics."""

    pool: SamplePool
    indices: np.ndarray
    n: int
    beta: float
    b: float
    p: int
    fraction: float
    leb_proxy_ok: bool

    @property
    def n_selected(self):
        return self.indices.shape[0]


def in_An(E, n, growth, beta, b, p):
    """The A_n test per row: d_n(E) > beta and |(g^n)'| >= e^{n p b}.

    E is a boolean seed x time matrix and growth holds log|(g^n)'| of each
    seed, the n-step sum of log|g'| along its orbit.
    """
    return (density_rows(E, n) > beta) & (growth >= n * p * b - 1e-12)


def select_An(pool, n, beta, b, p):
    """Keep the seeds in A_n (in_An on the pool's time sets and orbits).

    The Lebesgue proxy flag reports whether the retained fraction meets
    the 1/n^2 threshold that the limit construction asks of Leb(A_n).
    """
    if not 1 <= n <= pool.n_orbit:
        raise ValueError(f"selection horizon {n} outside 1..{pool.n_orbit}")
    growth = np.cumsum(pool.log_derivs[:n], axis=0)[-1]
    idx = np.nonzero(in_An(pool.time_mask, n, growth, beta, b, p))[0]
    if idx.size == 0:
        raise EmptySelection(
            f"no seed passed (beta={beta}, b={b}, n={n}); "
            f"max density {density_rows(pool.time_mask, n).max():.3f}, "
            f"max rate {np.max(growth) / (n * p):.3f}")
    frac = idx.size / pool.n_seeds
    return Selection(pool=pool, indices=idx, n=n, beta=beta, b=b, p=p,
                     fraction=frac, leb_proxy_ok=frac >= 1.0 / n ** 2)


@dataclass
class EmpiricalMeasure:
    """Weighted point masses at orbit points g^i x, i in E_n^{M,m}(x)."""

    atoms: np.ndarray          # positions
    weights: np.ndarray
    meta: dict
    seed_idx: np.ndarray = None
    time_idx: np.ndarray = None
    pool: SamplePool = None
    per_seed_counts: np.ndarray = None
    per_seed_boundary: np.ndarray = None

    @property
    def n_atoms(self):
        return self.atoms.shape[0]


def empirical_measure(selection, M, m, normalization="mu", beta_inf=None,
                      table=None):
    """Assemble mu_n^{M,m} or nu_n^{M,m} from a seed selection; table is
    the selected rows' chain_table at M (built here unless given)."""
    pool = selection.pool
    n = selection.n
    if table is None:
        table = chain_table(pool.time_mask[selection.indices, :n], M)
    if table[1] != M or len(table[0]) != selection.n_selected:
        raise ValueError("table is not the selection's chain table at M")
    T = trim_masks(table, n, [m])[1][m]
    counts = np.count_nonzero(T, axis=1)
    bounds = boundary_counts(T)
    rows, t_idx = np.nonzero(T)     # seed-major, times ascending per seed
    s_idx = selection.indices[rows]
    total = int(counts.sum())
    if total == 0:
        raise EmptySelection(f"E_n^{{M={M},m={m}}} empty for every retained seed")
    beta_nMm = float(np.mean(counts / n))
    if normalization == "mu":
        w = np.full(total, 1.0 / total)
    elif normalization == "nu":
        if beta_inf is None:
            raise ValueError("nu normalization needs a beta_inf estimate")
        w = np.full(total, 1.0 / (n * beta_inf * selection.n_selected))
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    meta = {"n": n, "M": M, "m": m, "normalization": normalization,
            "beta_nMm": beta_nMm, "beta_inf": beta_inf,
            "n_seeds": selection.n_selected,
            "map": pool.provenance.get("g"), "p": selection.p}
    return EmpiricalMeasure(
        atoms=pool.points[t_idx, s_idx], weights=w, meta=meta,
        seed_idx=s_idx, time_idx=t_idx,
        pool=pool, per_seed_counts=counts, per_seed_boundary=bounds)


def forward_points(mu, m, g=None):
    """g^j of the atoms, j < m: the atoms, then pool orbits, else g."""
    if mu.pool is None and g is None:
        raise ValueError("need g to iterate a pool-free measure")
    xj = mu.atoms
    for j in range(m):
        if j:
            xj = g.eval(xj) if mu.pool is None else \
                mu.pool.points[mu.time_idx + j, mu.seed_idx]
        yield xj


def log_derivs_at(mu, j, g):
    """log|g'| at g^j of the atoms: read off the pool's log_derivs, which
    raises ValueError unless the pool was built under g, else evaluated at
    the last of forward_points(mu, j + 1, g)."""
    if mu.pool is None:
        return g.log_abs_deriv(list(forward_points(mu, j + 1, g))[-1])
    if g.name != mu.pool.provenance.get("g"):
        raise ValueError(f"pool built under {mu.pool.provenance.get('g')!r}"
                         f", not {g.name!r}")
    return mu.pool.log_derivs[mu.time_idx + j, mu.seed_idx]


def invariance_defect(mu, g):
    """Weak-* defect |int psi d g_*mu - int psi d mu| against its bound,
    the max over the probe_functions() dictionary.

    Inside a run of a seed's times each atom's image is the next atom, so
    g_*mu - mu telescopes to one signed sum over the run starts and the
    run ends' images: atom i carries w_{i-1} [atom i-1 does not end a run]
    - w_i, each run end's image +w_i, and the probes are evaluated only
    where that coefficient is not 0: O(#runs) evaluations, 2 per run for
    equal weights, 2n without a pool, where every atom is its own run.
    The defect is NaN if an atom, a run end's image or a weight is not
    finite.

    The bound is the boundary-count term: each run adds at most
    2 w sup|psi| <= 2 w, and boundary_counts gives 2 per run, so with
    equal weights the defect stays within it by construction.
    """
    w = mu.weights
    ends = np.ones(mu.n_atoms, dtype=bool)
    if mu.pool is not None:
        ends[:-1] = (np.diff(mu.seed_idx) != 0) | (np.diff(mu.time_idx) != 1)
        gx = mu.pool.points[mu.time_idx[ends] + 1, mu.seed_idx[ends]]
    else:
        gx = g.eval(mu.atoms)
    z = np.concatenate((mu.atoms, gx))
    c = np.concatenate((-w, w[ends]))
    c[1:w.size] += w[:-1] * ~ends[:-1]
    finite = np.isfinite(z).all() and np.isfinite(c).all()
    keep = c != 0
    z, c = z[keep], c[keep]
    defect = float(np.max([abs(float(np.sum(c * psi(z))))
                           for psi in probe_functions()])) \
        if finite else float("nan")
    if mu.per_seed_boundary is not None and mu.per_seed_counts is not None:
        norm = mu.meta.get("normalization", "mu")
        if norm == "mu":
            bound = float(np.sum(mu.per_seed_boundary)
                          / max(1, np.sum(mu.per_seed_counts)))
        else:
            bound = float(np.sum(mu.per_seed_boundary)
                          / (mu.meta["n"] * mu.meta["beta_inf"]
                             * mu.meta["n_seeds"]))
    else:
        bound = float("nan")
    return {"defect": defect, "bound": bound,
            "ok": bool(np.isfinite(bound)) and defect <= bound + 1e-12}


@dataclass
class DensityEstimate:
    bins: int
    edges: np.ndarray
    masses: np.ndarray

    def to_rows(self, reference=None):
        refs = _bin_masses(reference, self.edges).tolist() if reference \
            else [float("nan")] * self.bins
        return list(zip(self.edges[:-1], self.edges[1:],
                        self.masses.tolist(), refs))


def density_estimate(mu, bins):
    """Histogram of atom masses over [0,1]."""
    if bins < 10:
        raise ValueError("need at least 10 bins")
    masses, edges = np.histogram(np.clip(mu.atoms, 0.0, 1.0 - 1e-15),
                                 bins=bins, range=(0.0, 1.0),
                                 weights=mu.weights)
    return DensityEstimate(bins=bins, edges=edges, masses=masses)


BIN_NODES = 100          # midpoint-rule nodes per histogram bin


def _bin_masses(ref, edges):
    """The reference's mass in each bin [edges[i], edges[i + 1]], all bins'
    BIN_NODES midpoint nodes in one (bins, BIN_NODES) evaluation."""
    a, w = edges[:-1, None], np.diff(edges)[:, None]
    ts = a + (np.arange(BIN_NODES) + 0.5) * w / BIN_NODES
    return np.mean(ref(ts), axis=1) * w[:, 0]


def compare_density(est, reference_density):
    """L1 distance between the histogram and a closed-form density.

    The reference is integrated per bin by the midpoint rule with
    BIN_NODES nodes, so integrable endpoint singularities (the arcsine
    density) are handled without special cases.
    """
    l1 = 0.0
    for d in np.abs(est.masses - _bin_masses(reference_density, est.edges)
                    ).tolist():
        l1 += d         # left to right, so density_l1 keeps its bits
    return l1


def ref_uniform(x):
    return np.ones_like(np.asarray(x, dtype=float))


def ref_logistic_acip(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / (np.pi * np.sqrt(np.clip(x * (1.0 - x), 1e-300, None)))


def support_gap_from_critical(mu, critical_pts, g=None, M=None,
                              log_sup_gprime=None):
    """Distance of the support to the critical set, plus the M-floor check.

    Returns +inf when the critical set is empty.  When g and M are
    supplied, also checks log|g'| >= -M log||g'||_inf at every atom (the
    hyperbolic-time floor on the derivative along kept times).
    """
    pts = [p for c in critical_pts
           for p in (c if isinstance(c, tuple) else (c,))]
    domain = g.domain if g is not None else UNIT_INTERVAL
    gap = float(np.min(domain.nearest_distance(mu.atoms, pts))) if pts \
        else float("inf")
    rep = {"gap": gap, "flagged_zero": gap <= 1e-12}
    if g is not None and M is not None:
        if log_sup_gprime is None:
            log_sup_gprime = float(np.log(
                estimate_norms(g, 1024, 1, 2).sup_abs_deriv[1]))
        ld = log_derivs_at(mu, 0, g)
        floor = -M * log_sup_gprime
        rep["deriv_floor_margin"] = float(np.min(ld) - floor)
        rep["deriv_floor_ok"] = bool(np.min(ld) >= floor - 1e-9)
    return rep


PROXY_MIN = 0.95   # least positive_exponent_proxy that counts as expansion


def positive_exponent_proxy(mu):
    """Fraction of atoms with a later raw time l whose segment expands.

    For an atom g^i x with i in E_n^{M,m}(x) there should exist l in
    E(x), l > i, with log|(g^{l-i})'(g^i x)| >= (l-i) log c, c =
    EXPANSION; this is the mechanism that makes the limit exponent >=
    log c.  One suffix max per seed row gives it in O(seeds x times).
    """
    if mu.pool is None:
        raise InsufficientAtoms("measure carries no pool provenance")
    pool = mu.pool
    # u[s, t] = S_t - t log c, the coordinates of times.surrogate_mask; the
    # condition reads u_l >= u_i - 1e-9 for some l in E(x_s), l > i
    u = np.zeros(pool.time_mask.shape)
    np.cumsum(pool.log_derivs.T, axis=1, out=u[:, 1:])
    u -= LOG10 * np.arange(u.shape[1])
    # later[s, t] = max{u[s, l] : l in E(x_s), l > t}, -inf when E has no
    # such l: u of the times in E shifted one step left, then a running max
    # from the right (fmax skips a NaN u_l, which a comparison would fail)
    later = np.full(u.shape, -np.inf)
    np.copyto(later[:, :-1], u[:, 1:], where=pool.time_mask[:, 1:])
    np.fmax.accumulate(later[:, ::-1], axis=1, out=later[:, ::-1])
    ui = u[mu.seed_idx, mu.time_idx]
    # a -inf u_i (critical hit) fails, as does a NaN one
    ok = np.count_nonzero(np.isfinite(ui)
                          & (later[mu.seed_idx, mu.time_idx] >= ui - 1e-9))
    return ok / max(1, mu.n_atoms)
