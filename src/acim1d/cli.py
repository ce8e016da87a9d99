"""Experiment runner: map -> times -> measure -> entropy -> verdict.

Subcommands: norms, branches, tree, times, measure, pipeline, verify,
bound.  Each stage emits CSV files into the output directory.  The
measure stage selects A_n and writes the betas grid, mu and its
histogram; mu and its checks.csv rows come from measure_rows, a function
of the seed subset.  A checks.csv margin is rhs - lhs where rhs bounds
lhs from above, else lhs - rhs.  The verdict is decided in memory
(compute_verdict) from exactly the values written to entropy.csv and
checks.csv, so those two files reproduce it.
Exit codes: 0 success, 1 verify failures (some check in checks.csv
failed) or any other Acim1dError, 2 config error (a bad bound input
too), 3 empty selection, 4 tree budget exceeded.  --timings PATH writes
each stage's wall and CPU time and peak RSS to PATH as JSON, so no file
of the output directory depends on the clock.

Determinism: every random draw descends from rng_seed via SeedSequence
spawning in a fixed stage order, and floats print as format(v, ".17g"),
in measure.csv and times.csv by the byte-equal array formatter _g17.
So a rerun reproduces every CSV byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import resource
import sys
import time
from pathlib import Path

import numpy as np
import numpy.random  # numpy imports it lazily; every run draws from it

from .branches import count_branches_with_min_slope, monotone_branches
from .config import load_config
from .entropy import (
    ac_verdict, entropy_formula_residual, gibbs_check, misiurewicz_battery,
    verify_mane_bounds,
)
from .errors import (
    Acim1dError, ConfigError, EmptySelection, TreeBudgetExceeded,
)
from .maps import estimate_norms, lyapunov_ft, make_map, power_map
from .measures import (
    PROXY_MIN, build_seed_pool, compare_density, density_estimate,
    empirical_measure, invariance_defect, positive_exponent_proxy,
    ref_logistic_acip, ref_uniform, select_An, support_gap_from_critical,
)
from .reparam import affine_reparam, choose_epsilon, taylor_window_check
from .times import (
    chain_table, enm_bruteforce_rows, trim_counts, trim_masks, verify_enm_grid,
)
from .tree import ReparamTree, verify_tree

__all__ = ["main", "run_pipeline", "bound_calculator", "bound_analytic",
           "bound_smooth", "compute_verdict", "reparam_count_constant"]


NAN = float("nan")
_REFERENCES = {"uniform": ref_uniform, "logistic": ref_logistic_acip}

# verify_tree's items as checks.csv rows: (report key, value, bound), the
# value being the item's worst margin or its lowest per-level pass rate
_TREE_ITEMS = (("item1", "worst_eps_margin", 0.0), ("item2", "pass_rate", 1.0),
               ("item3", "worst_margin", 0.0),
               ("item4", "pass_rate_per_level", 0.99),
               ("item5", "worst_margin", 0.0),
               ("item6", "pass_rate_per_level", 0.99),
               ("eps_bound", "worst_margin", 0.0))


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write_csv(path, header, rows=(), chunks=()):
    """Header and rows via csv.writer, then text chunks of rows alike."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in rows)
        fh.writelines(chunks)


def _chunks(text_of, *cols, size=1 << 13):
    """text_of of each size-row slice of cols: bounds the text held at once"""
    for i in range(0, len(cols[0]), size):
        yield text_of(*(c[i:i + size] for c in cols))


# format(v, ".17g") of a float array at once.  The 17 significant digits of
# |v| are D = round(|v|·10^(16-e)), the product taken in double-double
# (Dekker split, 10^k held as two words).  A row's text is the 32 byte
# slots "-0.000" "d" "." "dddddddddddddddd" "e-XXX" (four little-endian
# words), of which those of its sign, layout and len(D) are kept.
# format() itself prints the rows this cannot settle: |v| outside
# [1e-280, 1) (so ±0, subnormals, NaN and ±inf) and near-ties, whose
# product lies within 1e-9 of D ± 1/2.
def _split(a):
    """Dekker's split of doubles a into halves of at most 26 bits"""
    c = 134217729.0 * a                             # (2^27 + 1) a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _g17_tables():
    """_g17's tables, built at first use: 10^16 .. 10^299 as two words,
    "%04d" % i as one word and its length up to its last nonzero digit,
    "e-XXX" words, and the kept slots by (sign, layout, len(D) - 1), where
    layouts 0-3 are 0.ddd with that many zeros after the point and 4 and
    5 are d.ddde-XX and d.ddde-XXX"""
    p10_hi = np.array([float(10 ** k) for k in range(16, 300)])
    p10_lo = np.array([float(10 ** k - int(h))
                       for k, h in enumerate(p10_hi.tolist(), 16)])
    i = np.arange(10000)
    sig4 = 4 - sum(i % 10 ** k == 0 for k in (1, 2, 3, 4))
    dig4 = np.stack([48 + i // 10 ** k % 10 for k in (3, 2, 1, 0)], 1)
    dig4 = dig4.astype(np.uint8).view("<u4")[:, 0].astype("<u8")
    exp8 = np.frombuffer(b"".join(b"e-%03d\0\0\0" % k for k in range(300)),
                         "<u8")
    neg, lay, nz, s = np.ix_(range(2), range(6), range(1, 18), range(32))
    fixed = lay < 4
    keep = (((s == 0) & (neg == 1)) | (s == 6) | ((s >= 8) & (s < 7 + nz))
            | fixed & ((s == 1) | (s == 2) | ((s >= 3) & (s < 3 + lay)))
            | ~fixed & (((s == 7) & (nz > 1))
                        | ((s >= 24) & (s < 29) & ((s != 26) | (lay == 5)))))
    return p10_hi, p10_lo, dig4, sig4, exp8, keep.reshape(-1, 32)


def _g17_scale(ax, e):
    """ax·10^(16-e) as a normalised double-double (hi, lo), and its step:
    +1 where it is at least 10^17, -1 where it is below 10^16, else 0.
    (hi - 10^k is exact near 10^k, and its sum with lo has the exact sign.)"""
    p10_hi, p10_lo = _g17_tables()[:2]
    p_hi = p10_hi[-e]
    ph = ax * p_hi
    (xh, xl), (th, tl) = _split(ax), _split(p_hi)
    lo = ((xh * th - ph) + xh * tl + xl * th) + xl * tl + ax * p10_lo[-e]
    hi = ph + lo
    lo -= hi - ph
    return hi, lo, (((hi - 1e17) + lo >= 0).astype(np.intp)
                    - ((hi - 1e16) + lo < 0))


def _g17(x):
    """format(v, ".17g") of each v of the float array x as byte slots:
    (slots, kept, fallback), row i's text being slots[i][kept[i]].  The
    fallback rows, and only they, were printed by format() itself."""
    dig4, sig4, exp8, keep = _g17_tables()[2:]
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    fast = (ax >= 1e-280) & (ax < 1.0)
    ax[~fast] = 0.5
    e = np.floor(np.log10(ax)).astype(np.intp)
    hi, lo, step = _g17_scale(ax, e)
    moved = np.flatnonzero(step)        # log10 rounded across a power of 10
    e[moved] += step[moved]
    hi[moved], lo[moved], step[moved] = _g17_scale(ax[moved], e[moved])
    fast &= step == 0
    down = np.floor(lo)
    frac = lo - down
    fast &= np.abs(frac - 0.5) >= 1e-9
    D = hi.astype(np.int64) + down.astype(np.int64) + (frac > 0.5)
    top = D == 10 ** 17                 # rounded up to the next power of 10
    D[top] = 10 ** 16
    e += top
    lead, rest = np.divmod(D, 10 ** 16)
    g = np.divmod(rest // 10 ** 8, 10 ** 4) + np.divmod(rest % 10 ** 8,
                                                         10 ** 4)
    nz = 1 + sig4[g[0]]
    for k in (1, 2, 3):
        sig = sig4[g[k]]
        nz = np.where(sig > 0, 1 + 4 * k + sig, nz)
    lay = np.where(e >= -4, -1 - e, 4 + (e <= -100))
    kept = np.take(keep, ((x < 0) * 6 + lay) * 17 + nz - 1, axis=0)
    slots = np.stack([int.from_bytes(b"-0.0000.", "little")
                      + (lead.astype("<u8") << 48),
                      dig4[g[0]] | dig4[g[1]] << 32,
                      dig4[g[2]] | dig4[g[3]] << 32, exp8[-e]], axis=1)
    slots = slots.view(np.uint8)
    for i in np.flatnonzero(~fast).tolist():
        text = format(x[i].item(), ".17g").encode()
        slots[i, :len(text)] = np.frombuffer(text, np.uint8)
        kept[i] = np.arange(32) < len(text)
    return slots, kept, ~fast


def _join_rows(n, *fields):
    """n rows of byte slots side by side, kept bytes only, as one str; a
    field is (slots, kept), both (n, w), or bytes that every row holds"""
    parts = [(np.broadcast_to(np.frombuffer(f, np.uint8), (n, len(f))),
              np.broadcast_to(True, (n, len(f))))
             if isinstance(f, bytes) else f for f in fields]
    slots, kept = (np.concatenate(p, axis=1) for p in zip(*parts))
    return np.compress(kept.ravel(), slots.ravel()).tobytes().decode("ascii")


def _measure_body(atoms, weights):
    """measure.csv rows (point, weight) as CSV text.  Each distinct weight
    is formatted once; distinct means by bits, as -0.0 and 0.0 print apart."""
    bits, inv = np.unique(np.ascontiguousarray(weights, dtype=float).view(
        np.uint64), return_inverse=True)
    weight = [np.take(a, inv, axis=0) for a in _g17(bits.view(float))[:2]]
    return _join_rows(len(atoms), _g17(atoms)[:2], b",", weight, b"\r\n")


def _times_body(seeds, time_mask):
    """times.csv rows (x, ;-joined raw times of x) as CSV text."""
    n, T = time_mask.shape
    widths = [len(str(t)) + 1 for t in range(T)]     # of ";t"
    kept = np.repeat(time_mask, widths, axis=1)
    if T:                                   # no ";" before a row's first t
        starts = np.cumsum([0] + widths[:-1])
        kept[np.arange(n), starts[time_mask.argmax(axis=1)]] = False
    tokens = "".join(";%d" % t for t in range(T)).encode()
    return _join_rows(n, _g17(seeds)[:2], b",",
                      (np.broadcast_to(np.frombuffer(tokens, np.uint8),
                                       kept.shape), kept), b"\r\n")


CHECKS_HEADER = ("check_name", "instance_id", "lhs", "rhs", "margin",
                 "ci_low", "ci_high", "pass")
# the checks.csv rows the verdict requires, each present and passed
REQUIRED_CHECKS = frozenset(("invariance_defect", "mane_sete", "mane_hq"))


def _row(name, instance, lhs, rhs, ok, ci=(NAN, NAN), upper=True):
    """A checks.csv row, with the confidence interval ci when there is one.
    Its margin is rhs - lhs when rhs bounds lhs from above, else lhs - rhs.
    It fails when its value lhs is NaN, whatever ok says: a check that
    could not be evaluated never passes."""
    return (name, instance, lhs, rhs, rhs - lhs if upper else lhs - rhs,
            ci[0], ci[1], int(bool(ok) and not math.isnan(lhs)))


def _tree_rows(rep, instance):
    """checks.csv rows of a verify_tree report: the worst distortion ratio
    against 3/2, then each of _TREE_ITEMS against its bound (an item with
    no level to rate gets NaN)."""
    d = rep["distortion"]
    rows = [_row("tree_distortion", instance, d["worst_ratio"], 1.5, d["ok"])]
    for key, field, bound in _TREE_ITEMS:
        v = rep[key][field]
        v = float(min(v, default=NAN) if isinstance(v, list) else v)
        rows.append(_row("tree_" + key, instance, v, bound, rep[key]["ok"],
                         upper=False))
    return rows


# ---------------------------------------------------------------------------
# bound calculators
# ---------------------------------------------------------------------------


def _positive(**values):
    """The values as float64 scalars, each finite and positive (NaN
    fails), else ValueError.  Their arithmetic, under errstate, rounds
    past the float range to inf or 0 where Python's ** and / raise."""
    for name, v in values.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {v}")
    return [np.float64(v) for v in values.values()]


def bound_calculator(log_sup_fprime, log_fprime_r_minus_1, delta, C_r):
    """Count bound (log||f'||_inf / delta)^{(C_r log||f'||_{r-1}) / delta}."""
    L, L1, d, C = _positive(log_sup_fprime=log_sup_fprime,
                            log_fprime_r_minus_1=log_fprime_r_minus_1,
                            delta=delta, C_r=C_r)
    with np.errstate(all="ignore"):
        return float((L / d) ** (C * L1 / d))


def bound_analytic(c_const, delta):
    """Analytic-map variant: C^{1/delta^4}."""
    C, d = _positive(c_const=c_const, delta=delta)
    with np.errstate(all="ignore"):
        return float(C ** (1.0 / d ** 4))


def bound_smooth(norm_value, c_const, delta):
    """C-infinity variant: (||f'||_{C/delta})^{C/delta^3}."""
    N, C, d = _positive(norm_value=norm_value, c_const=c_const, delta=delta)
    with np.errstate(all="ignore"):
        return float(N ** (C / d ** 3))


REPARAM_C = 1.0   # the universal C of reparam_count_constant


def reparam_count_constant(r):
    """The C r^{2r} form of the reparametrization counting constant,
    C = REPARAM_C."""
    return REPARAM_C * r ** (2.0 * r)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


class PipelineState:
    """One run's state.  out_dir and rng_seed, if given, override the
    config's.  cfg is not modified."""

    def __init__(self, cfg, out_dir=None, rng_seed=None):
        self.cfg = cfg
        self.rng_seed = cfg.rng_seed if rng_seed is None else rng_seed
        self.out = Path(out_dir) if out_dir is not None else cfg.output_dir
        self.out.mkdir(parents=True, exist_ok=True)
        seq = np.random.SeedSequence(self.rng_seed)
        (self.seq_pool, self.seq_offset, self.seq_gibbs, self.seq_tree,
         self.seq_misc) = seq.spawn(5)
        self.f = self.g = self.p = self.norms_f = self.norms_g = None
        self.eps = self.tree = self.pool = self.selection = self.mu = None
        self.checks = []    # checks.csv rows, each from _row


def stage_map(st):
    cfg = st.cfg
    params = dict(cfg.map_params)
    if cfg.preset in ("logistic", "perturbed_circle", "expr"):
        params.setdefault("smoothness_r", cfg.r)
    try:
        st.f = make_map(cfg.preset, **params)
    except (ArithmeticError, SyntaxError, TypeError, ValueError) as exc:
        raise ConfigError(f"map construction failed: {exc}") from exc
    st.norms_f = estimate_norms(st.f)
    st.p = cfg.resolve_p(math.log(max(st.norms_f.sup_abs_deriv[1], 1e-300)))
    st.g = power_map(st.f, st.p)
    st.norms_g = estimate_norms(st.g, grid_size=2 ** 14, refine_iters=2,
                                n_used=2)
    rows = [(name, k, v, norms.upper_hints.get(k, NAN))
            for name, norms in (("f", st.norms_f), ("g", st.norms_g))
            for k, v in norms.sup_abs_deriv.items()]
    rows.append(("f", "R_estimate", st.norms_f.R_estimate, st.norms_f.n_used))
    rows.append(("g", "R_estimate", st.norms_g.R_estimate, st.norms_g.n_used))
    rows.append(("run", "p", st.p, ""))
    xs = np.random.default_rng(st.seq_misc).uniform(0.02, 0.98, 5)
    st.lyapunov = float(np.mean(lyapunov_ft(st.f, xs, 1000)))
    rows.append(("f", "lyapunov_ft", st.lyapunov, 1000))
    _write_csv(st.out / "norms.csv", ("map", "quantity", "value", "aux"), rows)
    return st


def stage_branches(st):
    st.bp = monotone_branches(st.g, grid_size=2 ** 14)
    _write_csv(st.out / "branches.csv",
               ("map", "index", "a", "b", "sign", "sup_slope"),
               st.bp.to_rows())
    return st


def stage_tree(st):
    cfg = st.cfg
    st.eps = choose_epsilon(st.g, st.norms_g)
    if cfg.detector in ("tree", "both"):
        sig = affine_reparam(0.37, 0.9 * st.eps)
        st.tree = ReparamTree(st.f, st.p, sig, st.eps,
                              level_budget=cfg.tree_budget)
        st.tree.build(cfg.tree_levels)
        _write_csv(st.out / "tree.csv",
                   ("level", "parent_id", "rate", "k", "kprime", "vtype",
                    "image_left", "image_right", "margin_item3"),
                   st.tree.to_rows())
        st.checks += _tree_rows(verify_tree(
            st.tree, rng=np.random.default_rng(st.seq_tree)), "all")
    return st


def stage_times(st):
    cfg = st.cfg
    n_max = max(cfg.n_list)
    rng = np.random.default_rng(st.seq_pool)
    window = None
    if cfg.detector == "tree" and st.tree is not None:
        c, s = st.tree.sigma_c, abs(st.tree.sigma_s)
        window = (c - 0.9 * s, c + 0.9 * s)
    st.pool = build_seed_pool(
        st.f, st.p, n_max, cfg.seeds, rng, detector=cfg.detector,
        window=window, orbit_buffer=max(cfg.entropy_m),
        tree=st.tree)
    if "tree_agreement_rate" in st.pool.provenance:
        # reported, never asserted: surrogate-vs-tree coincidence is an
        # open question beyond linear maps
        rate = st.pool.provenance["tree_agreement_rate"]
        st.checks.append(_row("detector_agreement", "tree_vs_surrogate",
                              rate, NAN, True))
    _write_csv(st.out / "times.csv", ("x", "times"),
               chunks=_chunks(_times_body, st.pool.seeds, st.pool.time_mask))

    # d_n of E and of E_n^{M,m} (largest M, least m) from one count each
    E = st.pool.time_mask
    raw = np.cumsum(E, axis=1, dtype=np.int32)      # [s, n-1]: #(E cap [0,n))
    trimmed = trim_counts(chain_table(E, max(cfg.M_list)), min(cfg.m_list))
    _write_csv(st.out / "density.csv", ("n", "d_n_raw", "d_n_trimmed"),
               [(n, float(np.mean(raw[:, n - 1] / n)),
                 float(np.mean(trimmed[:, n] / n)))
                for n in range(1, n_max + 1)])
    return st


def measure_rows(st, selection, table=None):
    """(mu, est, rows): mu_n^{M,m} (max M, min m) at selection.n on its
    seeds, its histogram and checks.csv rows; table is their chain_table at
    max M, built unless given, and dropped once mu is built (a caller that
    hands over its only reference frees it there).  Writes no file and
    sets nothing on st."""
    cfg = st.cfg
    M, q = max(cfg.M_list), max(cfg.q_list)
    mu = empirical_measure(selection, M, min(cfg.m_list), table=table)
    del table
    est = density_estimate(mu, cfg.bins)
    rows, ref = [], _REFERENCES.get(cfg.reference)
    if ref is not None:
        l1 = compare_density(est, ref)
        rows.append(_row("density_l1", cfg.reference, l1, cfg.tol_l1,
                         l1 <= cfg.tol_l1))
    rep = invariance_defect(mu, st.g)
    rows.append(_row("invariance_defect", "mu", rep["defect"], rep["bound"],
                     rep["ok"]))
    gap = support_gap_from_critical(
        mu, st.bp.critical, g=st.g, M=M,
        log_sup_gprime=math.log(st.norms_g.sup_abs_deriv[1]))
    rows.append(_row("support_gap", "min_distance", gap["gap"], 0.0,
                     not gap["flagged_zero"], upper=False))
    rows.append(_row("deriv_floor", f"M={M}", gap["deriv_floor_margin"], 0.0,
                     gap["deriv_floor_ok"], upper=False))
    proxy = positive_exponent_proxy(mu)
    rows.append(_row("exponent_proxy", "later_time_expansion", proxy,
                     PROXY_MIN, proxy >= PROXY_MIN, upper=False))
    mane = verify_mane_bounds(mu, st.g, q, bp=st.bp, norms=st.norms_g,
                              rng=np.random.default_rng(st.seq_offset))
    for key in ("sete", "hq"):
        rows.append(_row(f"mane_{key}", f"q={q}", mane[f"{key}_lhs"],
                         mane[f"{key}_rhs"], mane[f"{key}_ok"]))
    rows.append(_row("mane_branch_size", "atoms", mane["branch_size_margin"],
                     0.0, mane["branch_size_ok"], upper=False))
    return mu, est, rows


def stage_measure(st):
    cfg = st.cfg
    st.b = b = st.norms_f.R_estimate / cfg.r + cfg.delta
    st.selection = select_An(st.pool, max(cfg.n_list), cfg.beta, b, st.p)

    # beta_nMm over the (n, M, m) grid, one chain table per M; its largest
    # (n, M), smallest-m entry estimates beta_inf.  Counts at n read only
    # columns below n, so E stops at max n; the max-M table goes on to mu,
    # measure_rows holding its only reference.
    E = st.pool.time_mask[st.selection.indices, :st.selection.n]
    betas = {}
    for M in sorted(cfg.M_list):
        tables = [chain_table(E, M)]
        for m in cfg.m_list:
            mean = trim_counts(tables[0], m).mean(axis=0)  # over seeds, per n
            for n in cfg.n_list:
                betas[(n, M, m)] = float(mean[n]) / n
    _write_csv(st.out / "betas.csv", ("n", "M", "m", "beta_nMm"),
               [(n, M, m, v) for (n, M, m), v in sorted(betas.items())])

    del E
    st.mu, est, rows = measure_rows(st, st.selection, tables.pop())
    st.checks += rows
    st.exponent_proxy = next(r[2] for r in rows if r[0] == "exponent_proxy")
    _write_csv(st.out / "measure.csv", ("point", "weight"),
               chunks=_chunks(_measure_body, st.mu.atoms, st.mu.weights))
    _write_csv(st.out / "hist.csv",
               ("bin_left", "bin_right", "mass", "reference_mass"),
               est.to_rows(_REFERENCES.get(cfg.reference)))

    # the Gibbs cylinder bound at up to gibbs_instances selected seeds
    picks = np.random.default_rng(st.seq_gibbs).choice(
        st.selection.indices, replace=False,
        size=min(cfg.gibbs_instances, st.selection.n_selected))
    for s in picks:
        rep = gibbs_check(
            st.g, float(st.pool.seeds[s]), st.pool.time_list(s),
            q=max(cfg.q_list), eps=st.eps, n=st.selection.n,
            M=max(cfg.M_list), m=min(cfg.m_list), beta=cfg.beta, b=st.b,
            p=st.p, bp=st.bp, n_samples=cfg.gibbs_samples,
            orbit=(st.pool.points[:st.selection.n + 1, s],
                   st.pool.log_derivs[:st.selection.n, s]),
            rng=np.random.default_rng((st.rng_seed, int(s))))
        st.checks.append(_row("gibbs", f"seed={int(s)}", rep["leb_hat"],
                              rep["rhs"], rep["ok"], rep["ci"]))
    return st


def stage_entropy(st):
    cfg = st.cfg
    rep = st.entropy = entropy_formula_residual(
        st.f, st.mu, cfg.q_list, cfg.entropy_m, p=st.p,
        tol=cfg.tol_residual, rng=np.random.default_rng(st.seq_offset),
        bp=st.bp, exponent_proxy=st.exponent_proxy)
    rows = []
    for q, tab in rep["tables"].items():
        for m, H in zip(tab["m"], tab["H"]):
            rows.append(("H", q, m, H))
        rows.append(("slope", q, "", rep["slopes"][q]))
    rows += [("summary", key, "", rep[key]) for key in (
        "h_g_est", "int_phi_g", "h_f_est", "int_phi_f", "residual_f", "tol")]
    rows.append(("summary", "residual_ok", "", int(rep["residual_ok"])))
    rows.append(("summary", "exponent_ok", "", int(rep["exponent_positive"])))
    _write_csv(st.out / "entropy.csv", ("kind", "q", "m", "value"), rows)
    return st


def stage_checks(st):
    _write_csv(st.out / "checks.csv", CHECKS_HEADER, st.checks)
    st.verdict = compute_verdict(st.entropy["residual_ok"],
                                 st.entropy["exponent_positive"], st.checks)
    (st.out / "verdict.txt").write_text(st.verdict + "\n")
    return st


def compute_verdict(residual_ok, exponent_ok, checks):
    """The decision rule (entropy.ac_verdict) over the entropy summary's
    two flags and the checks.csv rows checks: AC-consistent iff both flags
    hold, every REQUIRED_CHECKS name has a row and all those rows pass."""
    required = [row for row in checks if row[0] in REQUIRED_CHECKS]
    req_ok = ({row[0] for row in required} == REQUIRED_CHECKS
              and all(row[-1] == 1 for row in required))
    return ac_verdict(residual_ok, exponent_ok, req_ok)


# the stage subcommands in stage order, each with the stages it adds to
# the one before it: a subcommand runs its own stages and all earlier ones
_COMMANDS = {
    "norms": ("map",), "branches": ("branches",), "tree": ("tree",),
    "times": ("times",), "measure": ("measure",),
    "pipeline": ("entropy", "checks"),
}


def _stages(command="pipeline"):
    """The stage functions command runs, in order, looked up at call time."""
    names = []
    for name, added in _COMMANDS.items():
        names += added
        if name == command:
            break
    return [globals()["stage_" + stage] for stage in names]


def run_pipeline(cfg, out_dir=None, rng_seed=None, jobs=1):
    """All stages in order; returns the final state.  A run has one
    thread: jobs stays only because the benchmark (perfbench/child.py and
    its tests) passes jobs=1, and any other value raises ValueError."""
    if jobs != 1:
        raise ValueError(f"jobs must be 1, got {jobs!r}")
    st = PipelineState(cfg, out_dir, rng_seed)
    for stage in _stages():
        stage(st)
    return st


# ---------------------------------------------------------------------------
# the verify suite (inequality batteries independent of a pipeline run)
# ---------------------------------------------------------------------------


def _enm_battery(n):
    """The E_n^{M,m} kernels on all 2^n subsets of [0, n), one boolean row
    each: (rows where trim_masks on one chain table per M differs from the
    brute-force enumeration, lemma violations, lemma instances)."""
    E = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)

    def mismatches(got, want):
        return int(np.count_nonzero(np.any(got != want, axis=1)))

    mism = viol = total = 0
    trims = {}
    for M in range(0, 5):
        want_clip, want = enm_bruteforce_rows(E, M, range(1, 5))
        clip, got = trim_masks(chain_table(E, M), n, range(1, 5))
        mism += mismatches(clip, want_clip)
        for m, T in got.items():
            trims[M, m] = T
            mism += mismatches(T, want[m])
    for _, rep in verify_enm_grid(E, n, trims):
        ok = (rep["i_boundary_subset"] & rep["iii_ok"] & rep["iv_ok"]
              & rep["monotone_in_M"])
        total += ok.size
        viol += int(np.count_nonzero(~ok))
    return mism, viol, total


def _branch_count_battery(quick):
    """The C(r', g) s^(-1/(r'-1)) + 1 branch-count bound on criterion 8's
    grid: (bound - count per instance, all within their bounds)."""
    margins, ok = [], True
    for p in range(1, 3 if quick else 5):
        g = power_map(make_map("logistic", smoothness_r=2.0), p)
        part = monotone_branches(g, grid_size=2 ** 14)
        norms = estimate_norms(g, grid_size=2 ** 14, refine_iters=2, n_used=2)
        for s in (0.5, 1.0, 2.0, 4.0):
            got, rep = count_branches_with_min_slope(g, s, part, norms)
            margins.append(rep["bound"] - got)
            ok &= rep["within_bound"]
    return margins, ok


def run_verify(out_dir, rng_seed=0, quick=False, timings=None):
    """Combinatorics, Misiurewicz, reparametrization-tree, Taylor-window
    and branch-count batteries; each is one _timed entry in timings, when
    given."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(rng_seed)
    rows = []
    timed = functools.partial(_timed, timings)

    # E_n^{M,m} calculus: exhaustive small-universe battery
    nbits = 8 if quick else 12
    mism, viol, total = timed("enm", _enm_battery, nbits)
    rows.append(_row("enm_oracle_equivalence", f"2^{nbits} sets", mism, 0,
                     mism == 0))
    rows.append(_row("enm_lemma", f"{total} instances", viol, 0, viol == 0))

    count = 200 if quick else 1000
    bad = timed("misiurewicz", misiurewicz_battery, rng, count)
    rows.append(_row("misiurewicz_random", f"{count} instances", bad, 0,
                     bad == 0))

    # the tree's certificate on a strongly expanding linear map
    f = make_map("doubling")
    eps = choose_epsilon(power_map(f, 7))
    tree = timed("tree_build", lambda: ReparamTree(
        f, 7, affine_reparam(0.37, 0.9 * eps), eps).build(1 if quick else 2))
    rep = timed("verify_tree", verify_tree, tree, rng=rng)
    rows += _tree_rows(rep, f"{rep['item2']['n_checked']} vertices")

    # the Taylor window that choose_epsilon's eps buys, on the g of
    # configs/doubling.ini and configs/logistic.ini
    reps = timed("taylor_window", lambda: [
        taylor_window_check(g, choose_epsilon(g)) for g in (
            power_map(make_map("doubling"), 4),
            power_map(make_map("logistic", smoothness_r=4.0), 6))])
    worst = float(np.min([r["worst_margin"] for r in reps]))
    rows.append(_row("taylor_window", "doubling^4 logistic^6", worst, 0.0,
                     all(r["ok"] for r in reps), upper=False))

    margins, ok = timed("branch_count", _branch_count_battery, quick)
    worst = float(np.min(margins))
    rows.append(_row("branch_count_bound", f"{len(margins)} instances", worst,
                     0.0, ok, upper=False))

    _write_csv(out / "checks.csv", CHECKS_HEADER, rows)
    return all(r[-1] == 1 for r in rows)


# ---------------------------------------------------------------------------
# argument parsing / entry point
# ---------------------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="acim1d",
        description="Numerical ACIM detection for one-dimensional maps")
    ap.add_argument("--config", type=Path, help="experiment config file")
    ap.add_argument("--rng-seed", type=int, default=None,
                    help="override the config rng seed")
    ap.add_argument("--out", type=Path, default=None,
                    help="override the output directory")
    ap.add_argument("--timings", type=Path, default=None,
                    help="write each stage's wall_s, cpu_s and ru_maxrss_mb "
                         "to this JSON file")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name)
    v = sub.add_parser("verify")
    v.add_argument("--quick", action="store_true")
    bp = sub.add_parser("bound")
    bp.add_argument("--log-sup", type=float, default=None)
    bp.add_argument("--log-r1", type=float, default=None)
    bp.add_argument("--delta", type=float, required=True)
    bp.add_argument("--c-r", type=float, default=1000.0)
    bp.add_argument("--variant", choices=("main", "analytic", "smooth"),
                    default="main")
    bp.add_argument("--norm-value", type=float, default=None,
                    help="||f'||_{C/delta} for the smooth variant")
    return ap


def _timed(timings, name, fn, *args, **kwargs):
    """fn(*args, **kwargs), appending the call's wall and CPU seconds and
    the peak RSS so far (MB) to timings under name; timings None times
    nothing"""
    if timings is None:
        return fn(*args, **kwargs)
    wall, cpu = time.perf_counter(), time.process_time()
    out = fn(*args, **kwargs)
    timings.append({
        "stage": name, "wall_s": time.perf_counter() - wall,
        "cpu_s": time.process_time() - cpu,
        "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0})
    return out


def _bound(args):
    """The bound subcommand's value; a bad input is a ConfigError."""
    try:
        if args.variant == "main":
            if args.log_sup is None:
                raise ConfigError("--log-sup required for the main bound")
            if args.log_r1 is None:
                raise ConfigError("--log-r1 required for the main bound")
            return bound_calculator(args.log_sup, args.log_r1, args.delta,
                                    args.c_r)
        if args.variant == "analytic":
            return bound_analytic(args.c_r, args.delta)
        if args.norm_value is None:
            raise ConfigError("--norm-value required for smooth")
        return bound_smooth(args.norm_value, args.c_r, args.delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None):
    args = _build_parser().parse_args(argv)
    timings = []        # one entry per stage run, written to --timings
    try:
        if args.command == "bound":
            print(_fmt(_bound(args)))
            return 0
        if args.command == "verify":
            out = args.out or Path("out")
            ok = run_verify(out, args.rng_seed or 0, args.quick, timings)
            print(f"verify: {'all pass' if ok else 'FAILURES'} "
                  f"(checks.csv in {out})")
            return 0 if ok else 1
        if args.config is None:
            raise ConfigError(f"{args.command} requires --config")
        cfg = load_config(args.config)
        st = PipelineState(cfg, args.out, args.rng_seed)
        for stage in _stages(args.command):
            _timed(timings, stage.__name__[len("stage_"):], stage, st)
        if args.command == "pipeline":
            print(f"verdict: {st.verdict}")
        print(f"wrote outputs to {st.out}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EmptySelection as exc:
        print(f"empty selection: {exc}", file=sys.stderr)
        return 3
    except TreeBudgetExceeded as exc:
        print(f"tree budget exceeded: {exc}", file=sys.stderr)
        return 4
    except Acim1dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.timings is not None:
            args.timings.write_text(json.dumps(timings, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
