"""Acceptance gate: the ten criteria, each printing one pass/fail line.

Pipelines run once per module through session fixtures; tolerances are
the stated ones, pinned here.  Every expected value is either trivial
arithmetic, verified against the source formulas, or produced by the
independent oracles defined alongside the tests.
"""

import csv
import math
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from acim1d.branches import count_branches_with_min_slope, monotone_branches
from acim1d.cli import main, run_pipeline
from acim1d.config import load_config
from acim1d.entropy import (
    C0_MANE, entropy_formula_residual, gibbs_check, misiurewicz_battery,
    verify_misiurewicz,
)
from acim1d.errors import EmptySelection
from acim1d.maps import estimate_norms, make_map, power_map
from acim1d.measures import EmpiricalMeasure, build_seed_pool, select_An
from acim1d.reparam import affine_reparam, choose_epsilon
from acim1d.times import (
    clip, clip_bruteforce, hyperbolic_surrogate_times, trim, trim_bruteforce,
    verify_enm, verify_hyperbolic,
)
from acim1d.tree import ReparamTree, distortion_suite, verify_tree

LOG2 = math.log(2.0)
REPO = Path(__file__).resolve().parents[1]


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def doubling_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_doubling")
    cfg = load_config(REPO / "configs" / "doubling.ini")
    t0 = time.time()
    st = run_pipeline(cfg, out_dir=out)
    return st, time.time() - t0


@pytest.fixture(scope="module")
def logistic_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_logistic")
    cfg = load_config(REPO / "configs" / "logistic.ini")
    t0 = time.time()
    st = run_pipeline(cfg, out_dir=out)
    return st, time.time() - t0


def _entropy_summary(out):
    vals = {}
    for row in csv.DictReader(open(out / "entropy.csv")):
        if row["kind"] == "summary":
            vals[row["q"]] = row["value"]
    return vals


def _checks(out):
    return {(r["check_name"], r["instance_id"]): r
            for r in csv.DictReader(open(out / "checks.csv"))}


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_combinatorics_exhaustive():
    t0 = time.time()
    n = 12
    mismatches = 0
    violations = 0
    for mask in range(1 << n):
        E = {i for i in range(n) if mask >> i & 1}
        for M in range(0, 5):
            if clip(E, n, M) != clip_bruteforce(E, n, M):
                mismatches += 1
            for m in range(1, 5):
                if trim(E, n, M, m) != trim_bruteforce(E, n, M, m):
                    mismatches += 1
        for M in range(0, 5):
            for Mp in range(M, 5):
                for m in range(1, 5):
                    rep = verify_enm(E, n, M, Mp, m)
                    if not (rep["i_boundary_subset"] and rep["iii_ok"]
                            and rep["iv_ok"]):
                        violations += 1
    elapsed = time.time() - t0
    _report(1, "combinatorics oracle equivalence",
            mismatches == 0 and violations == 0 and elapsed <= 120,
            f"mismatches={mismatches} violations={violations} "
            f"time={elapsed:.1f}s")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_distortion_suite():
    t0 = time.time()
    ratios_all = []

    f = make_map("doubling")
    eps = choose_epsilon(power_map(f, 7))
    tree = ReparamTree(f, 7, affine_reparam(0.37, 0.9 * eps), eps).build(2)
    r, ok1 = distortion_suite(tree)
    ratios_all.append(r)

    fp = make_map("perturbed_circle", d=5, delta=0.2, smoothness_r=3.0)
    epsp = choose_epsilon(power_map(fp, 3))
    treep = ReparamTree(fp, 3, affine_reparam(0.41, 0.9 * epsp), epsp,
                        level_budget=3 * 10 ** 5).build(2)
    rp, ok2 = distortion_suite(treep)
    ratios_all.append(rp)

    fl = make_map("logistic", smoothness_r=2.0)
    epsl = choose_epsilon(power_map(fl, 6))
    treel = ReparamTree(fl, 6, affine_reparam(0.3, 0.9 * epsl), epsl,
                        level_budget=10 ** 5).build(1)
    rl, ok3 = distortion_suite(treel)
    ratios_all.append(rl)

    total = sum(len(r) for r in ratios_all)
    worst = max(float(np.max(r)) for r in ratios_all)
    elapsed = time.time() - t0
    _report(2, "distortion suite",
            ok1 and ok2 and ok3 and total >= 10 ** 4
            and worst <= 1.5 + 1e-9 and elapsed <= 300,
            f"vertices={total} worst={worst:.9f} time={elapsed:.1f}s")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_hyperbolic_time_expansion():
    violations = 0
    checked = 0

    # stated case: 3^p >= 11 -> p = 3; surrogate times are dense and the
    # linear-map arithmetic makes every margin exactly (l-k)(log27-log10)
    f = make_map("linear_circle", d=3.0)
    p3 = 3
    g3 = power_map(f, p3)
    for x in (0.137, 0.41, 0.77):
        E = hyperbolic_surrogate_times(g3, x, 30)
        rep = verify_hyperbolic(g3, x, E, 30, 3, 2,
                                log_sup_gprime=p3 * math.log(3.0))
        checked += rep["n_times"]
        if not (rep["i_ok"] and rep["ii_ok"] and rep["iii_ok"]):
            violations += 1
        if abs(rep["i_margin"] - (math.log(27.0) - math.log(10.0))) > 1e-9:
            violations += 1
    assert checked > 0

    # tree detector at p = 3: no expanding vertex is certifiable at rate
    # 1/100 (see ledger), so the set is empty and the check passes vacuously
    eps3 = choose_epsilon(g3)
    tree3 = ReparamTree(f, p3, affine_reparam(0.37, 0.9 * eps3), eps3)
    E3 = tree3.walk_geometric_times(0.3702, 10)
    rep3 = verify_hyperbolic(g3, 0.3702, E3, 10, 3, 2,
                             log_sup_gprime=p3 * math.log(3.0))
    if not (rep3["i_ok"] and rep3["ii_ok"] and rep3["iii_ok"]):
        violations += 1

    # non-vacuous tree case at p = 5 (3^5 = 243)
    p5 = 5
    g5 = power_map(f, p5)
    eps5 = choose_epsilon(g5)
    tree5 = ReparamTree(f, p5, affine_reparam(0.37, 0.9 * eps5), eps5)
    x5 = 0.3704
    E5 = tree5.walk_geometric_times(x5, 24)
    rep5 = verify_hyperbolic(g5, x5, E5, 24, 3, 2,
                             log_sup_gprime=p5 * math.log(3.0))
    if not (len(E5) > 0 and rep5["i_ok"] and rep5["ii_ok"] and rep5["iii_ok"]):
        violations += 1
    _report(3, "hyperbolic-time expansion", violations == 0,
            f"surrogate_times={checked} tree_times_p5={len(E5)}")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_misiurewicz_and_mane():
    t0 = time.time()
    assert math.isclose(C0_MANE, 4.0 / (math.e * (1.0 - math.exp(-0.5))),
                        rel_tol=0)
    rng = np.random.default_rng(2026)
    violations = misiurewicz_battery(rng, 1000)

    # exhaustive 8-state family: the truncated 2-shift over all nonempty
    # F subset {0..5}, m in 1..4, and three measures
    T = [(2 * s) % 8 for s in range(8)]
    R = [s >> 2 for s in range(8)]
    lams = [
        [Fraction(1, 8)] * 8,
        [Fraction(v, 36) for v in (1, 2, 3, 4, 5, 6, 7, 8)],
        [Fraction(0)] * 3 + [Fraction(1)] + [Fraction(0)] * 4,
    ]
    for mask in range(1, 64):
        F = [k for k in range(6) if mask >> k & 1]
        for m in range(1, 5):
            for lam in lams:
                if not verify_misiurewicz(lam, T, R, F, m)["ok"]:
                    violations += 1

    # Mane/SETE inequality on random rational sequences, exact masses
    with mpmath.workdps(40):
        c0 = 4 / (mpmath.e * (1 - mpmath.exp(mpmath.mpf(-1) / 2)))
        for _ in range(200):
            ks = rng.integers(-12, 13, int(rng.integers(1, 9)))
            vs = [Fraction(int(v), 64) for v in rng.integers(0, 65, ks.size)]
            lhs = mpmath.mpf(0)
            rhs = c0
            for k, v in zip(ks.tolist(), vs):
                if v > 0:
                    pv = mpmath.mpf(v.numerator) / v.denominator
                    lhs -= pv * mpmath.log(pv)
                    rhs += abs(k) * pv
            if float(lhs - rhs) > 1e-12:
                violations += 1
    elapsed = time.time() - t0
    _report(4, "Misiurewicz + Mane suites",
            violations == 0 and elapsed <= 180,
            f"violations={violations} time={elapsed:.1f}s")


# -- criteria 5 and 6 --------------------------------------------------------


def test_criterion_5_doubling_end_to_end(doubling_run):
    st, elapsed = doubling_run
    out = st.out
    verdict = (out / "verdict.txt").read_text().strip()
    summary = _entropy_summary(out)
    checks = _checks(out)
    l1 = float(checks[("density_l1", "uniform")]["lhs"])
    h_f = float(summary["h_f_est"])
    n_atoms = st.mu.n_atoms
    lyap = st.lyapunov
    ok = (verdict == "AC-consistent" and l1 <= 0.05
          and abs(h_f - LOG2) <= 0.03 and n_atoms >= 10 ** 6
          and abs(lyap - LOG2) <= 1e-9 and elapsed <= 600)
    _report(5, "doubling end-to-end", ok,
            f"L1={l1:.4f} |h-log2|={abs(h_f - LOG2):.4f} atoms={n_atoms} "
            f"lyap_err={abs(lyap - LOG2):.2e} time={elapsed:.0f}s")


def test_criterion_6_logistic_end_to_end(logistic_run):
    st, elapsed = logistic_run
    out = st.out
    verdict = (out / "verdict.txt").read_text().strip()
    summary = _entropy_summary(out)
    checks = _checks(out)
    l1 = float(checks[("density_l1", "logistic")]["lhs"])
    residual = abs(float(summary["residual_f"]))
    n_atoms = st.mu.n_atoms
    ok = (verdict == "AC-consistent" and l1 <= 0.08 and residual <= 0.05
          and n_atoms >= 10 ** 6 and elapsed <= 1200)
    _report(6, "logistic end-to-end", ok,
            f"L1={l1:.4f} residual={residual:.4f} atoms={n_atoms} "
            f"time={elapsed:.0f}s")


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_gibbs_inequality():
    # exact linear case first: one full block of times on 9x mod 1
    p = 2
    f3 = make_map("linear_circle", d=3.0)
    g9 = power_map(f3, p)
    eps9 = choose_epsilon(g9)
    n = 8
    rep = gibbs_check(g9, 0.377, list(range(1, n + 1)), q=4, eps=eps9,
                      n=n, M=2, m=1, beta=0.3, b=0.9, p=p, n_samples=4000,
                      rng=np.random.default_rng(1))
    T = rep["T"]
    exact_phi = len(T) * p * math.log(3.0)
    linear_ok = (abs(rep["phi_E"] - exact_phi) < 1e-9 and rep["ok"]
                 and 9.0 ** -len(T) <= rep["rhs"])

    # 100 logistic^p instances with eps from choose_epsilon
    f = make_map("logistic", smoothness_r=4.0)
    p = 6
    g = power_map(f, p)
    eps = choose_epsilon(g)
    bp = monotone_branches(g, grid_size=2 ** 14)
    rng = np.random.default_rng(77)
    pool = build_seed_pool(f, p, 40, 400, rng)
    sel = select_An(pool, 40, 0.05, 0.45, p)
    picks = np.random.default_rng(3).choice(sel.indices, size=100,
                                            replace=len(sel.indices) < 100)
    passed = 0
    for s in picks:
        r = gibbs_check(g, float(pool.seeds[s]), pool.time_list(s), q=4,
                        eps=eps, n=40, M=3, m=2, beta=0.05, b=0.45, p=p,
                        bp=bp, n_samples=10000,
                        rng=np.random.default_rng(int(s)))
        passed += r["ok"]
    _report(7, "Gibbs inequality", linear_ok and passed >= 95,
            f"linear_exact={linear_ok} logistic_pass={passed}/100")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_branch_count_bound():
    f = make_map("logistic", smoothness_r=2.0)
    failures = []
    for p in (1, 2, 3, 4):
        g = power_map(f, p)
        part = monotone_branches(g, grid_size=2 ** 14)
        norms = estimate_norms(g, grid_size=2 ** 14, refine_iters=2, n_used=2)
        for s in (0.5, 1.0, 2.0, 4.0):
            count, rep = count_branches_with_min_slope(
                g, s, partition=part, norms=norms)
            if not rep["within_bound"]:
                failures.append((p, s, count, rep["bound"]))
    _report(8, "branch-count bound", not failures, f"failures={failures}")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_negative_controls(tmp_path):
    # (a) Dirac at a fixed point: residual = -log 3, verdict not-AC
    f = make_map("linear_circle", d=3.0)
    atoms = np.full(10 ** 4, 0.5)
    mu = EmpiricalMeasure(atoms=atoms, weights=np.full(10 ** 4, 1e-4),
                          meta={"p": 1})
    rep = entropy_formula_residual(f, mu, [2], [1, 2], p=1, tol=0.05)
    dirac_ok = (rep["verdict"] == "not-AC"
                and abs(rep["residual_f"] + math.log(3.0)) < 1e-6)

    # (b) slope-1 map: empty selection surfaced (CLI exit code 3)
    ini = tmp_path / "rot.ini"
    ini.write_text(
        "[map]\npreset = affine\nc0 = 0.37\nc1 = 1.0\ndomain = circle\n\n"
        "[run]\np = 1\ndelta = 0.05\nbeta = 0.2\nn = 10\nM = 2\nm = 1\n"
        "q = 2\nseeds = 200\nrng_seed = 7\ndetector = surrogate\n\n"
        f"[output]\ndir = {tmp_path / 'o'}\n")
    code = main(["--config", str(ini), "pipeline"])
    empty_ok = code == 3

    # (c) corrupted contraction rate fails the tree rate check
    fd = make_map("doubling")
    eps = choose_epsilon(power_map(fd, 7))
    tree = ReparamTree(fd, 7, affine_reparam(0.37, 0.9 * eps), eps).build(1)
    tree.levels[1][5].rho = 1.0 / 50.0
    vrep = verify_tree(tree, witness_samples=8, cert_sample=8)
    corrupt_ok = (not vrep["item2"]["ok"]) and (not vrep["ok"])

    _report(9, "negative controls", dirac_ok and empty_ok and corrupt_ok,
            f"dirac={dirac_ok} empty_selection={empty_ok} "
            f"corrupt_tree={corrupt_ok}")


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    ini = """\
[map]
preset = doubling
r = 2.0

[run]
p = 4
delta = 0.2
beta = 0.5
n = 8, 10
M = 1, 2
m = 1
q = 2
seeds = 2000
rng_seed = 314159
detector = surrogate
entropy_m = 1, 2, 3
bins = 100
reference = uniform

[output]
dir = {out}
"""
    outs = []
    for name in ("run1", "run2"):
        cfg_path = tmp_path / f"{name}.ini"
        cfg_path.write_text(ini.format(out=tmp_path / name))
        run_pipeline(load_config(cfg_path))
        outs.append(tmp_path / name)
    same = True
    for f in sorted(outs[0].iterdir()):
        if (outs[0] / f.name).read_bytes() != (outs[1] / f.name).read_bytes():
            same = False
    _report(10, "determinism", same,
            f"files={[f.name for f in sorted(outs[0].iterdir())]}")
