"""Config parsing, bound calculators, pipeline plumbing, exit codes."""

import copy
import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

import acim1d.cli as cli
import acim1d.entropy as entropy
import acim1d.measures as measures
import acim1d.times as times
import acim1d.tree as tree
from acim1d.cli import (
    bound_analytic, bound_calculator, bound_smooth,
    compute_verdict, main, reparam_count_constant, run_pipeline, run_verify,
)
from acim1d.config import ExperimentConfig, load_config
from acim1d.errors import ConfigError
from acim1d.maps import SmoothMap1D

DOUBLING_INI = """\
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
seeds = {seeds}
rng_seed = {seed}
detector = surrogate
entropy_m = 1, 2, 3
bins = 100
reference = uniform
tol_residual = 0.03
tol_l1 = 0.08

[output]
dir = {out}
"""

ROTATION_INI = """\
[map]
preset = affine
c0 = 0.37
c1 = 1.0
domain = circle

[run]
p = 1
delta = 0.05
beta = 0.2
n = 10
M = 2
m = 1
q = 2
seeds = 200
rng_seed = 7
detector = surrogate

[output]
dir = {out}
"""


def _write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_config_roundtrip(tmp_path):
    p = _write(tmp_path, DOUBLING_INI.format(seeds=100, seed=1,
                                             out=tmp_path / "o"))
    cfg = load_config(p)
    assert cfg.preset == "doubling"
    assert cfg.n_list == [8, 10] and cfg.M_list == [1, 2]
    assert cfg.p == 4 and cfg.detector == "surrogate"


def test_config_rejects_bad_values(tmp_path, capsys):
    bad = DOUBLING_INI.format(seeds=100, seed=1, out=tmp_path).replace(
        "delta = 0.2", "delta = -1")
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, bad))
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.ini")
    # b_r <= 0 under p = auto used to end in a math domain error
    for b_r in ("0", "-1", "nan"):
        p = _write(tmp_path, DOUBLING_INI.format(
            seeds=100, seed=1, out=tmp_path / "o").replace(
                "p = 4", f"p = auto\nb_r = {b_r}"))
        with pytest.raises(ConfigError, match="b_r"):
            load_config(p)
        assert main(["--config", str(p), "pipeline"]) == 2
        assert "config error" in capsys.readouterr().err
    # non-finite values used to end in an OverflowError traceback (r = inf,
    # b_r = inf under p = auto) or in an empty selection with b = nan
    # (exit 3), as did any beta >= 1, which d_n <= 1 never exceeds; a
    # tolerance of inf or nan used to pass its row whatever the value
    text = DOUBLING_INI.format(seeds=100, seed=1, out=tmp_path / "o")
    tols = [(f"{key} = {was}", f"{key} = {bad}", key)
            for key, was in (("tol_residual", "0.03"), ("tol_l1", "0.08"))
            for bad in ("inf", "nan", "0", "-1")]
    for old, new, key in tols + [
            ("r = 2.0", "r = inf", "r"), ("r = 2.0", "r = nan", "r"),
            ("r = 2.0", "r = 1.0", "r"),
            ("p = 4", "p = auto\nb_r = inf", "b_r"),
            ("delta = 0.2", "delta = inf", "delta"),
            ("delta = 0.2", "delta = nan", "delta"),
            ("beta = 0.5", "beta = nan", "beta"),
            ("beta = 0.5", "beta = 1.5", "beta"),
            ("beta = 0.5", "beta = 1.0", "beta"),
            ("beta = 0.5", "beta = 0", "beta")]:
        assert old in text
        p = _write(tmp_path, text.replace(old, new))
        with pytest.raises(ConfigError, match=f"^{key} "):
            load_config(p)
        assert main(["--config", str(p), "pipeline"]) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("seeds = 100", "seeds = 0"), ("seeds = 100", "seeds = -5"),
    ("n = 8, 10", "n = 0, 10"), ("M = 1, 2", "M = -1, 2"),
    ("m = 1\n", "m = 0\n"), ("q = 2", "q = 0"),
    ("entropy_m = 1, 2, 3", "entropy_m = 0, 1"), ("bins = 100", "bins = 5"),
    ("bins = 100", "bins = 100\ngibbs_instances = -1"),
    ("bins = 100", "bins = 100\ngibbs_instances = 2\ngibbs_samples = 0"),
    ("bins = 100", "bins = 100\ntree_levels = -3"),
    ("bins = 100", "bins = 100\ntree_levels = 0"),
    ("bins = 100", "bins = 100\ntree_budget = -5")])
def test_config_rejects_out_of_range_integers(tmp_path, capsys, old, new):
    # each used to end in a traceback, NaN rows or a misleading exit code
    text = DOUBLING_INI.format(seeds=100, seed=1, out=tmp_path / "o")
    assert old in text
    p = _write(tmp_path, text.replace(old, new))
    with pytest.raises(ConfigError):
        load_config(p)
    assert main(["--config", str(p), "pipeline"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("section, line", [
    ("run", "tol_L1 = 0.05"), ("map", "alpha = 2.0"),
    ("output", "directory = o"), ("outputs", "dir = o"),
    ("run", "c_r = 10")])
def test_config_rejects_unknown_keys_and_sections(tmp_path, section, line):
    # a misspelt key would otherwise leave its default in force silently
    text = DOUBLING_INI.format(seeds=100, seed=1, out=tmp_path / "o")
    if f"[{section}]" in text:
        text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
    else:
        text += f"\n[{section}]\n{line}\n"
    with pytest.raises(ConfigError, match=f"\\[{section}\\]") as exc:
        load_config(_write(tmp_path, text))
    if section != "outputs":
        assert repr(line.split(" =")[0]) in str(exc.value)


def test_p_auto_formula():
    cfg = ExperimentConfig(
        preset="doubling", map_params={}, r=2.0, p="auto", delta=0.5,
        beta=0.1, n_list=[8], M_list=[1], m_list=[1], q_list=[2], seeds=10,
        rng_seed=0, detector="surrogate", output_dir=Path("o"))
    # p = ceil((4/delta) log(2 B_r log||f'|| / delta))
    expected = math.ceil((4 / 0.5) * math.log(2 * 1.0 * math.log(2.0) / 0.5))
    assert cfg.resolve_p(math.log(2.0)) == expected


def test_bound_calculator_examples():
    assert bound_calculator(1.0, 1.0, 1.0, 1.0) == 1.0
    # exponent uses log||f'||_{r-1}: with both logs = 2 the bound is 2^2
    assert bound_calculator(2.0, 2.0, 1.0, 1.0) == 4.0
    v = bound_calculator(math.log(4.0), math.log(8.0), 0.5, 10.0)
    assert v == (math.log(4.0) / 0.5) ** (10.0 * math.log(8.0) / 0.5)
    with pytest.raises(ValueError):
        bound_calculator(0.0, 1.0, 1.0, 1.0)


def test_bound_variants():
    assert bound_analytic(2.0, 0.5) == 2.0 ** 16
    assert bound_smooth(3.0, 2.0, 1.0) == 9.0
    assert reparam_count_constant(2.0) == 16.0


def _summary(out):
    """entropy.csv's summary rows, quantity -> value text"""
    with open(out / "entropy.csv", newline="") as fh:
        return {r["q"]: r["value"] for r in csv.DictReader(fh)
                if r["kind"] == "summary"}


def _verdict_of_files(out):
    """compute_verdict over the flags and rows parsed back from entropy.csv
    and checks.csv"""
    summary = _summary(out)
    with open(out / "checks.csv", newline="") as fh:
        rows = [(*r[:-1], int(r[-1])) for r in list(csv.reader(fh))[1:]]
    return compute_verdict(summary.get("residual_ok") == "1",
                           summary.get("exponent_ok") == "1", rows)


def _verdict_txt(out):
    return (out / "verdict.txt").read_text().strip()


def test_pipeline_energy_files_and_verdict(tmp_path):
    p = _write(tmp_path, DOUBLING_INI.format(seeds=3000, seed=11,
                                             out=tmp_path / "o"))
    cfg = load_config(p)
    st = run_pipeline(cfg)
    out = st.out
    for name in ("norms.csv", "branches.csv", "times.csv", "density.csv",
                 "measure.csv", "entropy.csv", "checks.csv", "verdict.txt",
                 "hist.csv", "betas.csv"):
        assert (out / name).exists(), name
    assert (out / "verdict.txt").read_text().strip() == "AC-consistent"
    # verdict is a pure function of the two files
    assert _verdict_of_files(out) == "AC-consistent" == _verdict_txt(out)
    assert st.verdict == "AC-consistent"


def test_rng_seed_override_leaves_config_alone(tmp_path):
    cfg = load_config(_write(tmp_path, DOUBLING_INI.format(
        seeds=1500, seed=3, out=tmp_path / "o")))
    before = copy.deepcopy(cfg)
    run_pipeline(cfg, out_dir=tmp_path / "override", rng_seed=11)
    assert cfg == before
    run_pipeline(load_config(_write(tmp_path, DOUBLING_INI.format(
        seeds=1500, seed=11, out=tmp_path / "config"), "seed11.ini")))
    names = sorted(f.name for f in (tmp_path / "config").iterdir())
    assert names == sorted(f.name for f in (tmp_path / "override").iterdir())
    for name in names:
        assert (tmp_path / "override" / name).read_bytes() == \
            (tmp_path / "config" / name).read_bytes(), name


def test_verdict_flips_on_failed_check(tmp_path):
    p = _write(tmp_path, DOUBLING_INI.format(seeds=1500, seed=3,
                                             out=tmp_path / "o"))
    st = run_pipeline(load_config(p))
    assert _verdict_of_files(st.out) == _verdict_txt(st.out)
    rows = list(csv.reader(open(st.out / "checks.csv")))
    for row in rows[1:]:
        if row[0] == "mane_sete":
            row[7] = "0"
    with open(st.out / "checks.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert _verdict_of_files(st.out) == "not-AC"


def test_verdict_fails_closed_on_missing_required_row(tmp_path):
    p = _write(tmp_path, DOUBLING_INI.format(seeds=1500, seed=3,
                                             out=tmp_path / "o"))
    st = run_pipeline(load_config(p))
    rows = list(csv.reader(open(st.out / "checks.csv")))
    assert _verdict_of_files(st.out) == "AC-consistent" == \
        _verdict_txt(st.out)
    for name in ("invariance_defect", "mane_sete", "mane_hq"):
        kept = [row for row in rows if row[0] != name]
        with open(st.out / "checks.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(kept)
        assert _verdict_of_files(st.out) == "not-AC", name


def test_compute_verdict_over_rows_in_memory():
    rows = [cli._row(name, "i", 1.0, 2.0, 1.0, True)
            for name in sorted(cli.REQUIRED_CHECKS)]
    failed = cli._row("gibbs", "seed=1", 3.0, 2.0, -1.0, False)
    assert compute_verdict(True, True, rows + [failed]) == "AC-consistent"
    assert compute_verdict(True, False, rows) == "not-AC"
    assert compute_verdict(False, True, rows) == "not-AC"
    # a second row of a required name counts too, and so does a NaN value
    nan_row = cli._row("mane_hq", "j", math.nan, 2.0, math.nan, True)
    assert compute_verdict(True, True, rows + [nan_row]) == "not-AC"
    assert compute_verdict(True, True, rows[1:]) == "not-AC"


# (cli binding, the report flag set False, the checks.csv row or entropy.csv
# summary row that shows it); undisturbed, this run reads AC-consistent
VERDICT_DEFECTS = {
    "invariance": ("invariance_defect", "ok", "invariance_defect"),
    "mane_sete": ("verify_mane_bounds", "sete_ok", "mane_sete"),
    "mane_hq": ("verify_mane_bounds", "hq_ok", "mane_hq"),
    "residual": ("entropy_formula_residual", "residual_ok", "residual_ok"),
    "exponent": ("entropy_formula_residual", "exponent_positive",
                 "exponent_ok"),
}


@pytest.mark.parametrize("name", sorted(VERDICT_DEFECTS))
def test_verdict_flips_on_each_input(name, tmp_path, monkeypatch, capsys):
    attr, flag, shown = VERDICT_DEFECTS[name]
    real = getattr(cli, attr)

    def defect(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep[flag] = False
        return rep

    monkeypatch.setattr(cli, attr, defect)
    out = tmp_path / "o"
    p = _write(tmp_path, DOUBLING_INI.format(seeds=1500, seed=3, out=out))
    assert main(["--config", str(p), "pipeline"]) == 0
    assert _verdict_txt(out) == "not-AC"
    assert "verdict: not-AC\n" in capsys.readouterr().out
    if attr == "entropy_formula_residual":
        assert _summary(out)[shown] == "0"
    else:
        assert _check_rows(out)[shown][-1] == "0"


def test_pipeline_row_fails_closed_on_nan_value(tmp_path, monkeypatch):
    # a NaN gap is not flagged as zero (NaN <= 1e-12 is False), so only the
    # row builder's NaN rule keeps the row from passing
    def nan_gap(*args, **kwargs):
        return {"gap": math.nan, "flagged_zero": False}

    monkeypatch.setattr(cli, "support_gap_from_critical", nan_gap)
    p = _write(tmp_path, DOUBLING_INI.format(seeds=300, seed=3,
                                             out=tmp_path / "o"))
    st = cli.PipelineState(load_config(p))
    for stage in cli._stages("measure"):
        stage(st)
    rows = {row[0]: row for row in st.checks}
    assert math.isnan(rows["support_gap"][2])
    assert rows["support_gap"][-1] == 0
    assert rows["invariance_defect"][-1] == 1


def test_nan_atom_inside_a_run_fails_the_invariance_row(tmp_path,
                                                        monkeypatch):
    # the telescoped defect never evaluates a probe at an atom inside a
    # run; a NaN there still makes the row fail and the verdict not-AC
    real = cli.invariance_defect

    def nan_inside(mu, g):
        atoms = mu.atoms.copy()
        atoms[1] = math.nan             # between atoms 0 and 2 of its run
        assert mu.seed_idx[0] == mu.seed_idx[2]
        assert mu.time_idx[2] - mu.time_idx[0] == 2
        return real(dataclasses.replace(mu, atoms=atoms), g)

    monkeypatch.setattr(cli, "invariance_defect", nan_inside)
    p = _write(tmp_path, DOUBLING_INI.format(seeds=300, seed=3,
                                             out=tmp_path / "o"))
    st = cli.PipelineState(load_config(p))
    for stage in cli._stages("measure"):
        stage(st)
    rows = {row[0]: row for row in st.checks}
    assert math.isnan(rows["invariance_defect"][2])
    assert rows["invariance_defect"][-1] == 0
    assert compute_verdict(True, True, st.checks) == "not-AC"


def test_pipeline_time_tables_match_set_oracles(tmp_path):
    # density.csv, betas.csv and per-seed atom counts recomputed from the
    # pool's per-seed lists with the set-based oracles
    from acim1d.times import density, trim

    p = _write(tmp_path, DOUBLING_INI.format(seeds=1500, seed=5,
                                             out=tmp_path / "o"))
    st = run_pipeline(load_config(p))
    cfg, pool = st.cfg, st.pool
    lists = [pool.time_list(s) for s in range(pool.n_seeds)]
    M_fin, m_fin = max(cfg.M_list), min(cfg.m_list)
    dens = list(csv.reader(open(st.out / "density.csv")))[1:]
    assert len(dens) == max(cfg.n_list)
    for row in dens:
        n = int(row[0])
        assert float(row[1]) == float(np.mean([density(E, n) for E in lists]))
        assert float(row[2]) == float(np.mean(
            [len(trim(E, n, M_fin, m_fin)) / n for E in lists]))
    sel = st.selection.indices
    for n, M, m, v in list(csv.reader(open(st.out / "betas.csv")))[1:]:
        n, M, m = int(n), int(M), int(m)
        want = float(np.mean([len(trim(lists[s], n, M, m))
                              for s in sel])) / n
        assert float(v) == want
    counts = [len(trim(lists[s], max(cfg.n_list), M_fin, m_fin)) for s in sel]
    assert st.mu.per_seed_counts.tolist() == counts
    assert st.mu.n_atoms == sum(counts)


def test_stage_times_counts_every_horizon_in_one_pass(tmp_path, monkeypatch):
    # density.csv comes from one chain table and one trim_counts read, not
    # one trim per n; every trim_mask goes through times.trim_masks
    calls = {"chain_table": 0, "trim_counts": 0, "trim_masks": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((cli, "chain_table"), (cli, "trim_counts"),
                         (times, "trim_masks")):
        counted(module, name)
    p = _write(tmp_path, DOUBLING_INI.format(seeds=300, seed=3,
                                             out=tmp_path / "o"))
    st = cli.PipelineState(load_config(p))
    for stage in cli._stages("times"):
        stage(st)
    assert calls == {"chain_table": 1, "trim_counts": 1, "trim_masks": 0}
    assert len((st.out / "density.csv").read_text().splitlines()) == 11


def test_stage_measure_counts_each_M_m_once(tmp_path, monkeypatch):
    # betas.csv reads every n off one trim_counts read per (M, m) of one
    # chain table per M; empirical_measure's one trim reads the table at
    # max M, and no module builds another
    calls = {"chain_table": 0, "trim_counts": 0, "trim_masks": 0}

    def counted(name):
        real = getattr(times, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        for module in (cli, measures, times):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)

    p = _write(tmp_path, DOUBLING_INI.format(seeds=300, seed=3,
                                             out=tmp_path / "o").replace(
        "m = 1\n", "m = 1, 2\n"))
    st = cli.PipelineState(load_config(p))
    for stage in cli._stages("times"):
        stage(st)
    for name in calls:
        counted(name)
    cli.stage_measure(st)
    assert calls == {"chain_table": len(st.cfg.M_list), "trim_counts": 4,
                     "trim_masks": 1}
    assert len((st.out / "betas.csv").read_text().splitlines()) == 1 + 8


@pytest.mark.parametrize("name", ["doubling_small", "logistic_small"])
def test_measure_and_entropy_evaluate_no_map_on_the_atoms(name, tmp_path,
                                                          monkeypatch):
    # log|g'| along the atoms is gathered from the pool, never recomputed
    from test_golden import _config

    cfg = _config(name, tmp_path)
    cfg.gibbs_instances = 0
    st = cli.PipelineState(cfg, out_dir=tmp_path / "o")
    for stage in cli._stages("times"):
        stage(st)
    sizes = []
    real = SmoothMap1D.log_abs_deriv

    def counted(self, x):
        sizes.append(np.size(x))
        return real(self, x)

    monkeypatch.setattr(SmoothMap1D, "log_abs_deriv", counted)
    cli.stage_measure(st)
    cli.stage_entropy(st)
    assert st.mu.n_atoms >= 10 ** 4
    assert all(size < st.mu.n_atoms for size in sizes), sizes


def test_run_pipeline_accepts_only_one_job(tmp_path):
    cfg = load_config(_write(tmp_path, DOUBLING_INI.format(
        seeds=100, seed=1, out=tmp_path / "o")))
    with pytest.raises(ValueError, match="jobs"):
        run_pipeline(cfg, jobs=2)
    assert not (tmp_path / "o").exists()


def test_array_writers_match_csv_writer_bytes(tmp_path):
    # the rows the csv.writer path took: (atom, weight) pairs and, per
    # seed, (x, ";"-joined raw times), formatted by _fmt
    vals = np.array([0.1, -0.0, 0.0, 5e-324, 1e300, -1e300, float("nan"),
                     float("inf"), -float("inf"), 1.0 / 3.0, 2.0 ** 53, 1.0])
    rng = np.random.default_rng(4)
    weights = rng.permutation(vals)
    mask = rng.random((vals.size, 7)) < 0.4
    mask[0] = False
    mask[1] = True
    old_times = [(float(x), ";".join(map(str, np.flatnonzero(row).tolist())))
                 for x, row in zip(vals, mask)]
    no_times = np.zeros((vals.size, 0), dtype=bool)
    # _measure_body formats each distinct weight once: a constant and two
    # two-valued weight arrays, one of them -0.0 and 0.0, which compare
    # equal but print apart
    weight_sets = [weights, np.full(vals.size, 5e-324),
                   np.resize([-0.0, float("nan"), float("nan")], vals.size),
                   np.resize([0.0, -0.0, -0.0], vals.size)]
    for w in weight_sets:
        assert cli._measure_body(vals, w) == "".join(map(
            "{:.17g},{:.17g}\r\n".format, vals.tolist(), w.tolist()))
    cases = [
        (("point", "weight"), list(zip(vals.tolist(), w.tolist())),
         cli._measure_body, (vals, w)) for w in weight_sets
    ] + [
        (("x", "times"), old_times, cli._times_body, (vals, mask)),
        (("x", "times"), [], cli._times_body, (vals[:0], mask[:0])),
        (("x", "times"), [(x, "") for x in vals.tolist()], cli._times_body,
         (vals, no_times)),
    ]
    for header, rows, text_of, cols in cases:
        cli._write_csv(tmp_path / "old.csv", header, rows)
        want = (tmp_path / "old.csv").read_bytes()
        for size in (1, 5, 1 << 16):
            cli._write_csv(tmp_path / "new.csv", header,
                           chunks=cli._chunks(text_of, *cols, size=size))
            assert (tmp_path / "new.csv").read_bytes() == want


# floats for the .17g formatter: any bit pattern (NaN, ±inf, ±0 and
# subnormals included), uniform [0, 1), dyadic K / 2^B (exact ties among
# them), the float neighbours of 10^-k and the largest double below 1
_TENTHS = [float(v) for k in range(1, 31) for v in np.nextafter(
    10.0 ** -k, [0.0, 10.0 ** -k, 1.0])]
_FLOATS = hs.one_of(
    hs.integers(0, 2 ** 64 - 1).map(
        lambda b: float(np.array(b, np.uint64).view(float))),
    hs.floats(0.0, 1.0, exclude_max=True),
    hs.integers(1, 60).flatmap(lambda B: hs.integers(0, 2 ** B - 1).map(
        lambda K: K / 2.0 ** B)),
    hs.sampled_from(_TENTHS), hs.just(1.0 - 2.0 ** -53))


def _g17_texts(x):
    slots, kept, fallback = cli._g17(np.array(x, dtype=float))
    return [s[k].tobytes().decode() for s, k in zip(slots, kept)], fallback


@given(hs.lists(_FLOATS, min_size=1, max_size=40),
       hs.lists(_FLOATS, min_size=1, max_size=3),
       hs.sampled_from([1, 5, 8192]), hs.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_g17_matches_format(values, weight_values, size, seed):
    texts, _ = _g17_texts(values)
    assert texts == [format(v, ".17g") for v in values]
    x = np.array(values)
    rng = np.random.default_rng(seed)
    w = rng.choice(weight_values, x.size)
    assert "".join(cli._chunks(cli._measure_body, x, w, size=size)) == \
        "".join(map("{:.17g},{:.17g}\r\n".format, values, w.tolist()))
    mask = rng.random((x.size, int(rng.integers(0, 120)))) < rng.random()
    assert "".join(cli._chunks(cli._times_body, x, mask, size=size)) == \
        "".join("{:.17g},{}\r\n".format(v, ";".join(map(str, np.flatnonzero(
            row).tolist()))) for v, row in zip(values, mask))


def test_g17_fast_path_coverage(tmp_path):
    # the fallback to format() is for the few rows the array path cannot
    # settle: none of 10^4 uniform [0, 1) values ...
    x = np.random.default_rng(0).random(10 ** 4)
    texts, fallback = _g17_texts(x)
    assert texts == [format(v, ".17g") for v in x.tolist()]
    assert not fallback.any()
    # ... but every exact tie: K / 2^(18 + j) with K odd has 18 + j decimals
    # and, in [10^-j-1, 10^-j), its 18th significant digit is a final 5
    ties = np.concatenate([
        np.arange(26215, 2 ** 18, 2 ** 9 + 2) / 2.0 ** 18,      # j = 0
        np.arange(5243, 52429, 2 ** 8 + 2) / 2.0 ** 19])         # j = 1
    texts, fallback = _g17_texts(ties)
    assert texts == [format(v, ".17g") for v in ties.tolist()]
    assert fallback.all()
    # the neighbours of 10^-k, where log10 rounds across a power of ten,
    # take the array path too, with the exponent moved by one
    assert _g17_texts(_TENTHS + [0.5, 1e-280, 1.0 - 2.0 ** -53])[1].sum() == 0
    assert _g17_texts([0.0, -0.0, 5e-324, 1e-281, 1.0, float("nan"),
                       float("inf"), -float("inf")])[1].all()
    # on a pipeline's measure.csv, at least 98% of the rows take the
    # array path (about 1% of doubling's dyadic atoms are exact ties)
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs"
                      / "doubling_small.ini")
    st = cli.PipelineState(cfg, out_dir=tmp_path)
    for stage in cli._stages("measure"):
        stage(st)
    _, _, fallback = cli._g17(st.mu.atoms)
    assert fallback.size == 40000 and fallback.mean() <= 0.02


def test_cli_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[map]\npreset = nosuchmap\n\n[run]\nn = 5\n")
    code = main(["--config", str(bad), "pipeline"])
    assert code == 2


def test_cli_exit_code_empty_selection(tmp_path, capsys):
    p = _write(tmp_path, ROTATION_INI.format(out=tmp_path / "o"))
    code = main(["--config", str(p), "pipeline"])
    assert code == 3
    assert "empty selection" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_exit_code_nan_map_norm(tmp_path, capsys):
    # sqrt's jet is infinite at the grid point 0, so 0*inf makes sup|f'|
    # NaN; it used to reach choose_epsilon as math.floor(nan), a traceback
    p = _write(tmp_path, "[map]\npreset = expr\n"
               "expression = mod1(x + 2*x*sqrt(x))\ndomain = circle\n"
               "r = 1.4\n\n[run]\np = 4\nseeds = 200\nn = 10\n\n"
               f"[output]\ndir = {tmp_path / 'o'}\n")
    assert main(["--config", str(p), "pipeline"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "NaN estimate of sup_abs_deriv[1]" in err
    assert not (tmp_path / "o" / "norms.csv").exists()


def test_cli_exit_code_unsupported_expression(tmp_path, capsys):
    # jets take only nonnegative integer powers; x**1.5 used to pass
    # stage_map and fail at the map's first jet, a traceback with exit 1
    p = _write(tmp_path, "[map]\npreset = expr\n"
               "expression = mod1(x + x**1.5)\ndomain = circle\n"
               "r = 1.4\n\n[run]\np = 4\nseeds = 200\nn = 10\n\n"
               f"[output]\ndir = {tmp_path / 'o'}\n")
    assert main(["--config", str(p), "pipeline"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: map construction failed: ")
    assert "integer" in err
    assert not (tmp_path / "o" / "norms.csv").exists()


def test_cli_exit_code_budget(tmp_path, capsys):
    ini = DOUBLING_INI.format(seeds=100, seed=1, out=tmp_path / "o").replace(
        "p = 4", "p = 7").replace(
        "detector = surrogate", "detector = both\ntree_levels = 2\n"
        "tree_budget = 500")
    code = main(["--config", str(_write(tmp_path, ini)), "pipeline"])
    assert code == 4


def test_cli_norms_subcommand(tmp_path, capsys):
    p = _write(tmp_path, DOUBLING_INI.format(seeds=100, seed=1,
                                             out=tmp_path / "o"))
    code = main(["--config", str(p), "norms"])
    assert code == 0
    rows = {(r[0], r[1]): r[2] for r in
            list(csv.reader(open(tmp_path / "o" / "norms.csv")))[1:]}
    assert float(rows[("f", "1")]) == 2.0
    assert abs(float(rows[("f", "R_estimate")]) - math.log(2.0)) < 1e-12
    assert not (tmp_path / "o" / "times.csv").exists()
    # a subcommand runs the stages up to its own and no further
    assert main(["--config", str(p), "times"]) == 0
    assert (tmp_path / "o" / "density.csv").exists()
    assert not (tmp_path / "o" / "measure.csv").exists()
    # the entropy and checks stages run only under pipeline
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(p), "entropy"])
    assert exc.value.code == 2


def test_cli_bound_subcommand(capsys):
    code = main(["bound", "--log-sup", "1.0", "--log-r1", "1.0",
                 "--delta", "1.0", "--c-r", "1.0"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "1"


@pytest.mark.parametrize("args", [
    # each used to end in a traceback, or to print nan and exit 0
    ["--log-sup", "1", "--log-r1", "1", "--delta", "-1"],
    ["--variant", "analytic", "--log-sup", "1", "--delta", "0"],
    ["--log-sup", "nan", "--log-r1", "1", "--delta", "1"],
    ["--log-sup", "1", "--log-r1", "1", "--delta", "1", "--c-r", "nan"],
    ["--log-sup", "1", "--log-r1", "inf", "--delta", "1"],
    ["--variant", "smooth", "--log-sup", "1", "--delta", "0.5",
     "--norm-value", "-2"],
    ["--variant", "smooth", "--log-sup", "1", "--delta", "0.5"]])
def test_cli_bound_rejects_bad_inputs(args, capsys):
    assert main(["bound", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and not captured.out


def test_cli_bound_asks_for_log_sup_only_in_the_main_variant(capsys):
    # analytic and smooth never read --log-sup; main without it is a
    # config error, like main without --log-r1
    assert main(["bound", "--variant", "analytic", "--delta", "0.5",
                 "--c-r", "2"]) == 0
    assert capsys.readouterr().out.strip() == "65536"
    assert main(["bound", "--variant", "smooth", "--delta", "1",
                 "--c-r", "2", "--norm-value", "3"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert main(["bound", "--log-r1", "1", "--delta", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and not captured.out
    assert "--log-sup" in captured.err


def test_cli_bound_prints_inf_past_the_float_range(capsys):
    # (1.386 / 0.5)^(1000 * 2.079 / 0.5) exceeds the largest double
    assert main(["bound", "--log-sup", "1.386", "--log-r1", "2.079",
                 "--delta", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "inf"
    assert bound_analytic(2.0, 1e-100) == math.inf
    assert bound_smooth(3.0, 2.0, 1e200) == 1.0


def test_timings_flag_leaves_the_outputs_alone(tmp_path, capsys):
    # --timings writes one entry per stage run, in stage order, to its own
    # path; every file of the output directory is the same without it
    p = _write(tmp_path, DOUBLING_INI.format(seeds=1500, seed=4,
                                             out=tmp_path / "o"))
    plain, timed = tmp_path / "plain", tmp_path / "timed"
    path = tmp_path / "timings.json"
    assert main(["--config", str(p), "--out", str(plain), "pipeline"]) == 0
    assert not path.exists()
    assert main(["--config", str(p), "--out", str(timed), "--timings",
                 str(path), "pipeline"]) == 0
    names = sorted(f.name for f in plain.iterdir())
    assert names == sorted(f.name for f in timed.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (timed / name).read_bytes()
    entries = json.loads(path.read_text())
    assert [e["stage"] for e in entries] == [
        "map", "branches", "tree", "times", "measure", "entropy", "checks"]
    for e in entries:
        assert e["wall_s"] >= 0 and e["cpu_s"] >= 0 and e["ru_maxrss_mb"] > 0
    # verify writes one entry per battery, and the same checks.csv as
    # run_verify without a timings list
    assert main(["--out", str(tmp_path / "v"), "--timings", str(path),
                 "verify", "--quick"]) == 0
    entries = json.loads(path.read_text())
    assert [e["stage"] for e in entries] == [
        "enm", "misiurewicz", "tree_build", "verify_tree", "taylor_window",
        "branch_count"]
    for e in entries:
        assert e["wall_s"] >= 0 and e["cpu_s"] >= 0 and e["ru_maxrss_mb"] > 0
    assert run_verify(tmp_path / "u", rng_seed=0, quick=True)
    assert (tmp_path / "u" / "checks.csv").read_bytes() == (
        tmp_path / "v" / "checks.csv").read_bytes()


def _check_rows(out):
    return {r[0]: r for r in list(csv.reader(open(out / "checks.csv")))[1:]}


def test_cli_verify_subcommand(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "--rng-seed", "5", "verify",
                 "--quick"])
    assert code == 0
    rows = _check_rows(tmp_path)
    assert list(rows)[:4] == ["enm_oracle_equivalence", "enm_lemma",
                              "misiurewicz_random", "tree_distortion"]
    assert {"tree_item1", "tree_item6", "tree_eps_bound", "taylor_window",
            "branch_count_bound"} <= set(rows)
    assert all(row[-1] == "1" for row in rows.values())
    # a row whose value could not be evaluated fails, whatever its item says
    from acim1d.tree import verify_tree
    rep = verify_tree(_doubling_tree(1), witness_samples=8, cert_sample=8)
    rep["item3"]["worst_margin"] = float("nan")
    rep["item4"]["pass_rate_per_level"] = []
    rows = {r[0]: r for r in cli._tree_rows(rep, "all")}
    assert rep["item3"]["ok"] and rep["item4"]["ok"]
    assert rows["tree_item3"][-1] == rows["tree_item4"][-1] == 0
    assert rows["tree_item2"][-1] == 1


def test_run_verify_quick_counts_match_per_set_loop(tmp_path):
    from acim1d.times import (
        clip, clip_bruteforce, trim, trim_bruteforce, verify_enm,
    )

    assert run_verify(tmp_path, quick=True)
    n = 8
    mism = viol = total = 0
    for bits in range(1 << n):
        E = {i for i in range(n) if bits >> i & 1}
        for M in range(5):
            mism += clip(E, n, M) != clip_bruteforce(E, n, M)
            for m in range(1, 5):
                mism += trim(E, n, M, m) != trim_bruteforce(E, n, M, m)
            for Mp in range(M, 5):
                for m in range(1, 5):
                    rep = verify_enm(E, n, M, Mp, m)
                    total += 1
                    viol += not (rep["i_boundary_subset"] and rep["iii_ok"]
                                 and rep["iv_ok"] and rep["monotone_in_M"])
    rows = _check_rows(tmp_path)
    assert rows["enm_oracle_equivalence"][1:3] == [f"2^{n} sets", str(mism)]
    assert rows["enm_lemma"][1:3] == [f"{total} instances", str(viol)]


def test_verify_fails_closed_on_wrong_trim_kernel(tmp_path, monkeypatch,
                                                  capsys):
    from acim1d.times import components

    real = cli.trim_masks

    def drop_first_component(table, n, ms):
        clip, trims = real(table, n, ms)
        for T in trims.values():
            hit = np.flatnonzero(T.any(axis=1))
            if hit.size:
                k, l = components(np.flatnonzero(T[hit[0]]).tolist())[0]
                T[hit[0], k:l] = False
        return clip, trims

    monkeypatch.setattr(cli, "trim_masks", drop_first_component)
    assert not run_verify(tmp_path, quick=True)
    row = _check_rows(tmp_path)["enm_oracle_equivalence"]
    assert int(row[2]) > 0 and row[-1] == "0"
    assert main(["--out", str(tmp_path), "verify", "--quick"]) == 1
    assert "FAILURES" in capsys.readouterr().out


def test_enm_battery_builds_one_chain_table_per_M(monkeypatch):
    # five chain tables, one per M = 0..4, each read by one trim_masks
    # call covering m = 1..4; no trim_mask or trim_counts clips again
    built, seen = [], []
    real_table, real_masks = cli.chain_table, cli.trim_masks

    def building(E, M):
        built.append(real_table(E, M))
        return built[-1]

    def recording(table, n, ms):
        seen.append((table is built[-1], table[1], list(ms)))
        return real_masks(table, n, ms)

    def refused(*args):
        raise AssertionError("another clip pass")

    monkeypatch.setattr(cli, "chain_table", building)
    monkeypatch.setattr(cli, "trim_masks", recording)
    for module in (cli, times):
        for name in ("trim_mask", "trim_counts"):
            monkeypatch.setattr(module, name, refused, raising=False)
    assert cli._enm_battery(6)[:2] == (0, 0)
    assert [table[1] for table in built] == list(range(5))
    assert seen == [(True, M, [1, 2, 3, 4]) for M in range(5)]


def _with_shifted_log_derivs(real):
    """orbit_grid with log|g'| + 1, so every witness label k is one off."""
    def defect(*args):
        pts, lds = real(*args)
        return pts, lds + 1.0
    return defect


def _clip_at_M_plus_1(real):
    """trim_masks with its clip read off the chain table at M + 1."""
    def defect(table, n, ms):
        E, M = table[:2]
        return real(times.chain_table(E, M + 1), n, [])[0], \
            real(table, n, ms)[1]
    return defect


def _trims_at_m_plus_1(real):
    """trim_masks with each trim at m taken at m + 1."""
    def defect(table, n, ms):
        clip, trims = real(table, n, [m + 1 for m in ms])
        return clip, dict(zip(ms, trims.values()))
    return defect


# (module, name, defect built from the real function, the one row it fails);
# a trim at m + 1 tries L in [m, M+m-1], its L range shifted by one, and
# E moved one column right is E + 1
VERIFY_DEFECTS = {
    "clip at M + 1": (cli, "trim_masks", _clip_at_M_plus_1,
                      "enm_oracle_equivalence"),
    "trim L range shifted": (cli, "trim_masks", _trims_at_m_plus_1,
                             "enm_oracle_equivalence"),
    "(i) against E + 1": (times, "_trim_lemmas",
                          lambda real: lambda E, n, M, S: real(
                              np.pad(E, ((0, 0), (1, 0))), n, M, S),
                          "enm_lemma"),
    "no boundary term": (entropy, "boundary_set",
                         lambda real: lambda S: set(), "misiurewicz_random"),
    "witness k + 1": (tree, "orbit_grid", _with_shifted_log_derivs,
                      "tree_item4"),
}


@pytest.mark.parametrize("name", sorted(VERIFY_DEFECTS))
def test_verify_row_fails_on_defect(name, tmp_path, monkeypatch):
    module, attr, defect, row = VERIFY_DEFECTS[name]
    monkeypatch.setattr(module, attr, defect(getattr(module, attr)))
    assert not run_verify(tmp_path, quick=True)
    rows = _check_rows(tmp_path)
    assert [k for k, r in rows.items() if r[-1] == "0"] == [row]


def _doubling_tree(levels):
    from acim1d.maps import power_map
    from acim1d.reparam import affine_reparam, choose_epsilon
    from acim1d.tree import ReparamTree

    f = cli.make_map("doubling")
    eps = choose_epsilon(power_map(f, 7))
    return ReparamTree(f, 7, affine_reparam(0.37, 0.9 * eps), eps).build(
        levels)


def test_verify_fails_closed_on_corrupted_tree(tmp_path, monkeypatch,
                                               capsys):
    # one vertex's contraction rate doubled, as in acceptance criterion 9(c)
    real = cli.ReparamTree.build

    def corrupt_rate(self, n_levels):
        real(self, n_levels)
        self.levels[1][5].rho = 1.0 / 50.0
        return self

    monkeypatch.setattr(cli.ReparamTree, "build", corrupt_rate)
    assert not run_verify(tmp_path, quick=True)
    rows = _check_rows(tmp_path)
    assert [name for name, row in rows.items() if row[-1] == "0"] == \
        ["tree_item2"]
    assert float(rows["tree_item2"][2]) < 1.0
    assert main(["--out", str(tmp_path), "verify", "--quick"]) == 1
    assert "FAILURES" in capsys.readouterr().out


def test_tree_detector_writes_tree_rows(tmp_path):
    ini = DOUBLING_INI.format(seeds=100, seed=1, out=tmp_path / "o").replace(
        "p = 4", "p = 7").replace(
        "detector = surrogate", "detector = both\ntree_levels = 1")
    st = cli.PipelineState(load_config(_write(tmp_path, ini)))
    for stage in cli._stages("tree"):
        stage(st)
    names = [row[0] for row in st.checks]
    assert names == ["tree_distortion"] + [
        "tree_" + key for key, _, _ in cli._TREE_ITEMS]
    assert all(row[-1] == 1 for row in st.checks)


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        p = _write(tmp_path, DOUBLING_INI.format(seeds=2000, seed=99,
                                                 out=out), f"{out.name}.ini")
        run_pipeline(load_config(p))
    for name in ("norms.csv", "branches.csv", "times.csv", "density.csv",
                 "betas.csv", "measure.csv", "hist.csv", "entropy.csv",
                 "checks.csv", "verdict.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
