"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_metrics_match_spec(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 + trace
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_spec_lists_every_workload_once():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.fixture(scope="module")
def doubling_sample():
    """One passing sample of the doubling workload at full benchmark size."""
    sample = bench.run_sample("doubling", 5, traced=False, smoke=False,
                              index=0)
    assert sample["problems"] == []
    return sample


def _gate_after(sample, edit):
    out = bench.WORK / "doubling" / "out"
    saved = {p.name: p.read_bytes() for p in out.iterdir()}
    try:
        edit(out)
        return bench.gate_doubling(out, sample)
    finally:
        for name, data in saved.items():
            (out / name).write_bytes(data)


def _replace(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_corrupted_verdict_fails(doubling_sample):
    problems = _gate_after(
        doubling_sample,
        lambda out: (out / "verdict.txt").write_text("not-AC\n"))
    assert problems == ["verdict is AC-consistent"]
    failed = dict(doubling_sample, problems=problems)
    result = bench.summarize([doubling_sample, failed], trace=False)
    assert result["failed"] / result["attempted"] == 0.5
    assert result["correct"] is False


def test_tolerance_miss_fails(doubling_sample):
    def widen_l1(out):
        rows = (out / "checks.csv").read_text().splitlines()
        row = next(r for r in rows if r.startswith("density_l1,"))
        fields = row.split(",")
        fields[2] = "0.0501"
        _replace(out / "checks.csv", row, ",".join(fields))

    assert _gate_after(doubling_sample, widen_l1) == ["density_l1 <= 0.05"]


def test_missing_entropy_summary_fails_closed(doubling_sample):
    def drop_h_f(out):
        lines = (out / "entropy.csv").read_text().splitlines(keepends=True)
        (out / "entropy.csv").write_text(
            "".join(l for l in lines if ",h_f_est," not in l))

    assert _gate_after(doubling_sample, drop_h_f) == [
        "|h_f_est - log 2| <= 0.03"]


def test_differing_outputs_fail(doubling_sample):
    other = dict(doubling_sample, problems=[], digest="0" * 64)
    first = dict(doubling_sample, problems=[])
    bench.check_digests([first, other])
    assert first["problems"] == []
    assert other["problems"] == ["outputs differ from the first sample"]


_COUNT_SCRIPT = textwrap.dedent("""
    import collections, json, sys
    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import acim1d.cli
    from acim1d.config import load_config
    import tracer

    functions, methods = tracer._targets()
    spans = {f.__code__: span for f, span in functions.items()}
    spans.update({vars(c)[a].__code__: s for c, a, s in methods})
    t = tracer.Tracer()
    tracer.install(t)
    seen = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in spans:
            seen[spans[frame.f_code]] += 1

    cfg = load_config(sys.argv[3])
    cfg.seeds = 1250
    sys.setprofile(profile)
    acim1d.cli.run_pipeline(cfg, out_dir=sys.argv[4], jobs=1)
    sys.setprofile(None)
    print(json.dumps({"profiled": seen, "traced": dict(t.calls)}))
""")


def test_tracer_sees_every_call(tmp_path):
    """Each call of a traced function's code passes through its wrapper."""
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_SCRIPT, str(ROOT / "src"), str(BENCH),
         str(BENCH / "configs" / "doubling.ini"), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts["traced"]["times.trim"] > 0
    assert counts["profiled"] == counts["traced"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results",
                                                  "__pycache__"))
    proc = _bench("--workload", "doubling", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
