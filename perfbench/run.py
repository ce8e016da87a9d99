"""acim1d benchmark: time to an AC verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a sequence of fresh child processes (child.py), one
at a time, until --seconds have passed (at least two).  Every child gets
the same inputs, made from --seed (it becomes the config ``rng_seed``),
so the outputs of all children must agree byte for byte.  Each child's
outputs are gated for correctness; a nonzero exit, a failed gate or a
differing output counts as a failed sample.

--trace 0 reports the end-to-end metrics (median over the samples):
wall_s, setup_s, cpu_s and peak_rss_mb.  --trace 1 alternates untraced
and traced children and reports the per-layer metrics of the traced ones
(median), plus the tracing overhead.  Times are scaled to a reference
speed of the host (see child.SpeedProbe and REF_PROBE_S).  --smoke
shrinks every workload to a few seconds for the benchmark's own tests;
its gates are not expected to pass.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The environment, every sample
and the span table of the last traced sample go to
perfbench/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "results"
LOG2 = math.log(2.0)

MIN_SAMPLES = 2
# Median time of child.py's probe kernel on the 2-core Intel Xeon box the
# benchmark was written on.  Times are reported at this probe speed; only
# the ratio to it matters.
REF_PROBE_S = 0.85e-3
RUN_DEADLINE_S = 165.0   # a run must end within 180 s, hung children too

# Acceptance criteria 5 and 6 ask for 10^6 atoms from 125000 doubling
# seeds and 12000 logistic seeds; the gates keep that atoms-per-seed ratio
# at the benchmark's smaller seed counts.
DOUBLING_ATOMS_PER_SEED = 10 ** 6 / 125000
LOGISTIC_ATOMS_PER_SEED = 10 ** 6 / 12000
GIBBS_PASS_FRAC = 0.95


# ---------------------------------------------------------------------------
# correctness gates: each reads a child's output directory and its result
# (the sample) and returns the conditions that failed (empty: correct)
# ---------------------------------------------------------------------------


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _pipeline_outputs(out):
    """Verdict, entropy summary, check rows, atom and seed counts."""
    summary = {r["q"]: float(r["value"]) for r in _rows(out / "entropy.csv")
               if r["kind"] == "summary"}
    return {
        "verdict": (out / "verdict.txt").read_text().strip(),
        "summary": summary,
        "checks": _rows(out / "checks.csv"),
        "atoms": len(_rows(out / "measure.csv")),
        "seeds": len(_rows(out / "times.csv")),
    }


def _check_lhs(checks, name):
    """lhs of the single row named name; NaN (fails every <=) otherwise."""
    vals = [float(r["lhs"]) for r in checks if r["check_name"] == name]
    return vals[0] if len(vals) == 1 else math.nan


def _failed(conditions):
    return [label for label, ok in conditions if not ok]


def gate_doubling(out, sample):
    o = _pipeline_outputs(out)
    h_f = o["summary"].get("h_f_est", math.nan)
    return _failed([
        ("verdict is AC-consistent", o["verdict"] == "AC-consistent"),
        ("density_l1 <= 0.05", _check_lhs(o["checks"], "density_l1") <= 0.05),
        ("|h_f_est - log 2| <= 0.03", abs(h_f - LOG2) <= 0.03),
        ("atoms >= 8 per seed",
         o["atoms"] >= DOUBLING_ATOMS_PER_SEED * o["seeds"] > 0),
    ])


def gate_logistic(out, sample):
    o = _pipeline_outputs(out)
    residual = o["summary"].get("residual_f", math.nan)
    return _failed([
        ("verdict is AC-consistent", o["verdict"] == "AC-consistent"),
        ("density_l1 <= 0.08", _check_lhs(o["checks"], "density_l1") <= 0.08),
        ("|residual_f| <= 0.05", abs(residual) <= 0.05),
        ("atoms >= 83.3 per seed",
         o["atoms"] >= LOGISTIC_ATOMS_PER_SEED * o["seeds"] > 0),
    ])


def gate_gibbs(out, sample):
    o = _pipeline_outputs(out)
    passed = sum(r["pass"] == "1" for r in o["checks"]
                 if r["check_name"] == "gibbs")
    need = GIBBS_PASS_FRAC * sample["config"]["gibbs_instances"]
    return _failed([
        ("verdict is AC-consistent", o["verdict"] == "AC-consistent"),
        (f"gibbs rows passing >= {need:g}", passed >= need > 0),
    ])


def gate_verify(out, sample):
    rows = _rows(out / "checks.csv")
    return _failed([
        ("run_verify returned True", sample.get("verify_ok") is True),
        ("every checks.csv row passes",
         bool(rows) and all(r["pass"] == "1" for r in rows)),
    ])


@dataclass(frozen=True)
class Workload:
    gate: object
    config: str = None                      # None: the verify battery
    smoke: dict = field(default_factory=dict)

    def child_args(self, smoke):
        if self.config is None:
            return ["--verify"] + (["--quick"] if smoke else [])
        args = ["--config", str(BENCH / "configs" / self.config)]
        for key, value in (self.smoke.items() if smoke else ()):
            args += ["--set", f"{key}={value}"]
        return args


# Why each workload exists: perfbench/README.md.
WORKLOADS = {
    "doubling": Workload(gate_doubling, "doubling.ini", {"seeds": 2500}),
    "logistic": Workload(gate_logistic, "logistic.ini", {"seeds": 120}),
    "verify": Workload(gate_verify),
    "gibbs": Workload(gate_gibbs, "gibbs.ini", {
        "seeds": 400, "gibbs_instances": 3, "gibbs_samples": 2000}),
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}

STAGES = ("map", "branches", "tree", "times", "measure", "entropy", "checks")
TIMED_SPANS = (
    [f"cli.stage_{s}" for s in STAGES]
    + ["cli.run_verify", "cli.parallel_map",
       "times.trim", "times.clip", "times.density", "times.verify_enm",
       "times.oracle",
       "branches.locate_many", "branches.monotone_branches",
       "measures.build_seed_pool", "measures.select_An",
       "measures.empirical_measure", "measures.positive_exponent_proxy",
       "measures.invariance_defect",
       "entropy.entropy_formula_residual", "entropy.itinerary_entropy",
       "entropy.choose_offset", "entropy.verify_mane_bounds",
       "entropy.gibbs_check", "entropy.verify_misiurewicz",
       "maps.estimate_norms", "maps.critical_set", "maps.orbit_grid",
       "maps.jet_apply", "reparam.choose_epsilon", "tree.build",
       "tree.distortion_suite"])
COUNTED_SPANS = ("times.trim", "branches.locate_many",
                 "measures.positive_exponent_proxy",
                 "entropy.itinerary_entropy", "entropy.gibbs_check")
COUNTERS = ("branches.locate_many_points", "maps.eval_points",
            "measures.seeds", "measures.selected", "measures.atoms",
            "tree.vertices")


def layer_metrics(sample):
    """Per-layer metrics of one traced sample, as name -> (value, unit)."""
    trace = sample["trace"]
    totals, counts = trace["totals"], trace["counts"]
    speed = REF_PROBE_S / sample["probe_work_s"]

    def secs(span):
        return totals.get(span, {}).get("s", 0.0) * speed

    def calls(span):
        return totals.get(span, {}).get("calls", 0)

    m = {f"{span}_s": (secs(span), "s") for span in TIMED_SPANS}
    m.update({f"{span}_calls": (calls(span), "count")
              for span in COUNTED_SPANS})
    m.update({name: (counts.get(name, 0), "count") for name in COUNTERS})
    m["cli.out_bytes"] = (sample["out_bytes"], "bytes")
    seeds = counts.get("measures.seeds", 0)
    m["measures.selected_frac"] = (
        counts.get("measures.selected", 0) / seeds if seeds else 0.0, "ratio")
    n_gibbs = calls("entropy.gibbs_check")
    m["entropy.gibbs_pass_frac"] = (
        counts.get("entropy.gibbs_passed", 0) / n_gibbs if n_gibbs else 0.0,
        "ratio")
    covered = sum(v["s"] for k, v in totals.items()
                  if k.startswith("cli.stage_") or k == "cli.run_verify")
    m["trace.wall_s"] = (sample["wall_s"], "s")
    m["trace.stage_coverage_frac"] = (covered / sample["raw_wall_s"],
                                      "ratio")
    return m


def _median_metric(samples, key):
    return statistics.median(s[key] for s in samples)


def summarize(samples, trace):
    """The result object: correctness counts plus the metrics."""
    failed = sum(1 for s in samples if s["problems"])
    plain = [s for s in samples if not s["traced"] and "raw_wall_s" in s]
    metrics = {}
    if trace:
        traced = [s for s in samples if s["traced"] and "raw_wall_s" in s]
        if not traced or not plain:
            raise RuntimeError("no complete traced and untraced sample pair")
        per_sample = [layer_metrics(s) for s in traced]
        for name, (_, unit) in per_sample[0].items():
            metrics[name] = {
                "value": statistics.median(p[name][0] for p in per_sample),
                "unit": unit}
        metrics["trace.overhead_frac"] = {
            "value": _median_metric(traced, "wall_s")
            / _median_metric(plain, "wall_s") - 1.0,
            "unit": "ratio"}
    else:
        if not plain:
            raise RuntimeError("no sample produced timings")
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": _median_metric(plain, name),
                             "unit": unit}
    return {"correct": failed == 0, "attempted": len(samples),
            "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# running samples
# ---------------------------------------------------------------------------


def digest(out):
    """sha256 over the relative names and bytes of every output file."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def run_sample(name, seed, traced, smoke, index, timeout=RUN_DEADLINE_S):
    """One child process: spawn, wait, time, and gate its outputs."""
    wl = WORKLOADS[name]
    work = WORK / name
    out, result = work / "out", work / "result.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--out", str(out),
           "--result", str(result), "--rng-seed", str(seed)]
    cmd += wl.child_args(smoke) + (["--trace"] if traced else [])
    sample = {"index": index, "traced": traced, "loadavg": os.getloadavg(),
              "problems": []}
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sample["seconds"] = time.perf_counter() - t_spawn
        sample["problems"].append(f"timed out after {timeout:.0f} s")
        return sample
    sample["seconds"] = time.perf_counter() - t_spawn
    sample["exit"] = proc.returncode
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        sample["problems"].append(f"exit {proc.returncode}: {tail[0]}")
        return sample
    try:
        data = json.loads(result.read_text())
    except (OSError, ValueError) as exc:
        sample["problems"].append(f"no result from the child: {exc!r}")
        return sample
    sample["setup_s"] = data.pop("ready") - t_spawn
    sample.update(data)
    if None in (sample["probe_setup_s"], sample["probe_work_s"]):
        sample["problems"].append("no speed probe ran")
        return sample
    for key, probe in (("setup_s", "probe_setup_s"),
                       ("wall_s", "probe_work_s"), ("cpu_s", "probe_all_s")):
        sample["raw_" + key] = sample[key]
        sample[key] *= REF_PROBE_S / sample[probe]
    try:
        sample["problems"] += wl.gate(out, sample)
    except (OSError, KeyError, ValueError) as exc:
        sample["problems"].append(f"unreadable outputs: {exc!r}")
    sample["digest"] = digest(out)
    sample["out_bytes"] = sum(p.stat().st_size for p in out.rglob("*")
                              if p.is_file())
    return sample


def check_digests(samples):
    """Every sample's outputs must equal the first complete sample's."""
    digests = [s["digest"] for s in samples if "digest" in s]
    for s in samples:
        if "digest" in s and s["digest"] != digests[0]:
            s["problems"].append("outputs differ from the first sample")
    return digests[0] if digests else None


def measure(name, seed, seconds, trace, smoke=False):
    """Run samples until the time is up; returns the list of samples."""
    samples = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(samples) >= (1 if smoke and not trace else MIN_SAMPLES):
            est = statistics.median(s["seconds"] for s in samples)
            if elapsed + est > min(seconds, RUN_DEADLINE_S):
                break
        if elapsed >= RUN_DEADLINE_S:
            break
        traced = trace and len(samples) % 2 == 1
        s = run_sample(name, seed, traced, smoke, len(samples),
                       timeout=RUN_DEADLINE_S - elapsed)
        samples.append(s)
        print(_sample_line(s), flush=True)
    return samples


def _sample_line(s):
    kind = "traced" if s["traced"] else "plain"
    parts = [f"sample {s['index']} {kind}:"]
    for key, fmt in (("setup_s", "setup {:.3f} s"),
                     ("wall_s", "wall {:.3f} s"), ("cpu_s", "cpu {:.3f} s"),
                     ("raw_wall_s", "(unscaled wall {:.3f} s)"),
                     ("peak_rss_mb", "rss {:.1f} MB")):
        if key in s:
            parts.append(fmt.format(s[key]))
    parts.append("load {:.2f}".format(s["loadavg"][0]))
    parts.append("ok" if not s["problems"] else
                 "FAILED: " + "; ".join(s["problems"]))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas():
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '')}"
    except (TypeError, KeyError):
        return "unknown"


def environment():
    src = hashlib.sha256()
    for path in sorted((SRC / "acim1d").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": _blas().strip(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
    }


def _reference_digest(name, seed):
    try:
        table = json.loads((BENCH / "digests.json").read_text())
    except OSError:
        return None
    return table.get(name, {}).get(str(seed))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse(argv):
    ap = argparse.ArgumentParser(
        description="acim1d benchmark: time to an AC verdict")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "acim1d" / "__init__.py").is_file():
        print(f"error: no acim1d sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))
    # compile and cache the package once, outside every timed sample
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import acim1d.cli"], cwd=ROOT, check=True)

    samples = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.smoke)
    out_digest = check_digests(samples)
    try:
        result = summarize(samples, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    plain = sum(1 for s in samples if not s["traced"] and "raw_wall_s" in s)
    for name, m in sorted(result["metrics"].items()):
        n = plain if name in END_TO_END else len(samples) - plain
        print(f"{args.workload}: {name} {m['value']:.6g} {m['unit']} "
              f"(median of {n})")
    print(f"{args.workload}: fail_frac "
          f"{result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']} samples failed)")
    ref = None if args.smoke else _reference_digest(args.workload, args.seed)
    status = ("no reference for this seed" if ref is None else
              "same as reference" if ref == out_digest else
              "CHANGED against reference (see perfbench/README.md)")
    print(f"{args.workload}: output digest {out_digest} ({status})")

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "env": env, "digest": out_digest,
              "reference_digest": ref, "result": result,
              "samples": [{k: v for k, v in s.items() if k != "trace"}
                          for s in samples]}
    traced = [s for s in samples if "trace" in s]
    if traced:
        record["spans"] = traced[-1]["trace"]["spans"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
