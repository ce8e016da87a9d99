"""One measured run of acim1d in a fresh process.

run.py starts this script once per sample, one process at a time:

    python3 perfbench/child.py --out DIR --result FILE --rng-seed N \
        [--config INI [--set key=value ...] | --verify [--quick]] [--trace]

With --config it runs ``acim1d.cli.run_pipeline``; with --verify it runs
``acim1d.cli.run_verify`` (the ``acim1d verify`` battery).  It writes one
JSON object to FILE:

- ``ready``: ``time.perf_counter()`` when the first stage can run, after
  the interpreter, ``import acim1d`` and ``load_config``.  perf_counter
  reads CLOCK_MONOTONIC, which every process on the machine shares, so
  run.py subtracts its own spawn time from it to get set-up time.
- ``wall_s``: from the first stage call until verdict.txt is written (the
  ``run_verify`` call for --verify).
- ``cpu_s``, ``peak_rss_mb``: this process's user+sys time and
  ``ru_maxrss``, read when the work is done.
- ``probe_setup_s``, ``probe_work_s``, ``probe_all_s``: the median time of
  the speed probe's kernel during set-up, during the work, and over both
  (see SpeedProbe).
- ``config``: the scalar fields of the loaded config (--config only).
- ``verify_ok``: the battery's own pass flag (--verify only).
- ``trace``: span totals, span rows and counters (--trace only).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
PROBE_INTERVAL_S = 0.05


def _probe_kernel():
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Times a fixed pure-Python kernel every PROBE_INTERVAL_S (SIGALRM).

    The cores of a shared host run this process up to ~2x faster or
    slower from one minute to the next, and that drift moves every timing
    of the program alike.  The median kernel time over a window measures
    the speed the process ran at in that window, so run.py can scale the
    window's timings to one reference speed.  The kernel costs ~2% of the
    run; Python retries system calls that the alarm interrupts (PEP 475).
    """

    def __init__(self):
        self.samples = []           # (end time, kernel seconds)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _probe_kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def median(self, start=-math.inf, end=math.inf):
        """Median kernel time of the probes that ended in [start, end]."""
        vals = [d for t, d in self.samples if start <= t <= end]
        return statistics.median(vals) if vals else None


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--rng-seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--config", type=Path)
    mode.add_argument("--verify", action="store_true")
    ap.add_argument("--quick", action="store_true",
                    help="run the reduced verify battery")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override an integer config field")
    ap.add_argument("--trace", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    probe = SpeedProbe()
    import acim1d
    from acim1d import cli
    from acim1d.config import load_config

    if ROOT not in Path(acim1d.__file__).resolve().parents:
        raise SystemExit(f"acim1d imported from {acim1d.__file__}, "
                         f"not from {ROOT / 'src'}")
    cfg = None
    if args.config is not None:
        cfg = load_config(args.config)
        for item in args.set:
            key, _, value = item.partition("=")
            setattr(cfg, key, int(value))
    ready = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    out = {"ready": ready}
    if cfg is not None:
        out["config"] = {k: v for k, v in vars(cfg).items()
                         if isinstance(v, (int, float, str))}
    t0 = time.perf_counter()
    if cfg is not None:
        cli.run_pipeline(cfg, out_dir=args.out, rng_seed=args.rng_seed,
                         jobs=1)
    else:
        out["verify_ok"] = bool(cli.run_verify(
            args.out, rng_seed=args.rng_seed, quick=args.quick))
    t1 = time.perf_counter()
    out["wall_s"] = t1 - t0

    ru = resource.getrusage(resource.RUSAGE_SELF)
    probe.stop()
    out["probe_setup_s"] = probe.median(end=ready)
    out["probe_work_s"] = probe.median(t0, t1)
    out["probe_all_s"] = probe.median()
    out["cpu_s"] = ru.ru_utime + ru.ru_stime
    out["peak_rss_mb"] = ru.ru_maxrss / 1024.0
    if tracer is not None:
        out["trace"] = {"totals": tracer.totals(), "spans": tracer.spans(),
                        "counts": dict(tracer.counts)}
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
