"""What a run imports: neither scipy nor mpmath, through `acim1d verify`
and a pipeline; what the package may import: the standard library and
the runtime dependencies pyproject.toml lists (numpy alone); what each
module exports: every name in its __all__; that each name a module
imports with `from ... import` is read there or exported; how many
BLAS threads importing acim1d leaves; and how many lines the package
has."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import acim1d

SRC = Path(__file__).resolve().parent.parent / "src"
LINE_CAP = 4576  # src/acim1d/*.py, wc -l; the size may not grow past it

TINY_INI = """\
[map]
preset = logistic
a = 4.0
r = 4.0

[run]
p = 6
delta = 0.1
beta = 0.1
n = 40
M = 3
m = 1
q = 2
seeds = 300
rng_seed = 1
detector = surrogate
entropy_m = 1
bins = 20
reference = logistic
gibbs_instances = 1
gibbs_samples = 200
"""

SCRIPT = """\
import sys
from pathlib import Path

import acim1d.cli as cli
from acim1d.config import load_config

def loaded(prefix):
    return sorted(m for m in sys.modules if m.split(".")[0] == prefix)

assert cli.run_verify("verify", quick=True)
cli.run_pipeline(load_config("tiny.ini"), out_dir="out")
assert (Path("out") / "verdict.txt").exists()
print(loaded("scipy") + loaded("mpmath"))
"""


def test_runs_import_no_scipy_or_mpmath(tmp_path):
    (tmp_path / "tiny.ini").write_text(TINY_INI)
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_imports_only_stdlib_and_numpy():
    # every import of every module, also inside a function, outside the
    # standard library names a runtime dependency, and those are numpy
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    deps = {re.match(r"[A-Za-z0-9_.-]+", d)[0]
            for d in meta["project"]["dependencies"]}
    assert deps == {"numpy"}
    used = set()
    for path in sorted((SRC / "acim1d").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                used.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                used.add(node.module.split(".")[0])
    assert used - sys.stdlib_module_names - {"acim1d"} <= deps, used


@pytest.mark.parametrize("path", sorted(
    p.name for p in (SRC / "acim1d").glob("*.py") if p.name != "__init__.py"))
def test_from_imports_are_read_or_exported(path):
    tree = ast.parse((SRC / "acim1d" / path).read_text())
    bound = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module != "__future__" for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = next((ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign) and any(
                         getattr(t, "id", None) == "__all__"
                         for t in node.targets)), [])
    unused = bound - read - set(exported)
    assert not unused, unused


THREADS = """\
import os

import acim1d
import numpy

print(os.environ.get("OPENBLAS_NUM_THREADS"))
tasks = "/proc/self/task"
print(len(os.listdir(tasks)) if os.path.isdir(tasks) else "")
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_blas_runs_one_thread_unless_preset(preset):
    # OpenBLAS reads the variable once, as numpy loads; its idle worker
    # would spin a second core through every run
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", THREADS],
                          env={**env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split("\n")[:2]
    assert value == (preset or "1")
    if preset is None and threads:
        assert threads == "1"


@pytest.mark.parametrize("name", sorted(
    m.name for m in pkgutil.iter_modules(acim1d.__path__)))
def test_module_all_resolves(name):
    mod = importlib.import_module(f"acim1d.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, missing
    exec(f"from acim1d.{name} import *", {})   # a stale name would raise


def test_src_within_line_cap():
    lines = sum(path.read_bytes().count(b"\n")
                for path in (SRC / "acim1d").glob("*.py"))
    assert lines <= LINE_CAP, lines
