"""Golden outputs: every out/ file of three small pipelines, of the full
and quick verify batteries and of a tree-stage run, by sha256.

The pipeline digests in golden_digests.json were recorded from the code
as it was before the per-point work in gibbs_check and
entropy_formula_residual was cut down, the verify_quick digest when the
tree-certificate, Taylor-window and branch-count rows joined the battery,
and the verify_full digest (rng seed 0, the 2-level doubling^7 tree)
before the tree's vertices became level arrays.  The two pipelines'
checks.csv digests were re-recorded when invariance_defect became one
telescoped sum over run starts and run ends' images: its row's lhs and
margin moved in the last digits (a different summation order), and
every other file kept its digest.  The doubling_tree digests (the map,
branches and tree stages of doubling_small at p = 7 with the tree
detector, one level) were recorded before the vertex type became a
boolean column, so tree.csv's vtype text is pinned.  The doubling_both
digests (the whole doubling_small pipeline at 1500 seeds with both
detectors and a one-level tree) were recorded before the measure stage's
rows moved into measure_rows and _row began deriving the margin: they
pin the detector_agreement and tree rows of a pipeline's checks.csv,
which no other entry reaches.  A change that
alters an output on purpose updates that file and says which output
changed and why.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from acim1d.cli import PipelineState, _stages, run_pipeline, run_verify
from acim1d.config import load_config

TESTS = Path(__file__).resolve().parent
GOLDEN = json.loads((TESTS / "golden_digests.json").read_text())

# logistic^6 at the gibbs workload's (n, M, m, q), small enough for seconds
LOGISTIC_SMALL_INI = """\
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
m = 2
q = 2, 4
seeds = 600
rng_seed = 20260810
detector = surrogate
entropy_m = 1, 2
bins = 100
reference = logistic
tol_residual = 0.05
tol_l1 = 0.08
gibbs_instances = 3
gibbs_samples = 2000
"""


def _digests(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


def _config(name, tmp_path):
    if name == "doubling_small":
        return load_config(TESTS.parent / "configs" / "doubling_small.ini")
    path = tmp_path / f"{name}.ini"
    path.write_text(LOGISTIC_SMALL_INI)
    return load_config(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, tmp_path):
    out = tmp_path / "out"
    if name.startswith("verify_"):
        assert run_verify(out, rng_seed=0, quick=name == "verify_quick")
    elif name == "doubling_both":
        run_pipeline(dataclasses.replace(
            _config("doubling_small", tmp_path), detector="both",
            tree_levels=1, seeds=1500), out_dir=out)
    elif name == "doubling_tree":
        cfg = dataclasses.replace(_config("doubling_small", tmp_path), p=7,
                                  detector="both", tree_levels=1)
        st = PipelineState(cfg, out)
        for stage in _stages("tree"):
            stage(st)
    else:
        run_pipeline(_config(name, tmp_path), out_dir=out)
    assert _digests(out) == GOLDEN[name]
