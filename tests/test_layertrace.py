"""Smoke test of the benchmark's traced path: ``perfbench/layertrace.py``
wraps spcirc functions by name and raises if one is no longer bound, so a
rename or a removed function shows up here rather than in a traced benchmark
run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spcirc

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
GP_CONFIG = {
    "schema_version": 1,
    "n": 3,
    "observable": "IYI",
    "samples": 40,
    "batches": 20,
    "states": [{"kind": "computational_basis", "x": 0}],
}


@pytest.mark.parametrize(
    "argv,span,sums",
    [
        pytest.param(["collision", "--n", "3", "--layers", "2"],
                     "kernels.transfer_apply", {}, id="collision"),
        # each of the 36 directions of the n = 3 closure is in one round's
        # frontier, and every frontier meets the 7 generators
        pytest.param(["closure", "--set", "theorem1", "--n", "3"],
                     "kernels.closure_round", {"pairs": 36 * 7}, id="closure"),
        pytest.param(["gp-summary", "--config", "gp.json", "--seed", "1"],
                     "gp_stats.run_gp_experiment", {}, id="gp-summary"),
    ],
)
def test_traced_run_writes_spans(tmp_path, argv, span, sums):
    (tmp_path / "gp.json").write_text(json.dumps(GP_CONFIG))
    src = os.path.dirname(os.path.dirname(spcirc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    spans = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, str(LAYERTRACE), "--spans", str(spans), "--", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(spans.read_text())
    names = {s[1] for s in doc["spans"]}
    assert {"cli.main", span} <= names
    for key, total in sums.items():  # the work counters perfbench sums per span
        assert sum(s[6][key] for s in doc["spans"] if s[1] == span) == total
