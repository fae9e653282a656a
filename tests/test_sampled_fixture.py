"""Seeded outputs of the four sampled subcommands against a frozen fixture.

``tests/data/sampled_payloads.json`` holds the payloads of ``gp-summary``
(n = 6, the criterion-7 pair of states), ``concentration`` and
``anticoncentration`` and the first 50 values of the ``gp`` CSV, all at fixed
seeds. Keys and shapes must match exactly and numbers to rtol 1e-12, so a
refactor of the sampling loop that keeps the RNG stream passes and a change
to the stream fails. A deliberate change regenerates the fixture with

    PYTHONPATH=src python tests/test_sampled_fixture.py
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from spcirc.cli import main

FIXTURE = Path(__file__).parent / "data" / "sampled_payloads.json"

GP_CONFIG = {
    "schema_version": 1,
    "n": 6,
    "observable": "IYIIII",
    "samples": 400,
    "batches": 20,
    "states": [
        {"kind": "computational_basis", "x": 0},
        {"kind": "superposition_pair", "flip_qubit": 2},
    ],
}
CONCENTRATION = ["concentration", "--n", "6", "--samples", "400", "--state", "pair",
                 "--thresholds", "0.02,0.05,0.1,0.2,0.3", "--seed", "3"]
ANTICONCENTRATION = ["anticoncentration", "--n", "6", "--samples", "400", "--x", "5",
                     "--alphas", "0,0.25,0.5,0.75,1", "--seed", "8"]


def payload(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())["payload"]


def sampled_payloads() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "gp.json"
        config.write_text(json.dumps(GP_CONFIG))
        values = Path(tmp) / "values.csv"
        payload(["gp", "--config", str(config), "--seed", "16", "--out", str(values)])
        with open(values, newline="") as f:
            gp = [float(row["value"]) for row, _ in zip(csv.DictReader(f), range(50))]
        return {
            "gp-summary": payload(["gp-summary", "--config", str(config), "--seed", "16"]),
            "gp": gp,
            "concentration": payload(CONCENTRATION),
            "anticoncentration": payload(ANTICONCENTRATION),
        }


@pytest.fixture(scope="module")
def got():
    return sampled_payloads()


def assert_matches(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, str) or (isinstance(want, list) and want and isinstance(want[0], str)):
        assert got == want, where
    else:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape, where
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=where)


@pytest.mark.parametrize("command", ["gp-summary", "gp", "concentration", "anticoncentration"])
def test_seeded_output_matches_the_fixture(got, command):
    want = json.loads(FIXTURE.read_text())
    assert sorted(got) == sorted(want)
    assert_matches(got[command], want[command], command)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(sampled_payloads(), indent=1) + "\n")
