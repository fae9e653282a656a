"""Outputs of the deterministic subcommands against a frozen fixture.

``tests/data/golden_payloads.json`` holds, per case, the JSON envelope that
``spcirc.cli.main`` prints (without ``build_id`` and ``wall_clock_s``, and
with the case's temporary directory cut from every path) and the files the
run writes. The cases are ``closure``, ``gram``, ``twirl`` on an operator
built by formula, ``simulate`` on a seeded circuit with rotations and Haar
blocks, ``collision`` and ``anticoncentration-depth`` with its CSV, plus a
dry run of each. Integers, strings, booleans and n_L* must match exactly, and
floats to rtol 1e-12. A deliberate change regenerates the fixture with

    PYTHONPATH=src python tests/test_golden_payloads.py

and names the fields that changed in CHANGES.md.
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

FIXTURE = Path(__file__).parent / "data" / "golden_payloads.json"

# the files a case may name, inputs written into its temporary directory and
# the CSV it writes there
FILES = {"generators.json", "circuit.json", "x_2_2.npy", "x_2_3.npy", "depth.csv"}
CUSTOM_SET = ["XIY", "YXI", "IZZ", "ZIX"]
CIRCUIT = {
    "n": 4, "seed": 29,
    "gates": [
        {"type": "rot", "pauli": "YIII", "theta": 0.3},
        {"type": "haar", "qubits": [1, 2], "group": "sp2"},
        {"type": "haar", "qubits": [2, 3], "group": "o4"},
        {"type": "rot", "pauli": "IXYI", "theta": -0.7},
        {"type": "haar", "qubits": [3, 4], "group": "o4"},
        {"type": "rot", "pauli": "ZIIX", "theta": 1.1},
    ],
}


def operator(t: int, d: int) -> np.ndarray:
    """A real d^t x d^t operator by formula, outside the diagram span."""
    i, j = np.indices((d**t, d**t))
    return np.cos(i + 2.0 * j) + (i == j)


CASES = {
    "closure-theorem1-n5": ["closure", "--set", "theorem1", "--n", "5"],
    "closure-prop2-n3": ["closure", "--set", "prop2", "--n", "3"],
    "closure-custom-n3": ["closure", "--set", "custom", "--n", "3",
                          "--generators", "generators.json"],
    "gram-t3-d4-sp": ["gram", "--t", "3", "--d", "4", "--group", "sp"],
    "gram-t2-d3-o": ["gram", "--t", "2", "--d", "3", "--group", "o"],
    "gram-t2-d2-sp": ["gram", "--t", "2", "--d", "2", "--group", "sp"],
    "twirl-t2-d2-sp": ["twirl", "--t", "2", "--d", "2", "--group", "sp",
                       "--input", "x_2_2.npy"],
    "twirl-t2-d3-o": ["twirl", "--t", "2", "--d", "3", "--group", "o",
                      "--input", "x_2_3.npy"],
    "simulate": ["simulate", "--circuit", "circuit.json", "--state", "3"],
    "collision": ["collision", "--n", "9", "--layers", "6"],
    "anticoncentration-depth": ["anticoncentration-depth", "--n-min", "2", "--n-max", "10",
                                "--out", "depth.csv"],
}
CASES.update({f"{name}-dry-run": [*argv, "--dry-run"] for name, argv in list(CASES.items())})


def _inputs(tmp: Path) -> None:
    (tmp / "generators.json").write_text(json.dumps(CUSTOM_SET))
    (tmp / "circuit.json").write_text(json.dumps(CIRCUIT))
    for t, d in ((2, 2), (2, 3)):
        np.save(tmp / f"x_{t}_{d}.npy", operator(t, d))


def _read_csv(path: Path) -> list:
    """The depth CSV as [n, n_L*, z_trace] rows, the trace parsed from JSON."""
    with open(path, newline="") as f:
        return [[int(r["n"]), r["n_L_star"] and int(r["n_L_star"]), json.loads(r["z_trace"])]
                for r in csv.DictReader(f)]


def run_case(argv) -> dict:
    """The envelope of one in-process run in a fresh directory, and the CSV it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _inputs(tmp)
        argv = [str(tmp / a) if a in FILES else a for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        envelope = json.loads(out.getvalue().replace(f"{tmp}/", ""))
        del envelope["build_id"], envelope["wall_clock_s"]
        case = {"envelope": envelope}
        if (tmp / "depth.csv").exists():
            case["csv"] = _read_csv(tmp / "depth.csv")
        return case


def golden_payloads() -> dict:
    return {"numpy": np.__version__, "cases": {name: run_case(argv) for name, argv in CASES.items()}}


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


def assert_matches(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=where)
    else:  # int (n_L* too), bool, str, None
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("name", CASES)
def test_deterministic_output_matches_the_fixture(fixture, name):
    assert sorted(fixture["cases"]) == sorted(CASES)
    try:
        assert_matches(run_case(CASES[name]), fixture["cases"][name], name)
    except AssertionError as e:
        raise AssertionError(f"{e}\n(fixture made with numpy {fixture['numpy']}, "
                             f"this run uses numpy {np.__version__})") from None


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(golden_payloads(), indent=1) + "\n")
