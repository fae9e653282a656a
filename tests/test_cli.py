"""End-to-end CLI checks, run in-process through main()."""

import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spcirc
from spcirc import brauer, circuit, cli, lie_closure, moment
from spcirc.cli import main
from spcirc.errors import MEMORY_LIMIT, CapacityError, ConsistencyError, DomainError
from spcirc.sampler import check_sample, symplectic_defect


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out, parse_constant=reject_constant)


def gp_config(tmp_path, **overrides):
    data = {
        "schema_version": 1,
        "n": 3,
        "observable": "IYI",
        "samples": 60,
        "batches": 6,
        "states": [
            {"kind": "computational_basis", "x": 0},
            {"kind": "superposition_pair", "flip_qubit": 2},
        ],
    }
    data.update(overrides)
    path = tmp_path / "gp.json"
    path.write_text(json.dumps(data))
    return str(path)


# -- envelope ---------------------------------------------------------------------

def test_envelope_structure(capsys):
    env = run_json(["closure", "--set", "theorem1", "--n", "2"], capsys)
    assert env["schema_version"] == 1
    assert env["command"] == "closure"
    assert env["config"] == {"set": "theorem1", "n": 2, "generators": None, "max_dim": 4**7}
    assert re.fullmatch(r"spcirc-0\.1\.0\+[0-9a-f]{8}", env["build_id"])
    assert env["wall_clock_s"] >= 0.0
    assert env["payload"]["dimension"] == 10


def test_config_echoes_every_parsed_option(tmp_path, capsys):
    argv = ["concentration", "--n", "3", "--samples", "40", "--thresholds", "0.5",
            "--seed", "1", "--dry-run"]
    assert run_json(argv, capsys)["config"] == {
        "seed": 1, "threads": 1, "n": 3, "samples": 40, "thresholds": "0.5",
        "state": "basis", "observable": None}
    # and what the plan read: the gp config as resolved
    cfg = gp_config(tmp_path)
    assert run_json(["gp-summary", "--config", cfg, "--seed", "2", "--dry-run"],
                    capsys)["config"] == {
        "seed": 2, "threads": 1, "config": cfg, "out": None,
        "resolved": json.loads(Path(cfg).read_text())}


# -- closure ---------------------------------------------------------------------

def test_closure_theorem1(capsys):
    env = run_json(["closure", "--set", "theorem1", "--n", "3"], capsys)
    assert env["payload"] == {
        "dimension": 36,
        "classification": "sp",
        "basis_count": 36,
        "iterations": env["payload"]["iterations"],
    }


def test_closure_prop2(capsys):
    env = run_json(["closure", "--set", "prop2", "--n", "3"], capsys)
    assert env["payload"]["dimension"] == 63
    assert env["payload"]["classification"] == "su"


def test_closure_custom_generators(tmp_path, capsys):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps(["YI", "IY", "XI", "ZZ"]))
    env = run_json(
        ["closure", "--set", "custom", "--n", "2", "--generators", str(gens)],
        capsys,
    )
    assert env["payload"]["dimension"] == 10
    assert env["payload"]["classification"] == "sp"
    assert env["config"]["generators"] == ["YI", "IY", "XI", "ZZ"]


def test_closure_custom_requires_file(capsys):
    code, _, err = run(["closure", "--set", "custom", "--n", "2"], capsys)
    assert code == 1
    assert "generators" in err


def test_closure_capacity_exit_code(capsys):
    code, _, err = run(["closure", "--set", "theorem1", "--n", "13"], capsys)
    assert code == 2
    assert "capacity" in err


def test_bad_arguments_exit_one_with_usage(capsys):
    code, _, err = run(["closure", "--set", "nope", "--n", "2"], capsys)
    assert code == 1
    assert "usage:" in err
    code, _, _ = run(["no-such-command"], capsys)
    assert code == 1


def test_dry_run_skips_work(capsys):
    # the dry run only plans this closure, whose real run takes about 5 s
    env = run_json(["closure", "--set", "theorem1", "--n", "12", "--dry-run"], capsys)
    assert env["payload"] == {"validated": True, "dry_run": True}
    assert env["wall_clock_s"] < 5.0


# -- sample -----------------------------------------------------------------------

def test_sample_writes_symplectic_npy(tmp_path, capsys):
    out = tmp_path / "s.npy"
    env = run_json(
        ["sample", "--group", "sp", "--d", "4", "--count", "3",
         "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert env["payload"]["shape"] == [3, 4, 4]
    arr = np.load(out)
    assert arr.shape == (3, 4, 4)
    for s in arr:
        assert symplectic_defect(s) <= 1e-10

    out2 = tmp_path / "s2.npy"
    run_json(
        ["sample", "--group", "sp", "--d", "4", "--count", "3",
         "--seed", "5", "--out", str(out2)],
        capsys,
    )
    assert np.array_equal(arr, np.load(out2))
    out3 = tmp_path / "s3.npy"
    run_json(
        ["sample", "--group", "sp", "--d", "4", "--count", "3",
         "--seed", "6", "--out", str(out3)],
        capsys,
    )
    assert not np.array_equal(arr, np.load(out3))


def test_sample_requires_seed(tmp_path, capsys):
    code, _, err = run(
        ["sample", "--group", "sp", "--d", "4", "--count", "1",
         "--out", str(tmp_path / "x.npy")],
        capsys,
    )
    assert code == 1
    assert "--seed" in err


def test_sample_odd_sp_dimension(tmp_path, capsys):
    code, _, _ = run(
        ["sample", "--group", "sp", "--d", "3", "--count", "1",
         "--seed", "0", "--out", str(tmp_path / "x.npy")],
        capsys,
    )
    assert code == 1


def test_sample_dry_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "nope.npy"
    env = run_json(
        ["sample", "--group", "u", "--d", "4", "--count", "2",
         "--seed", "1", "--out", str(out), "--dry-run"],
        capsys,
    )
    assert env["payload"]["dry_run"] is True
    assert not out.exists()


# -- gram and twirl ------------------------------------------------------------------

def test_gram_frozen_sp_d4(capsys):
    env = run_json(["gram", "--t", "2", "--d", "4", "--group", "sp"], capsys)
    p = env["payload"]
    assert p["diagrams"] == ["(1,3)(2,4)", "(1,4)(2,3)", "(1,2)(3,4)"]
    assert p["entries"] == [[16, 4, -4], [4, 16, 4], [-4, 4, 16]]
    assert p["pseudo_inverse"] is False
    assert p["delta"] == -4  # sp loop value: trace of the pair projector
    want = np.array([[3, -1, 1], [-1, 3, -1], [1, -1, 3]]) / 40.0
    assert np.abs(np.array(p["inverse"]) - want).max() <= 1e-12


def test_gram_pseudo_inverse_at_small_d(capsys):
    env = run_json(["gram", "--t", "2", "--d", "2", "--group", "sp"], capsys)
    assert env["payload"]["pseudo_inverse"] is True


def test_twirl_swap_coefficients(tmp_path, capsys):
    swap = brauer.represent(
        brauer.diagram_from_string("(1,4)(2,3)"), 4, form="sp"
    )
    path = tmp_path / "swap.npy"
    np.save(path, swap)
    env = run_json(
        ["twirl", "--t", "2", "--d", "4", "--group", "sp", "--input", str(path)],
        capsys,
    )
    p = env["payload"]
    assert p["diagram_order"] == ["(1,3)(2,4)", "(1,4)(2,3)", "(1,2)(3,4)"]
    coeff = p["coefficients"]
    assert coeff["(1,4)(2,3)"][0] == pytest.approx(1.0, abs=1e-10)
    assert coeff["(1,3)(2,4)"][0] == pytest.approx(0.0, abs=1e-10)
    assert coeff["(1,2)(3,4)"][0] == pytest.approx(0.0, abs=1e-10)
    assert p["residual"] <= 1e-10

    out = tmp_path / "coeff.json"
    env = run_json(
        ["twirl", "--t", "2", "--d", "4", "--group", "sp",
         "--input", str(path), "--out", str(out)],
        capsys,
    )
    assert env["payload"] == {"path": str(out)}
    assert json.loads(out.read_text())["coefficients"] == coeff


def test_twirl_shape_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.npy"
    np.save(bad, np.eye(5))
    code, _, err = run(
        ["twirl", "--t", "2", "--d", "4", "--group", "sp", "--input", str(bad)],
        capsys,
    )
    assert code == 1 and "shape" in err
    code, _, _ = run(
        ["twirl", "--t", "2", "--d", "4", "--group", "sp",
         "--input", str(tmp_path / "missing.npy")],
        capsys,
    )
    assert code == 1


# -- simulate --------------------------------------------------------------------

def test_simulate_matches_direct_apply(tmp_path, capsys):
    circ = circuit.build_theorem1_block(2, [0.3, -0.2, 0.5, 1.1])
    spec = tmp_path / "circ.json"
    spec.write_text(json.dumps(circuit.circuit_to_json(circ)))
    env = run_json(["simulate", "--circuit", str(spec)], capsys)
    got = np.array([complex(re, im) for re, im in env["payload"]["amplitudes"]])
    want = circuit.apply(circ, circuit.initial_state(2)).amplitudes
    assert np.abs(got - want).max() <= 1e-12
    assert env["payload"]["norm"] == pytest.approx(1.0)

    out = tmp_path / "amps.npy"
    env = run_json(
        ["simulate", "--circuit", str(spec), "--state", "2", "--out", str(out)],
        capsys,
    )
    want2 = circuit.apply(circ, circuit.initial_state(2, 2)).amplitudes
    assert np.abs(np.load(out) - want2).max() <= 1e-12


def circuit_file(tmp_path, n):
    spec = tmp_path / "circ.json"
    circ = circuit.build_theorem1_block(n, np.linspace(0.1, 1.0, 3 * n - 2))
    spec.write_text(json.dumps(circuit.circuit_to_json(circ)))
    return str(spec)


def dry_run_peak(argv, capsys) -> int:
    """The traced peak of a dry run of ``argv``, which must exit 0."""
    tracemalloc.start()
    try:
        code = main(argv + ["--dry-run"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    return peak


def test_simulate_dry_run_allocates_nothing_large(tmp_path, capsys):
    argv = ["simulate", "--circuit", circuit_file(tmp_path, 20)]
    assert dry_run_peak(argv, capsys) < 2**20  # the initial state alone would be 16 * 2**20 bytes


# The first n the sampling byte bound refuses at 40 draws: for one pure state
# (the tail subcommands) and for the two states of gp_config
ONE_STATE_REFUSED_N = 23
TWO_STATES_REFUSED_N = 22

SAMPLED_AT_N20 = {
    "gp": ["gp", "--config", "{cfg}", "--seed", "1", "--out", "{tmp}/o.csv"],
    "gp-summary": ["gp-summary", "--config", "{cfg}", "--seed", "1"],
    "concentration": ["concentration", "--n", "20", "--samples", "40", "--thresholds", "0.5",
                      "--state", "pair", "--seed", "1"],
    "anticoncentration": ["anticoncentration", "--n", "20", "--samples", "40", "--alphas",
                          "0.5", "--seed", "1"],
}


@pytest.mark.parametrize("command", SAMPLED_AT_N20)
def test_sampled_dry_run_allocates_nothing_large(tmp_path, command, capsys):
    """The plan checks the run's bytes without building a d-sized state."""
    cfg = gp_config(tmp_path, n=20, observable="IY" + "I" * 18)
    argv = [a.format(cfg=cfg, tmp=tmp_path) for a in SAMPLED_AT_N20[command]]
    assert dry_run_peak(argv, capsys) < 2**20  # one state alone would be 16 * 2**20 bytes


def test_sampled_byte_bound_admits_the_n_below_the_first_refused(tmp_path, capsys):
    cfg = gp_config(tmp_path, n=TWO_STATES_REFUSED_N - 1, observable="IY" + "I" * 19)
    assert run(["gp-summary", "--config", cfg, "--seed", "1", "--dry-run"], capsys)[0] == 0
    n = str(ONE_STATE_REFUSED_N - 1)
    assert run(["anticoncentration", "--n", n, "--samples", "40", "--alphas", "0.5",
                "--seed", "1", "--dry-run"], capsys)[0] == 0
    assert run(["concentration", "--n", n, "--samples", "40", "--thresholds", "0.5",
                "--seed", "1", "--dry-run"], capsys)[0] == 0


def test_simulate_state_out_of_range(tmp_path, capsys):
    spec = circuit_file(tmp_path, 3)
    for state in ("8", "-1"):
        for extra in (["--dry-run"], []):
            code, _, err = run(["simulate", "--circuit", spec, "--state", state] + extra,
                               capsys)
            assert code == 1 and "out of range" in err


def test_simulate_rejects_bad_json(tmp_path, capsys):
    spec = tmp_path / "broken.json"
    spec.write_text("{not json")
    code, _, err = run(["simulate", "--circuit", str(spec)], capsys)
    assert code == 1
    assert "JSON" in err


# -- gp family -----------------------------------------------------------------------

def test_gp_csv_reproducible(tmp_path, capsys):
    cfg = gp_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    env = run_json(
        ["gp", "--config", cfg, "--seed", "9", "--out", str(out_a),
         "--threads", "1"],
        capsys,
    )
    assert env["payload"]["rows"] == 120  # 60 samples x 2 states
    run_json(
        ["gp", "--config", cfg, "--seed", "9", "--out", str(out_b),
         "--threads", "2"],
        capsys,
    )
    assert out_a.read_bytes() == out_b.read_bytes()
    run_json(
        ["gp", "--config", cfg, "--seed", "10", "--out", str(out_c),
         "--threads", "1"],
        capsys,
    )
    assert out_a.read_bytes() != out_c.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0] == "sample_id,state_id,value"
    assert len(lines) == 121
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    float(first[2])


@pytest.mark.parametrize("argv", [
    ["gp", "--config", "{cfg}", "--seed", "9", "--out", "{out}"],
    ["gp-summary", "--config", "{cfg}", "--seed", "9"],
    ["concentration", "--n", "3", "--samples", "60", "--thresholds", "0.1,0.3", "--seed", "9"],
    ["anticoncentration", "--n", "3", "--samples", "60", "--alphas", "0,0.5", "--seed", "9"],
], ids=lambda argv: argv[0])
def test_threads_give_identical_payloads(tmp_path, argv, capsys):
    """--threads has no effect: sampling runs in one thread. The option stays
    parsed while the benchmark passes --threads 1 and compares payloads."""
    cfg = gp_config(tmp_path)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"values{threads}.csv"
        args = [a.format(cfg=cfg, out=out) for a in argv] + ["--threads", threads]
        payload = run_json(args, capsys)["payload"]
        payload.pop("path", None)
        outputs.append((json.dumps(payload), out.read_bytes() if out.exists() else b""))
    assert outputs[0] == outputs[1]


def test_gp_rejects_unknown_config_field(tmp_path, capsys):
    cfg = gp_config(tmp_path, extra_knob=3)
    code, _, err = run(
        ["gp", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "o.csv")],
        capsys,
    )
    assert code == 1
    assert "gp config" in err


def test_gp_requires_seed(tmp_path, capsys):
    cfg = gp_config(tmp_path)
    code, _, err = run(["gp", "--config", cfg, "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 1
    assert "--seed" in err


def test_gp_summary_payload(tmp_path, capsys):
    cfg = gp_config(tmp_path)
    env = run_json(["gp-summary", "--config", cfg, "--seed", "9"], capsys)
    p = env["payload"]
    assert p["n"] == 3
    assert p["samples"] == 60
    assert p["state_labels"] == ["basis[0]", "pair[q2]"]
    assert p["observable"] == "IYI"
    assert p["theory_name"] == "overlapping-states"
    assert len(p["mean_vector"]) == 2
    assert np.array(p["covariance"]).shape == (2, 2)
    assert np.array(p["exact_covariance"]).shape == (2, 2)
    exact = np.array(p["exact_covariance"])
    assert exact[0, 0] == pytest.approx(2 * 0.5 / 9)
    # same seed as the gp command: identical draws underneath
    env2 = run_json(["gp-summary", "--config", cfg, "--seed", "9"], capsys)
    assert env2["payload"]["covariance"] == p["covariance"]


def test_gp_summary_out_file(tmp_path, capsys):
    cfg = gp_config(tmp_path)
    out = tmp_path / "summary.json"
    env = run_json(
        ["gp-summary", "--config", cfg, "--seed", "3", "--out", str(out)],
        capsys,
    )
    assert env["payload"] == {"path": str(out)}
    assert json.loads(out.read_text())["theory_name"] == "overlapping-states"


def test_gp_summary_is_strict_json_at_two_draws_per_batch(tmp_path, capsys):
    cfg = gp_config(tmp_path, samples=40, batches=20)
    code, out, err = run(["gp-summary", "--config", cfg, "--seed", "5", "--threads", "1"],
                         capsys)
    assert code == 0, err
    p = json.loads(out, parse_constant=reject_constant)["payload"]
    assert np.all(np.isfinite(p["covariance_se"]))


# -- concentration / anticoncentration ----------------------------------------------

def test_concentration_command(capsys):
    env = run_json(
        ["concentration", "--n", "2", "--samples", "40",
         "--thresholds", "0.3,0.6,0.9", "--seed", "4", "--threads", "1"],
        capsys,
    )
    p = env["payload"]
    assert p["sigma_squared"] == pytest.approx(0.25)
    assert len(p["empirical"]) == 3
    assert all(0.0 <= e <= 1.0 for e in p["empirical"])
    assert p["bound_t2"][0] == pytest.approx(0.25 / 0.09)
    assert p["gaussian_tail"][2] <= p["gaussian_tail"][0]


def test_concentration_empty_thresholds(capsys):
    code, _, _ = run(
        ["concentration", "--n", "2", "--samples", "40",
         "--thresholds", "", "--seed", "4"],
        capsys,
    )
    assert code == 1


def test_anticoncentration_command(capsys):
    env = run_json(
        ["anticoncentration", "--n", "2", "--samples", "40",
         "--alphas", "0,0.5,1", "--seed", "8", "--threads", "1"],
        capsys,
    )
    p = env["payload"]
    assert p["z_haar"] == pytest.approx(0.4)
    assert p["empirical"][0] == 1.0
    assert p["bound"] == [0.5, 0.125, 0.0]
    assert p["x_index"] == 0


# -- depth sweep ---------------------------------------------------------------------

def test_depth_sweep_csv_and_fit(tmp_path, capsys):
    out = tmp_path / "depth.csv"
    env = run_json(
        ["anticoncentration-depth", "--n-min", "2", "--n-max", "4",
         "--out", str(out)],
        capsys,
    )
    assert env["payload"]["path"] == str(out)
    assert "fit" in env["payload"]
    fit = env["payload"]["fit"]
    assert set(fit) == {"a", "b", "r_squared"}
    lines = out.read_text().splitlines()
    assert lines[0] == "n,n_L_star,z_trace"
    assert len(lines) == 4
    n2 = lines[1].split(",", 2)
    assert n2[0] == "2" and n2[1] == "1"
    trace = json.loads(n2[2].strip('"'))
    assert trace[0] == pytest.approx(1.0)
    assert trace[-1] == pytest.approx(0.4, abs=1e-9)


def test_depth_sweep_matches_the_label_engine(tmp_path, capsys):
    """The n = 2..16 sweep against the CSV the per-qubit label propagator
    wrote (tests/data): the same n_L* column, and every z within 1e-12
    relative plus one unit of the CSV's rounding to 15 decimals."""
    out = tmp_path / "depth.csv"
    run_json(["anticoncentration-depth", "--n-min", "2", "--n-max", "16",
              "--out", str(out)], capsys)
    with open(out, newline="") as f:
        got = list(csv.DictReader(f))
    with open(Path(__file__).parent / "data" / "depth_sweep_n2_16.csv", newline="") as f:
        want = list(csv.DictReader(f))
    assert [(r["n"], r["n_L_star"]) for r in got] == [(r["n"], r["n_L_star"]) for r in want]
    for row, ref in zip(got, want):
        z, z_ref = np.array(json.loads(row["z_trace"])), np.array(json.loads(ref["z_trace"]))
        assert z.shape == z_ref.shape
        assert np.all(np.abs(z - z_ref) <= 1e-12 * np.abs(z_ref) + 1e-15), row["n"]


def test_depth_sweep_writes_the_trace_in_full_precision(tmp_path, capsys):
    out = tmp_path / "depth.csv"
    run_json(["anticoncentration-depth", "--n-min", "20", "--n-max", "20",
              "--out", str(out)], capsys)
    with open(out, newline="") as f:
        (row,) = csv.DictReader(f)
    trace = json.loads(row["z_trace"])
    assert len(trace) == int(row["n_L_star"]) + 1
    assert trace == moment.collision_trace(20, len(trace) - 1)


def test_depth_unreached_column_empty(tmp_path, capsys):
    out = tmp_path / "depth.csv"
    env = run_json(
        ["anticoncentration-depth", "--n-min", "4", "--n-max", "5",
         "--max-layers", "1", "--out", str(out)],
        capsys,
    )
    assert env["payload"]["unreached"] == [4, 5]
    rows = out.read_text().splitlines()[1:]
    assert all(r.split(",")[1] == "" for r in rows)


def test_depth_bad_range(tmp_path, capsys):
    code, _, _ = run(
        ["anticoncentration-depth", "--n-min", "5", "--n-max", "3",
         "--out", str(tmp_path / "d.csv")],
        capsys,
    )
    assert code == 1


# -- collision -----------------------------------------------------------------------

def test_collision_single_layer_n2(capsys):
    env = run_json(["collision", "--n", "2", "--layers", "1"], capsys)
    p = env["payload"]
    assert p["z"] == pytest.approx(0.4, abs=1e-12)
    assert p["z_haar"] == pytest.approx(0.4)


def test_collision_zero_layers(capsys):
    env = run_json(["collision", "--n", "3", "--layers", "0"], capsys)
    assert env["payload"]["z"] == pytest.approx(1.0)


def test_collision_capacity(capsys):
    code, _, _ = run(["collision", "--n", "32", "--layers", "1"], capsys)
    assert code == 2


# -- dry-run contract -----------------------------------------------------------------

def assert_dry_run_exits_like_run(argv, code, capsys):
    """The dry run and the real run of ``argv`` both exit with ``code``, with
    no traceback, and a capacity error says why in under 300 characters."""
    for extra in (["--dry-run"], []):
        got, _, err = run(argv + extra, capsys)
        assert got == code, (extra, err)
        assert "Traceback" not in err
        assert code != 2 or len(err) < 300, err


SAMPLING_FAILURES = [
    pytest.param(["concentration", "--n", "4", "--samples", "40",
                  "--thresholds=-0.5"], 1, id="concentration-negative-threshold"),
    pytest.param(["concentration", "--n", "4", "--samples", "40",
                  "--thresholds", "0.5,abc"], 1, id="concentration-unparsable-threshold"),
    pytest.param(["concentration", "--n", "4", "--samples", "40",
                  "--thresholds", "0.5,inf"], 1, id="concentration-infinite-threshold"),
    pytest.param(["concentration", "--n", "4", "--samples", "5",
                  "--thresholds", "0.5"], 1, id="concentration-samples-below-batches"),
    pytest.param(["concentration", "--n", str(ONE_STATE_REFUSED_N), "--samples", "40",
                  "--thresholds", "0.5"], 2, id="concentration-n-over-limit"),
    pytest.param(["concentration", "--n", "0", "--samples", "40",
                  "--thresholds", "0.5"], 1, id="concentration-no-qubits"),
    pytest.param(["concentration", "--n", "4", "--samples", "40",
                  "--thresholds", "0.5", "--observable", "IXII"], 1,
                 id="concentration-observable-outside-algebra"),
    pytest.param(["anticoncentration", "--n", "3", "--samples", "40",
                  "--alphas", "1.5"], 1, id="anticoncentration-alpha-above-one"),
    pytest.param(["anticoncentration", "--n", "3", "--samples", "5",
                  "--alphas", "0.5"], 1, id="anticoncentration-samples-below-batches"),
    pytest.param(["anticoncentration", "--n", str(ONE_STATE_REFUSED_N), "--samples", "40",
                  "--alphas", "0.5"], 2, id="anticoncentration-n-over-limit"),
    pytest.param(["anticoncentration", "--n", "3", "--samples", "40",
                  "--alphas", "0.5", "--x", "8"], 1, id="anticoncentration-x-out-of-range"),
    pytest.param(["anticoncentration", "--n", str(ONE_STATE_REFUSED_N), "--samples", "40",
                  "--alphas", "0.5", "--x=-1"], 1,
                 id="anticoncentration-x-out-of-range-over-limit"),
]


@pytest.mark.parametrize("argv,code", SAMPLING_FAILURES)
def test_sampling_dry_run_fails_like_the_run(argv, code, capsys):
    assert_dry_run_exits_like_run(argv + ["--seed", "1", "--threads", "1"], code, capsys)


@pytest.mark.parametrize(
    "overrides,code",
    [
        pytest.param({"samples": 20, "batches": 30}, 1, id="samples-below-batches"),
        pytest.param({"n": TWO_STATES_REFUSED_N, "observable": "IY" + "I" * 20}, 2,
                     id="n-over-limit"),
        pytest.param({"states": [{"kind": "computational_basis", "x": 8}]}, 1,
                     id="x-out-of-range"),
        pytest.param({"states": [{"kind": "superposition_pair", "flip_qubit": 4}]}, 1,
                     id="flip-qubit-out-of-range"),
        pytest.param({"n": ONE_STATE_REFUSED_N, "observable": "IY" + "I" * 21,
                      "states": [{"kind": "computational_basis", "x": -1}]}, 1,
                     id="x-out-of-range-over-limit"),
        pytest.param({"n": ONE_STATE_REFUSED_N, "observable": "IY" + "I" * 21,
                      "states": [{"kind": "superposition_pair", "flip_qubit": 24}]}, 1,
                     id="flip-qubit-out-of-range-over-limit"),
        pytest.param({"observable": "IY"}, 1, id="observable-size"),
        pytest.param({"n": 3.0}, 1, id="float-n"),
        pytest.param({"samples": 60.0}, 1, id="float-samples"),
        pytest.param({"states": [{"kind": "computational_basis", "x": 1.0}]}, 1,
                     id="float-x"),
    ],
)
@pytest.mark.parametrize("command", ["gp", "gp-summary"])
def test_gp_dry_run_fails_like_the_run(tmp_path, command, overrides, code, capsys):
    cfg = gp_config(tmp_path, **overrides)
    argv = [command, "--config", cfg, "--seed", "1", "--threads", "1",
            "--out", str(tmp_path / "o.out")]
    assert_dry_run_exits_like_run(argv, code, capsys)


THREADED = [
    ["gp", "--config", "{cfg}", "--seed", "1", "--out", "{tmp}/o.csv"],
    ["gp-summary", "--config", "{cfg}", "--seed", "1"],
    ["concentration", "--n", "3", "--samples", "40", "--thresholds", "0.5",
     "--seed", "1"],
    ["anticoncentration", "--n", "3", "--samples", "40", "--alphas", "0.5",
     "--seed", "1"],
]


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("template", THREADED, ids=[t[0] for t in THREADED])
def test_threads_below_one_rejected(tmp_path, template, threads, capsys):
    cfg = gp_config(tmp_path)
    argv = [a.format(cfg=cfg, tmp=tmp_path) for a in template]
    assert_dry_run_exits_like_run(argv + ["--threads", threads], 1, capsys)
    # the same command with one thread runs
    assert run(argv + ["--threads", "1"], capsys)[0] == 0


@pytest.mark.parametrize("threads", ["1", "0", "-3"])
def test_depth_has_no_threads_option(tmp_path, threads, capsys):
    """The depth sweep runs serially; --threads is an unknown option there."""
    argv = ["anticoncentration-depth", "--n-min", "2", "--n-max", "3",
            "--out", str(tmp_path / "d.csv")]
    assert_dry_run_exits_like_run(argv + ["--threads", threads], 1, capsys)
    assert "threads" not in run_json(argv, capsys)["config"]


def plan_inputs(tmp_path):
    """Input files for the cases below: circuits just and far past the
    statevector bound, circuits whose angle is not a finite float, a circuit
    with a negative seed, a directory, a file that is not .npy, a 9 x 9
    operator, 16 x 16 operators with a NaN, an infinite or a 1e308 entry, a
    .npy whose header alone claims a 2**20 x 2**20 operator, a gp config with one draw
    per batch, one with 10**8 draws in vast/ and, for the empty --out
    cases, a two-qubit circuit and a valid gp config in valid/."""
    (tmp_path / "c2.json").write_text(json.dumps({"n": 2, "gates": []}))
    (tmp_path / "c24.json").write_text(json.dumps({"n": 24, "gates": []}))
    (tmp_path / "c1e18.json").write_text(json.dumps({"n": 10**18, "gates": []}))
    for name, theta in [("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity"),
                        ("1e400", str(10**400))]:
        (tmp_path / f"theta{name}.json").write_text(
            f'{{"n": 2, "gates": [{{"type": "rot", "pauli": "XY", "theta": {theta}}}]}}')
    for name, value in [("nan", np.nan), ("inf", np.inf), ("huge", 1e308)]:
        x = np.eye(16)
        x[3, 5] = value
        np.save(tmp_path / f"{name}16.npy", x)
    (tmp_path / "seed-1.json").write_text(json.dumps(
        {"n": 2, "gates": [{"type": "haar", "qubits": [1, 2], "group": "sp2"}], "seed": -1}))
    (tmp_path / "adir").mkdir()
    (tmp_path / "text.npy").write_text("not an array")
    np.save(tmp_path / "eye9.npy", np.eye(9))
    with open(tmp_path / "vast.npy", "wb") as f:
        np.lib.format.write_array_header_1_0(
            f, {"descr": "<f8", "fortran_order": False, "shape": (2**20, 2**20)})
        f.write(bytes(64))
    gp_config(tmp_path, samples=20, batches=20)
    (tmp_path / "valid").mkdir()
    gp_config(tmp_path / "valid")
    (tmp_path / "vast").mkdir()
    gp_config(tmp_path / "vast", samples=10**8)
    return tmp_path


PLAN_FAILURES = [
    pytest.param(["collision", "--n", "40", "--layers", "1"], 2, id="collision-n-over-budget"),
    pytest.param(["collision", "--n", "1", "--layers", "1"], 1, id="collision-one-qubit"),
    pytest.param(["anticoncentration-depth", "--n-min", "32", "--n-max", "32",
                  "--out", "{tmp}/d.csv"], 2, id="depth-n-over-budget"),
    pytest.param(["anticoncentration-depth", "--epsilon", "-1", "--out", "{tmp}/d.csv"], 1,
                 id="depth-negative-epsilon"),
    pytest.param(["anticoncentration-depth", "--epsilon", "inf", "--out", "{tmp}/d.csv"], 1,
                 id="depth-infinite-epsilon"),
    pytest.param(["anticoncentration-depth", "--epsilon", "nan", "--out", "{tmp}/d.csv"], 1,
                 id="depth-nan-epsilon"),
    pytest.param(["anticoncentration-depth", "--max-layers", "0", "--out", "{tmp}/d.csv"], 1,
                 id="depth-zero-max-layers"),
    pytest.param(["anticoncentration-depth", "--max-layers", "-1", "--out", "{tmp}/d.csv"], 1,
                 id="depth-negative-max-layers"),
    # layer counts past sys.maxsize, which itertools.islice refuses
    pytest.param(["collision", "--n", "3", "--layers", "99999999999999999999"], 1,
                 id="collision-layers-past-maxsize"),
    pytest.param(["anticoncentration-depth", "--max-layers", "99999999999999999999",
                  "--out", "{tmp}/d.csv"], 1, id="depth-max-layers-past-maxsize"),
    # a target below the rounding of the propagated z would read as unreached
    pytest.param(["anticoncentration-depth", "--n-min", "10", "--n-max", "12",
                  "--epsilon", "1e-14", "--out", "{tmp}/d.csv"], 1,
                 id="depth-epsilon-below-resolution"),
    # the byte rule is the closure's only cap, and --max-dim has no effect
    pytest.param(["closure", "--set", "theorem1", "--n", "8"], 0, id="closure-n8-needs-no-cap"),
    pytest.param(["closure", "--set", "theorem1", "--n", "13"], 2, id="closure-n13-over-budget"),
    pytest.param(["closure", "--set", "theorem1", "--n", "3", "--max-dim", "-1"], 1,
                 id="closure-negative-cap"),
    pytest.param(["closure", "--set", "theorem1", "--n", "3", "--max-dim", "0"], 1,
                 id="closure-zero-cap"),
    pytest.param(["closure", "--set", "theorem1", "--n", "3", "--max-dim", "-5"], 1,
                 id="closure-cap-minus-five"),
    pytest.param(["gram", "--t", "7", "--d", "4", "--group", "sp"], 2, id="gram-t-over-cap"),
    pytest.param(["gram", "--t", "0", "--d", "4", "--group", "sp"], 1, id="gram-t-zero"),
    pytest.param(["gram", "--t", "2", "--d", "0", "--group", "o"], 1, id="gram-d-zero"),
    pytest.param(["gram", "--t", "2", "--d", "-3", "--group", "o"], 1, id="gram-d-negative"),
    pytest.param(["simulate", "--circuit", "{tmp}/c24.json"], 2, id="simulate-n24"),
    pytest.param(["simulate", "--circuit", "{tmp}/c1e18.json"], 2, id="simulate-n1e18"),
    pytest.param(["simulate", "--circuit", "{tmp}/adir"], 1, id="simulate-circuit-directory"),
    pytest.param(["simulate", "--circuit", "{tmp}/seed-1.json"], 1, id="simulate-seed-negative"),
    pytest.param(["simulate", "--circuit", "{tmp}/thetanan.json"], 1, id="simulate-theta-nan"),
    pytest.param(["simulate", "--circuit", "{tmp}/thetainf.json"], 1, id="simulate-theta-inf"),
    pytest.param(["simulate", "--circuit", "{tmp}/theta-inf.json"], 1,
                 id="simulate-theta-minus-inf"),
    pytest.param(["simulate", "--circuit", "{tmp}/theta1e400.json"], 1,
                 id="simulate-theta-past-float-range"),
    pytest.param(["sample", "--group", "sp", "--d", "4", "--count", "2", "--seed", "1",
                  "--out", "{tmp}/missing/s.npy"], 1, id="sample-out-directory-missing"),
    pytest.param(["sample", "--group", "u", "--d", "16384", "--count", "1", "--seed", "1",
                  "--out", "{tmp}/s.npy"], 2, id="sample-over-byte-limit"),
    pytest.param(["twirl", "--t", "2", "--d", "3", "--group", "sp",
                  "--input", "{tmp}/eye9.npy"], 1, id="twirl-sp-odd-d"),
    pytest.param(["twirl", "--t", "2", "--d", "3", "--group", "o",
                  "--input", "{tmp}/text.npy"], 1, id="twirl-input-not-npy"),
    pytest.param(["twirl", "--t", "2", "--d", "4", "--group", "o",
                  "--input", "{tmp}/nan16.npy"], 1, id="twirl-input-nan"),
    pytest.param(["twirl", "--t", "2", "--d", "4", "--group", "sp",
                  "--input", "{tmp}/inf16.npy"], 1, id="twirl-input-inf"),
    pytest.param(["twirl", "--t", "2", "--d", "4", "--group", "o",
                  "--input", "{tmp}/huge16.npy"], 1, id="twirl-input-overflows"),
    pytest.param(["twirl", "--t", "5", "--d", "4", "--group", "sp",
                  "--input", "{tmp}/eye9.npy"], 2, id="twirl-table-over-byte-limit"),
    pytest.param(["twirl", "--t", "2", "--d", "4", "--group", "o",
                  "--input", "{tmp}/vast.npy"], 1, id="twirl-input-header-vast"),
    pytest.param(["gp", "--config", "{tmp}/adir", "--seed", "1", "--threads", "1",
                  "--out", "{tmp}/o.csv"], 1, id="gp-config-directory"),
    pytest.param(["gp-summary", "--config", "{tmp}/gp.json", "--seed", "1",
                  "--threads", "1"], 1, id="gp-summary-samples-equal-batches"),
    # a tail needs one draw per batch, not the two of a batch covariance
    pytest.param(["concentration", "--n", "3", "--samples", "20", "--thresholds", "0.5",
                  "--seed", "1", "--threads", "1"], 0,
                 id="concentration-samples-equal-batches"),
    # an empty --out names no file, for every subcommand that takes one
    pytest.param(["sample", "--group", "sp", "--d", "4", "--count", "2", "--seed", "1",
                  "--out", ""], 1, id="sample-out-empty"),
    pytest.param(["twirl", "--t", "2", "--d", "3", "--group", "o",
                  "--input", "{tmp}/eye9.npy", "--out", ""], 1, id="twirl-out-empty"),
    pytest.param(["simulate", "--circuit", "{tmp}/c2.json", "--out", ""], 1,
                 id="simulate-out-empty"),
    pytest.param(["gp", "--config", "{tmp}/valid/gp.json", "--seed", "1", "--threads", "1",
                  "--out", ""], 1, id="gp-out-empty"),
    pytest.param(["gp-summary", "--config", "{tmp}/valid/gp.json", "--seed", "1",
                  "--threads", "1", "--out", ""], 1, id="gp-summary-out-empty"),
    pytest.param(["anticoncentration-depth", "--n-min", "2", "--n-max", "3", "--out", ""], 1,
                 id="depth-out-empty"),
    # sizes whose byte count is vast: refused in O(1), never printed in digits
    pytest.param(["collision", "--n", "1000000", "--layers", "1"], 2, id="collision-n1e6"),
    pytest.param(["collision", "--n", str(10**18), "--layers", "1"], 2, id="collision-n1e18"),
    pytest.param(["anticoncentration-depth", "--n-max", "1000000", "--out", "{tmp}/d.csv"], 2,
                 id="depth-n-max-1e6"),
    pytest.param(["sample", "--group", "u", "--d", str(10**3000), "--count", "1", "--seed", "1",
                  "--out", "{tmp}/s.npy"], 2, id="sample-d1e3000"),
    pytest.param(["twirl", "--t", "2", "--d", str(10**3000), "--group", "o",
                  "--input", "{tmp}/eye9.npy"], 2, id="twirl-d1e3000"),
    pytest.param(["gram", "--t", "2", "--d", str(10**400), "--group", "o"], 2,
                 id="gram-d1e400"),
    pytest.param(["gram", "--t", "2", "--d", str(10**160), "--group", "o"], 2,
                 id="gram-d1e160"),
    pytest.param(["concentration", "--n", str(10**18), "--samples", "20", "--thresholds", "0.5",
                  "--seed", "1", "--threads", "1"], 2, id="concentration-n1e18"),
    pytest.param(["anticoncentration", "--n", str(10**18), "--samples", "40", "--alphas", "0.5",
                  "--seed", "1"], 2, id="anticoncentration-n1e18"),
    # sample counts whose values alone pass the byte bound: refused before any draw
    pytest.param(["gp-summary", "--config", "{tmp}/vast/gp.json", "--seed", "1"], 2,
                 id="gp-summary-samples-1e8"),
    pytest.param(["concentration", "--n", "4", "--samples", str(10**9), "--thresholds", "0.5",
                  "--seed", "1"], 2, id="concentration-samples-1e9"),
    pytest.param(["anticoncentration", "--n", "4", "--samples", str(10**9), "--alphas", "0.5",
                  "--seed", "1"], 2, id="anticoncentration-samples-1e9"),
    # a seed numpy would refuse only once the run draws
    pytest.param(["sample", "--group", "sp", "--d", "4", "--count", "1", "--seed", "-1",
                  "--out", "{tmp}/s.npy"], 1, id="sample-seed-negative"),
    pytest.param(["gp", "--config", "{tmp}/valid/gp.json", "--seed", "-1",
                  "--out", "{tmp}/o.csv"], 1, id="gp-seed-negative"),
    pytest.param(["gp-summary", "--config", "{tmp}/valid/gp.json", "--seed", "-5"], 1,
                 id="gp-summary-seed-negative"),
    pytest.param(["concentration", "--n", "3", "--samples", "20", "--thresholds", "0.5",
                  "--seed", "-1"], 1, id="concentration-seed-negative"),
    pytest.param(["anticoncentration", "--n", "3", "--samples", "20", "--alphas", "0.5",
                  "--seed", "-1"], 1, id="anticoncentration-seed-negative"),
]


@pytest.mark.parametrize("template,code", PLAN_FAILURES)
def test_plan_fails_like_the_run(tmp_path, template, code, capsys):
    tmp = plan_inputs(tmp_path)
    started = time.monotonic()
    assert_dry_run_exits_like_run([a.format(tmp=tmp) for a in template], code, capsys)
    assert time.monotonic() - started < 5.0


def test_simulate_inline_amplitudes_byte_bound(tmp_path, capsys):
    # about 150 B per amplitude printed inline: n = 22 fits, n = 23 needs --out
    for n in (22, 23):
        (tmp_path / f"c{n}.json").write_text(json.dumps({"n": n, "gates": []}))
    argv = ["simulate", "--circuit", str(tmp_path / "c23.json")]
    assert_dry_run_exits_like_run(argv, 2, capsys)
    assert run(argv + ["--out", str(tmp_path / "a.npy"), "--dry-run"], capsys)[0] == 0
    assert run(["simulate", "--circuit", str(tmp_path / "c22.json"), "--dry-run"], capsys)[0] == 0


def test_sample_byte_limit():
    # per entry of a d x d draw: 16 B per output draw and 80 B for one draw
    assert (16 * 11 + 80) * 2048**2 == MEMORY_LIMIT
    check_sample("u", 2048, 11)
    with pytest.raises(CapacityError):
        check_sample("u", 2048, 12)
    check_sample("sp", 3344, 1)
    with pytest.raises(CapacityError):
        check_sample("sp", 3346, 1)
    with pytest.raises(CapacityError):
        check_sample("u", 2**13, 1)  # the output alone is 1 GiB, its QR more


def test_consistency_error_exits_three(monkeypatch, capsys):
    def broken(*args):
        raise ConsistencyError("re-expansion residual")

    monkeypatch.setattr(moment, "block_step", broken)
    code, _, err = run(["collision", "--n", "2", "--layers", "1"], capsys)
    assert code == 3 and "consistency" in err and "Traceback" not in err


def test_value_error_inside_the_run_is_not_hidden(monkeypatch, capsys):
    """Only planning errors map to exit 1; one in the run is a program bug."""
    def broken(*args, **kwargs):
        raise ValueError("bug")

    monkeypatch.setattr(lie_closure, "closure", broken)
    with pytest.raises(ValueError, match="bug"):
        main(["closure", "--set", "theorem1", "--n", "2"])
    assert run(["closure", "--set", "theorem1", "--n", "2", "--dry-run"], capsys)[0] == 0


def fresh(code, path=os.path.dirname(os.path.dirname(spcirc.__file__))):
    """What ``python -c code`` prints, run with ``path`` first on the import path."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(path), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_import_leaves_scipy_out():
    code = ("import sys, spcirc.cli; print([m in sys.modules for m in "
            "('scipy', 'jsonschema', 'concurrent.futures')])")
    assert fresh(code) == "[False, False, False]"


def test_cli_run_starts_no_process():
    """Neither the import nor a run loads subprocess; a closure, which seeds no
    generator (numpy's seeding loads hashlib), leaves hashlib and its OpenSSL
    out too."""
    code = ("import contextlib, io, sys, spcirc.cli\n"
            "imported = 'subprocess' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    spcirc.cli.main(['closure', '--set', 'theorem1', '--n', '3'])\n"
            "print([imported, 'subprocess' in sys.modules, 'hashlib' in sys.modules])")
    assert fresh(code) == "[False, False, False]"


def test_build_id_names_the_package_sources(tmp_path):
    """One tree gives one id, wherever it lies; a one-byte edit changes it."""
    shutil.copytree(os.path.dirname(spcirc.__file__), tmp_path / "spcirc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = "import spcirc.cli; print(spcirc.cli._build_id())"
    first, again = fresh(code, tmp_path), fresh(code, tmp_path)
    assert re.fullmatch(r"spcirc-0\.1\.0\+[0-9a-f]{8}", first)
    assert first == again == cli._build_id()
    module = tmp_path / "spcirc" / "errors.py"
    module.write_bytes(module.read_bytes() + b"\n")
    assert fresh(code, tmp_path) != first


# -- fuzzed dry-run contract ----------------------------------------------------------

# Per subcommand: option -> (in-range values, out-of-range values or None).
# 10**6 and 10**18 are out of range for sizes, and a check must refuse them
# without computing 3**n or 2**n; 10**6 draws, samples or layers would be a
# valid, long run, so counts go out of range only through 0 and negatives.
BAD = st.sampled_from([0, -1, -5, 10**6, 10**18])
BAD_COUNT = st.sampled_from([0, -1, -5])
THREADS = (st.sampled_from([1, 2]), st.sampled_from([-1, 0]))
SEED = (st.just(1), st.sampled_from([-1, -5]))
FUZZ = {
    "closure": {"--set": (st.sampled_from(["theorem1", "prop2", "so-chain"]), None),
                "--n": (st.integers(2, 4), BAD), "--max-dim": (st.integers(16, 256), BAD)},
    "sample": {"--group": (st.sampled_from(["sp", "o", "so", "u"]), None),
               "--d": (st.sampled_from([2, 4, 8]), BAD),
               "--count": (st.integers(1, 2), BAD_COUNT), "--seed": SEED,
               "--out": (st.just("{tmp}/s.npy"), None)},
    "gram": {"--t": (st.integers(1, 3), BAD), "--d": (st.integers(1, 8), BAD),
             "--group": (st.sampled_from(["sp", "o"]), None)},
    "collision": {"--n": (st.integers(2, 4), BAD), "--layers": (st.integers(0, 2), BAD_COUNT)},
    "anticoncentration-depth": {
        "--n-min": (st.integers(2, 3), BAD), "--n-max": (st.integers(3, 4), BAD),
        "--epsilon": (st.sampled_from([0.01, 0.5, 10**6]), st.sampled_from([0, -1])),
        "--max-layers": (st.integers(1, 40), BAD),
        "--out": (st.just("{tmp}/d.csv"), None)},
    "concentration": {
        "--n": (st.integers(1, 4), BAD), "--samples": (st.integers(20, 40), BAD_COUNT),
        "--thresholds": (st.sampled_from(["0.1,0.5", "1e6"]),
                         st.sampled_from(["0", "-0.5", "x", ""])),
        "--state": (st.sampled_from(["basis", "pair"]), None),
        "--threads": THREADS, "--seed": SEED},
    "anticoncentration": {
        "--n": (st.integers(1, 4), BAD), "--samples": (st.integers(20, 40), BAD_COUNT),
        "--alphas": (st.sampled_from(["0,0.5,1", "0.2"]), st.sampled_from(["1.5", "-0.1", "x"])),
        "--x": (st.integers(0, 1), BAD), "--threads": THREADS, "--seed": SEED},
}


@st.composite
def cli_argv(draw):
    """An in-range argv, or one with a single option out of range."""
    cmd = draw(st.sampled_from(sorted(FUZZ)))
    options = FUZZ[cmd]
    broken = None
    if draw(st.booleans()):
        broken = draw(st.sampled_from([o for o, (_, bad) in options.items()
                                       if bad is not None]))
    argv = [cmd]
    for option, (good, bad) in options.items():
        argv += [option, str(draw(bad if option == broken else good))]
    return argv


def quiet_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200)
@given(template=cli_argv())
def test_fuzzed_dry_run_exits_like_the_run(tmp_path_factory, template):
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    argv = [a.format(tmp=tmp) for a in template]
    dry, dry_err = quiet_main(argv + ["--dry-run"])
    real, real_err = quiet_main(argv)
    assert real in (0, 1, 2, 3), real_err
    assert dry == real, (dry_err, real_err)
    assert "Traceback" not in dry_err + real_err
