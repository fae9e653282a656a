"""The benchmark's workloads: inputs made from a seed, and correctness gates.

Each workload is one `spcirc` subcommand at fixed n. ``prepare`` writes the
inputs the program receives (the GP config) into a work directory and
returns the argv; ``check`` inspects one finished run and
returns a list of problems, empty when the output is correct. Gates run after
the timed region and never feed back into it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# n_L* for n = 4..14 at epsilon = 0.01, from the exact label propagator.
DEPTH_N = tuple(range(4, 15))
DEPTH_N_L_STAR = (7, 9, 11, 12, 13, 14, 15, 15, 16, 16, 17)
DEPTH_EPSILON = 0.01

GP_N = 8
GP_SAMPLES = 200
GP_BATCHES = 20
CLOSURE_N = 8


@dataclass
class Prepared:
    """What one workload hands the program: its argv and work units."""

    argv: list
    units: float
    unit_name: str


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, tag))])


# ---------------------------------------------------------------------------
# gp-n8: criterion-7 GP summary

def prepare_gp(seed: int, work: Path) -> Prepared:
    config = {
        "schema_version": 1,
        "n": GP_N,
        "observable": "I" + "Y" + "I" * (GP_N - 2),
        "states": [
            {"kind": "computational_basis", "x": 0},
            {"kind": "superposition_pair", "flip_qubit": 2},
        ],
        "samples": GP_SAMPLES,
        "batches": GP_BATCHES,
    }
    (work / "gp.json").write_text(json.dumps(config, indent=2) + "\n")
    program_seed = int(_rng(seed, "gp").integers(2**31))
    argv = ["gp-summary", "--config", "gp.json", "--seed", str(program_seed)]
    return Prepared(argv, GP_SAMPLES, "Haar draws")


def check_gp(prep: Prepared, stdout: str, work: Path) -> list:
    p = json.loads(stdout)["payload"]
    errors = []
    if p.get("n") != GP_N or p.get("samples") != GP_SAMPLES:
        errors.append(f"gp: n/samples {p.get('n')}/{p.get('samples')}")
    cov = np.asarray(p["covariance"])
    se = np.asarray(p["covariance_se"])
    exact = np.asarray(p["exact_covariance"])
    if cov.shape != (2, 2) or exact.shape != (2, 2):
        return errors + [f"gp: covariance shape {cov.shape}"]
    dev = np.abs(cov - exact)
    if not np.all(dev <= 4.0 * se):
        errors.append(f"gp: |cov - exact| {dev.max():.3e} exceeds 4 batch SE")
    return errors


def same_payload(a: str, b: str) -> list:
    """The GP payload must not depend on the thread count."""
    pa, pb = json.loads(a)["payload"], json.loads(b)["payload"]
    if pa != pb:
        keys = sorted(k for k in pa if pa.get(k) != pb.get(k))
        return [f"payload differs between thread counts in {keys}"]
    return []


# ---------------------------------------------------------------------------
# depth-sweep: n_L* for n = 4..14 from the label propagator

def prepare_depth(seed: int, work: Path) -> Prepared:
    argv = ["anticoncentration-depth", "--n-min", str(DEPTH_N[0]),
            "--n-max", str(DEPTH_N[-1]), "--out", "depth.csv"]
    units = sum(s * (n - 1) for n, s in zip(DEPTH_N, DEPTH_N_L_STAR))
    return Prepared(argv, units, "label-block updates")


def check_depth(prep: Prepared, stdout: str, work: Path) -> list:
    p = json.loads(stdout)["payload"]
    errors = []
    with open(work / "depth.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    ns = [int(r["n"]) for r in rows]
    stars = [int(r["n_L_star"]) if r["n_L_star"] else None for r in rows]
    if ns != list(DEPTH_N) or stars != list(DEPTH_N_L_STAR):
        errors.append(f"depth: n_L* {stars} for n {ns}")
    for n, r in zip(ns, rows):
        z = json.loads(r["z_trace"])[-1]
        z_haar = 2.0 / (2**n + 1)
        if not abs(z_haar - z) < DEPTH_EPSILON / 2**n:
            errors.append(f"depth: final z {z} at n = {n} not within eps/d of {z_haar}")
    r2 = p.get("fit", {}).get("r_squared", 0.0)
    if not r2 >= 0.98:
        errors.append(f"depth: fit R^2 {r2} < 0.98")
    return errors


# ---------------------------------------------------------------------------
# closure-n8: Lie closure of the theorem-1 generators

def prepare_closure(seed: int, work: Path) -> Prepared:
    argv = ["closure", "--set", "theorem1", "--n", str(CLOSURE_N),
            "--max-dim", str(4**CLOSURE_N)]
    d = 2**CLOSURE_N
    return Prepared(argv, d * (d + 1) // 2, "closure directions")


def check_closure(prep: Prepared, stdout: str, work: Path) -> list:
    p = json.loads(stdout)["payload"]
    d = 2**CLOSURE_N
    if p.get("dimension") != d * (d + 1) // 2 or p.get("classification") != "sp":
        return [f"closure: dimension {p.get('dimension')}, "
                f"classification {p.get('classification')!r}"]
    return []


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    check: object
    # seconds one CLI run took when the benchmark was defined; it fixes how
    # many runs fit in --seconds, so both sides of a comparison make the same
    # number of runs whatever their speed
    nominal_s: float
    # takes --threads: every benchmark run also makes one --threads 1 run,
    # whose payload must equal the default-thread payload; the traced run
    # times it for the parallel efficiency
    threaded: bool = False

    def runs(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gp-n8", prepare_gp, check_gp, 5.5, threaded=True),
        Workload("depth-sweep", prepare_depth, check_depth, 9.5),
        Workload("closure-n8", prepare_closure, check_closure, 16.0),
    )
}
