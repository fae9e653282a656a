"""End-to-end benchmark of the `spcirc` CLI, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gp-n8 --seed 1 --seconds 10 --trace 0

Every CLI run is its own `python3 -m spcirc.cli` process on inputs made from
``--seed``, launched from a work directory under ``.bench_build/`` that is
removed at exit. Thread counts and BLAS settings stay at their defaults.

``--trace 0`` times whole runs (closed loop, one process at a time), as many
as fit in ``--seconds`` at the workload's nominal run time, and prints the
end-to-end metrics: ``wall_s``
(launch to exit), ``setup_s`` (the same argv plus ``--dry-run``),
``work_per_s`` and ``peak_rss_mb`` (from wait4). ``--trace 1`` makes one
untraced run and one traced run (perfbench/layertrace.py) and prints the
per-layer metrics. Every run passes the workload's correctness gate, checked
after the timed region. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layertrace import load_spans, totals, union_length
from workloads import WORKLOADS, same_payload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5     # dry runs per benchmark run; setup_s is their median
RUN_TIMEOUT_S = 150   # a single CLI run that takes longer is killed and failed
MB = 1e6


class Run:
    """One finished CLI process."""

    def __init__(self, wall_s, maxrss_kb, code, stdout, stderr):
        self.wall_s = wall_s
        self.peak_rss_mb = maxrss_kb * 1024 / MB
        self.code = code
        self.stdout = stdout
        self.stderr = stderr

    def problems(self) -> list:
        out = []
        if self.code != 0:
            out.append(f"exit code {self.code}: {self.stderr.strip()[-300:]}")
        if "Traceback" in self.stderr:
            out.append(f"Traceback on stderr: {self.stderr.strip()[-300:]}")
        return out


class Harness:
    def __init__(self, workload, seed: int, work: Path):
        self.wl = workload
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.prep = workload.prepare(seed, work)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def count(self, problems) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)
        return not problems

    def launch(self, cmd) -> Run:
        """Run ``cmd`` to completion; wall time is launch to exit."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work,
                                    env=self.env)
            killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(wall, usage.ru_maxrss, proc.returncode,
                   out_path.read_text(), err_path.read_text(errors="replace"))

    def cli(self, extra=()) -> Run:
        return self.launch([sys.executable, "-m", "spcirc.cli", *self.prep.argv, *extra])

    def gate(self, run: Run, extra_problems=()) -> bool:
        """Count the run and check it; outside every timed region."""
        problems = run.problems()
        if not problems:
            try:
                problems = self.wl.check(self.prep, run.stdout, self.work)
            except (OSError, ValueError, KeyError, TypeError) as e:
                problems = [f"unreadable output: {type(e).__name__}: {e}"]
        return self.count(list(problems) + list(extra_problems))

    def dry_run(self) -> Run:
        run = self.cli(["--dry-run"])
        problems = run.problems()
        if not problems and not json.loads(run.stdout)["payload"].get("validated"):
            problems = ["dry run did not validate"]
        self.count(problems)
        return run

    def threads_one(self, default: Run) -> Run:
        """The same run at --threads 1; its payload must equal the default's."""
        run = self.cli(["--threads", "1"])
        ok_pair = not run.problems() and not default.problems()
        self.gate(run, same_payload(default.stdout, run.stdout) if ok_pair else ())
        return run


# ---------------------------------------------------------------------------
# statistics

def percentile_summary(values) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    n = len(values)
    med = statistics.median(values)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return f"median {med:.6g}, n = {n} (no percentile has 10 samples beyond it)"
    q = statistics.quantiles(values, n=100, method="inclusive")[best - 1]
    return f"median {med:.6g}, p{best} {q:.6g}, n = {n}"


# ---------------------------------------------------------------------------
# untraced mode: end-to-end metrics

def measure(h: Harness, seconds: float) -> dict:
    # Dry runs alternate with the timed runs, so that a slow spell of the
    # machine cannot fall on all of them at once.
    n_runs = h.wl.runs(seconds)
    setups, runs = [], []
    for i in range(max(n_runs, SETUP_REPEATS)):
        if i < SETUP_REPEATS:
            setups.append(h.dry_run().wall_s)
        if i < n_runs:
            run = h.cli()
            runs.append(run)
            h.gate(run)
    if h.wl.threaded:
        h.threads_one(runs[0])
    walls = [r.wall_s for r in runs]
    rss = [r.peak_rss_mb for r in runs]
    print(f"wall_s: {percentile_summary(walls)}; runs: "
          + ", ".join(f"{w:.3f}" for w in walls))
    print(f"setup_s: {percentile_summary(setups)}")
    print(f"peak_rss_mb: {percentile_summary(rss)}")
    wall = statistics.median(walls)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (h.prep.units / wall, "units/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


# ---------------------------------------------------------------------------
# traced mode: per-layer metrics

# Per-layer metrics read straight off the span totals: (span name, field).
SPAN_METRICS = (
    ("sampler.sample_sp", "calls"), ("sampler.sample_sp", "self_s"),
    ("sampler.qr", "self_s"),
    ("gp_stats.run_gp_experiment", "self_s"),
    ("gp_stats.exact_covariance", "self_s"),
    ("circuit.pauli_apply", "calls"), ("circuit.pauli_apply", "self_s"),
    ("moment.propagate", "calls"), ("moment.propagate", "self_s"),
    ("moment.collision_probability", "calls"), ("moment.collision_probability", "self_s"),
    ("moment.block_transfer", "calls"), ("moment.block_transfer", "self_s"),
    ("brauer.twirl", "calls"), ("brauer.twirl", "self_s"),
    ("kernels.transfer_apply", "calls"), ("kernels.transfer_apply", "self_s"),
    ("kernels.closure_round", "calls"), ("kernels.closure_round", "self_s"),
    ("kernels.closure_round", "pairs"),
    ("lie_closure.closure", "self_s"), ("lie_closure.classify", "self_s"),
    ("cli.main", "self_s"),
)
UNITS = {"calls": "count", "self_s": "s", "pairs": "count"}


def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics from one traced run's spans (see layertrace.py)."""
    spans = doc["spans"]
    tot = totals(spans)
    out = {f"{name}.{field}": (tot.get(name, {}).get(field, 0), UNITS[field])
           for name, field in SPAN_METRICS}

    bt_calls = tot.get("moment.block_transfer", {}).get("calls", 0)
    block_ids = {s["id"] for s in spans if s["name"] == "moment.block_transfer"}
    misses = len({s["parent"] for s in spans
                  if s["name"] == "brauer.twirl" and s["parent"] in block_ids})
    out["moment.block_transfer.cache_hit_ratio"] = (
        1.0 - misses / bt_calls if bt_calls else 0.0, "ratio")

    flops = nbytes = peak = 0
    for s in spans:
        if s["name"] == "kernels.transfer_apply":
            a = s["attrs"]
            vin, vout = a["L"] * a["din"] * a["R"], a["L"] * a["dout"] * a["R"]
            flops += 2 * vin * a["dout"]
            nbytes += 8 * (vin + vout + a["din"] * a["dout"])
            peak = max(peak, 8 * max(vin, vout))
    out["kernels.transfer_apply.flops"] = (flops, "flop")
    out["kernels.transfer_apply.bytes"] = (nbytes, "B")
    out["moment.label_vector_peak_mb"] = (peak / MB, "MB")
    out["pauli.in_sp_algebra.calls"] = (doc["counts"].get("pauli.in_sp_algebra", 0), "count")
    out["cli.import_s"] = (doc["import_s"], "s")
    return out


def traced(h: Harness) -> dict:
    setup = statistics.median(h.dry_run().wall_s for _ in range(SETUP_REPEATS))
    plain = h.cli()
    h.gate(plain)
    efficiency = 0.0
    if h.wl.threaded and h.failed == 0:
        one = h.threads_one(plain)
        threads = json.loads(plain.stdout)["config"]["threads"]
        efficiency = one.wall_s / (threads * plain.wall_s)

    spans_path = h.work / "spans.json"
    run = h.launch([sys.executable, str(HERE / "layertrace.py"), "--spans",
                    str(spans_path), "--run-id", f"{h.wl.name}-{os.getpid()}",
                    "--", *h.prep.argv])
    if not h.gate(run) or not spans_path.is_file():
        raise SystemExit(f"traced run failed: {h.problems}")
    doc = load_spans(spans_path)
    out = layer_metrics(doc)
    out["gp_stats.parallel_efficiency"] = (efficiency, "ratio")
    layer_spans = [(s["start"], s["end"]) for s in doc["spans"] if s["name"] != "cli.main"]
    out["trace.coverage"] = (union_length(layer_spans) / (run.wall_s - setup), "ratio")
    out["trace.overhead_s"] = (run.wall_s - plain.wall_s, "s")
    print(f"traced wall {run.wall_s:.3f} s, untraced wall {plain.wall_s:.3f} s, "
          f"setup {setup:.3f} s, {len(doc['spans'])} spans")
    return out


# ---------------------------------------------------------------------------
# machine block

def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine_info() -> dict:
    import numpy as np
    import scipy

    from spcirc import kernels

    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cache = "/sys/devices/system/cpu/cpu0/cache/index{}/size"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_per_core": _read(cache.format(2)),
        "l3": _read(cache.format(3)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "has_numba": kernels.HAS_NUMBA,
        "commit": commit or "unknown (not a git checkout)",
        "working_sets_mb": {
            "depth-sweep label vector, n=14": 2 * 3**13 * 8 / MB,
            "gp-n8 Haar draw, d=256": 256**2 * 16 / MB,
            "closure-n8 seen table": 4**8 / MB,
        },
    }


# ---------------------------------------------------------------------------

def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description="benchmark the spcirc CLI")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spcirc" / "cli.py").is_file():
        print(f"error: no spcirc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_build" / f"perfbench-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        h = Harness(WORKLOADS[args.workload], args.seed, work)
        print(f"workload {args.workload}: spcirc {' '.join(h.prep.argv)} "
              f"({h.prep.units:g} {h.prep.unit_name} per run)")
        print("machine: " + json.dumps(machine_info()))
        metrics = traced(h) if args.trace else measure(h, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in h.problems:
        print(f"FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
