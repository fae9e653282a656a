"""Span tracing for one in-process `spcirc` CLI run, and the span arithmetic.

Run as a script, this is the traced child process of the benchmark:

    PYTHONPATH=src python3 perfbench/layertrace.py --spans FILE -- <spcirc argv>

It imports ``spcirc.cli`` (timing the import), replaces the public functions
listed in ``SPANNED`` with wrappers wherever the package binds them (so
``gp_stats.sample_sp`` is wrapped as well as ``sampler.sample_sp``), runs
``spcirc.cli.main(argv)`` and writes every span once, at the end, as JSON.
The program's own code is not changed.

A span is (id, name, start, end, parent, thread, attrs). Parents are tracked
per thread; work submitted to a ``ThreadPoolExecutor`` inherits the span that
was open in the submitting thread, so GP batches on worker threads nest under
``gp_stats.run_gp_experiment``.

Imported as a module it only provides the arithmetic the harness applies to
the spans: interval unions, self times and per-name totals.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import threading
import time

# (module, function) pairs that get a span; names are "<module>.<function>".
SPANNED = (
    ("sampler", "sample_sp"),
    ("gp_stats", "run_gp_experiment"),
    ("gp_stats", "exact_covariance"),
    ("circuit", "pauli_apply"),
    ("moment", "propagate"),
    ("moment", "collision_probability"),
    ("moment", "block_transfer"),
    ("brauer", "twirl"),
    ("kernels", "transfer_apply"),
    ("kernels", "closure_round"),
    ("lie_closure", "closure"),
    ("lie_closure", "classify"),
)
# Called tens of thousands of times per run: counted, not spanned.
COUNTED = (("pauli", "in_sp_algebra"),)


def _transfer_attrs(args):
    _, t, left, din, right = args[:5]
    return {"L": int(left), "din": int(din), "R": int(right), "dout": int(t.shape[0])}


# Work counters taken from a call's arguments, per spanned function.
ATTRS = {
    "kernels.transfer_apply": _transfer_attrs,
    "kernels.closure_round": lambda a: {"pairs": int(a[0].size) * int(a[2].size)},
}


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def current(self):
        st = self.stack()
        return st[-1] if st else None

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span called ``name``."""

        def wrapper(*args, **kwargs):
            st = self.stack()
            sid = next(self._ids)
            parent = st[-1][0] if st else None
            st.append((sid, name))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.pop()
                extra = attrs(args) if attrs else None
                self.spans.append(
                    (sid, name, t0, t1, parent, threading.get_ident(), extra)
                )

        return wrapper

    def counter(self, name, fn):
        self.counts.setdefault(name, 0)
        lock = threading.Lock()

        def wrapper(*args, **kwargs):
            with lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def inherit_parent(self, fn):
        """Run ``fn`` with the caller's open span as its parent."""
        parent = self.current()

        def run(*args, **kwargs):
            st = self.stack()
            if parent is not None:
                st.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                if parent is not None:
                    st.pop()

        return run


def _rebind(modules, original, replacement) -> int:
    """Point every module attribute bound to ``original`` at ``replacement``."""
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of the imported spcirc package in place."""
    import concurrent.futures

    import numpy as np

    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "spcirc" or k.startswith("spcirc."))]
    for mod_name, fn_name in SPANNED + COUNTED:
        mod = sys.modules[f"spcirc.{mod_name}"]
        original = getattr(mod, fn_name)
        name = f"{mod_name}.{fn_name}"
        if (mod_name, fn_name) in COUNTED:
            wrapped = tracer.counter(name, original)
        else:
            wrapped = tracer.span(name, original, ATTRS.get(name))
        if not _rebind(modules, original, wrapped):
            raise RuntimeError(f"{name} is not bound anywhere in spcirc")

    # numpy.linalg.qr gets a span only when sampler.sample_sp is its caller.
    qr = np.linalg.qr
    qr_span = tracer.span("sampler.qr", qr)

    def qr_dispatch(*args, **kwargs):
        top = tracer.current()
        if top is not None and top[1] == "sampler.sample_sp":
            return qr_span(*args, **kwargs)
        return qr(*args, **kwargs)

    np.linalg.qr = qr_dispatch

    submit = concurrent.futures.ThreadPoolExecutor.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        return submit(self, tracer.inherit_parent(fn), *args, **kwargs)

    concurrent.futures.ThreadPoolExecutor.submit = traced_submit


# ---------------------------------------------------------------------------
# span arithmetic (used by the harness)

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the time its children cover.

    Children may run on other threads and overlap each other; only the part
    of their union that lies inside the parent's interval is subtracted.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
        ]
        covered = union_length([iv for iv in kids if iv[1] > iv[0]])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def totals(spans) -> dict:
    """name -> {"calls", "self_s", "span_s", plus summed numeric attrs}."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        t = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "span_s": 0.0})
        t["calls"] += 1
        t["self_s"] += selfs[s["id"]]
        t["span_s"] += s["end"] - s["start"]
        for key, value in (s.get("attrs") or {}).items():
            t[key] = t.get(key, 0) + value
    return out


def load_spans(path) -> dict:
    """The traced child's output, each span as a dict tagged with the run id."""
    with open(path) as f:
        doc = json.load(f)
    keys = ("id", "name", "start", "end", "parent", "thread", "attrs")
    doc["spans"] = [dict(zip(keys, row), run=doc["run_id"]) for row in doc["spans"]]
    return doc


# ---------------------------------------------------------------------------
# traced child

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run spcirc.cli.main under spans")
    ap.add_argument("--spans", required=True, help="JSON file written at exit")
    ap.add_argument("--run-id", default="", help="identifier stored with the spans")
    ap.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    t0 = time.perf_counter()
    import spcirc.cli as cli  # noqa: E402  (the import is what is timed)

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    run_main = tracer.span("cli.main", cli.main)
    code = run_main(cli_argv)
    sys.stdout.flush()
    doc = {
        "run_id": args.run_id,
        "pid": os.getpid(),
        "exit_code": code,
        "import_s": import_s,
        "counts": tracer.counts,
        "spans": [list(s) for s in tracer.spans],
    }
    with open(args.spans, "w") as f:
        json.dump(doc, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
