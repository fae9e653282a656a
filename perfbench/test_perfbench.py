"""Self-checks of the benchmark harness: span arithmetic and correctness gates.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layertrace  # noqa: E402
import workloads as wl  # noqa: E402


def span(sid, name, start, end, parent=None, thread=1, attrs=None):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "thread": thread, "attrs": attrs}


# ---------------------------------------------------------------------------
# span arithmetic

def test_union_length_merges_overlaps_and_gaps():
    assert layertrace.union_length([]) == 0.0
    assert layertrace.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert layertrace.union_length([(3, 4), (0, 10)]) == pytest.approx(10.0)


def test_self_time_on_nested_tree():
    # main [0, 10] > a [1, 4] > b [2, 3]; main > c [5, 9] with two
    # overlapping children on worker threads, d [5, 7] and e [6, 8.5].
    spans = [
        span(1, "main", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 2.0, 3.0, parent=2),
        span(4, "c", 5.0, 9.0, parent=1),
        span(5, "d", 5.0, 7.0, parent=4, thread=2),
        span(6, "e", 6.0, 8.5, parent=4, thread=3),
    ]
    selfs = layertrace.self_times(spans)
    assert selfs[1] == pytest.approx(10 - 3 - 4)
    assert selfs[2] == pytest.approx(3 - 1)
    assert selfs[3] == pytest.approx(1)
    assert selfs[4] == pytest.approx(4 - 3.5)  # the union of d and e, not the sum
    assert selfs[5] == pytest.approx(2)
    assert selfs[6] == pytest.approx(2.5)
    # every instant of main is attributed to exactly one span on its thread
    main_thread = [s for s in spans if s["thread"] == 1]
    assert sum(selfs[s["id"]] for s in main_thread) == pytest.approx(10 - 3.5)


def test_child_outliving_its_parent_is_clipped():
    spans = [span(1, "p", 0.0, 2.0), span(2, "c", 1.0, 5.0, parent=1, thread=2)]
    assert layertrace.self_times(spans)[1] == pytest.approx(1.0)


def test_totals_sum_calls_self_time_and_attrs():
    spans = [
        span(1, "main", 0.0, 4.0),
        span(2, "k", 1.0, 2.0, parent=1, attrs={"pairs": 3}),
        span(3, "k", 2.5, 3.0, parent=1, attrs={"pairs": 4}),
    ]
    tot = layertrace.totals(spans)
    assert tot["k"]["calls"] == 2
    assert tot["k"]["self_s"] == pytest.approx(1.5)
    assert tot["k"]["pairs"] == 7
    assert tot["main"]["self_s"] == pytest.approx(2.5)


def test_tracer_parents_follow_calls_and_thread_pools():
    tracer = layertrace.Tracer()
    leaf = tracer.span("leaf", lambda: threading.get_ident())

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(tracer.inherit_parent(leaf)) for _ in range(4)]
            return [f.result() for f in futures]

    root = tracer.span("root", fan_out)
    root()
    leaf()  # no open span: a root of its own
    by_name = {}
    for sid, name, t0, t1, parent, thread, attrs in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent, thread))
    (root_id, root_parent, root_thread), = by_name["root"]
    assert root_parent is None
    leaves = by_name["leaf"]
    assert len(leaves) == 5
    assert sum(parent == root_id for _, parent, _ in leaves) == 4
    assert sum(parent is None for _, parent, _ in leaves) == 1


# ---------------------------------------------------------------------------
# correctness gates reject corrupted outputs

def envelope(payload):
    return json.dumps({"payload": payload})


def gp_payload():
    exact = [[2 * 0.5 / 257, 2 * 0.25 / 257], [2 * 0.25 / 257, 2 * 0.5 / 257]]
    se = [[2e-4, 1e-4], [1e-4, 2e-4]]
    cov = [[exact[0][0] + 3e-4, exact[0][1]], [exact[1][0], exact[1][1] - 1e-4]]
    return {"n": 8, "samples": wl.GP_SAMPLES, "covariance": cov,
            "covariance_se": se, "exact_covariance": exact}


def test_gp_gate():
    assert wl.check_gp(None, envelope(gp_payload()), None) == []
    bad = gp_payload()
    bad["covariance"][0][1] += 5e-4  # 5 batch SE off
    assert wl.check_gp(None, envelope(bad), None)
    short = dict(gp_payload(), samples=wl.GP_SAMPLES - 1)
    assert wl.check_gp(None, envelope(short), None)


def test_thread_payload_gate():
    a = envelope(gp_payload())
    assert wl.same_payload(a, a) == []
    b = gp_payload()
    b["covariance"][0][0] *= 1 + 1e-15
    assert wl.same_payload(a, envelope(b))


def write_depth(work, stars=wl.DEPTH_N_L_STAR, z_shift=0.0):
    lines = ["n,n_L_star,z_trace"]
    for n, s in zip(wl.DEPTH_N, stars):
        z = 2.0 / (2**n + 1) + z_shift / 2**n
        lines.append(f'{n},{s},"{json.dumps([1.0, z])}"')
    (work / "depth.csv").write_text("\n".join(lines) + "\n")


def test_depth_gate(tmp_path):
    good = envelope({"fit": {"r_squared": 0.988}})
    write_depth(tmp_path)
    assert wl.check_depth(None, good, tmp_path) == []
    assert wl.check_depth(None, envelope({"fit": {"r_squared": 0.97}}), tmp_path)
    write_depth(tmp_path, z_shift=0.02)  # final z two epsilons from Haar
    assert wl.check_depth(None, good, tmp_path)
    write_depth(tmp_path, stars=wl.DEPTH_N_L_STAR[:-1] + (18,))
    assert wl.check_depth(None, good, tmp_path)


def test_closure_gate():
    good = {"dimension": 32896, "classification": "sp"}
    assert wl.check_closure(None, envelope(good), None) == []
    assert wl.check_closure(None, envelope(dict(good, dimension=32895)), None)
    assert wl.check_closure(None, envelope(dict(good, classification="su")), None)


def test_layer_metrics_from_spans():
    import run

    spans = [
        span(1, "cli.main", 0.0, 10.0),
        span(2, "moment.block_transfer", 1.0, 2.0, parent=1),
        span(3, "brauer.twirl", 1.1, 1.5, parent=2),
        span(4, "brauer.twirl", 1.5, 1.9, parent=2),
        span(5, "moment.block_transfer", 2.0, 2.1, parent=1),
        span(6, "kernels.transfer_apply", 3.0, 4.0, parent=1,
             attrs={"L": 2, "din": 6, "R": 3, "dout": 9}),
    ]
    doc = {"spans": spans, "counts": {"pauli.in_sp_algebra": 5}, "import_s": 0.25}
    m = run.layer_metrics(doc)
    assert m["moment.block_transfer.calls"] == (2, "count")
    assert m["moment.block_transfer.cache_hit_ratio"][0] == pytest.approx(0.5)
    assert m["brauer.twirl.self_s"][0] == pytest.approx(0.8)
    assert m["kernels.transfer_apply.flops"][0] == 2 * 2 * 6 * 3 * 9
    assert m["kernels.transfer_apply.bytes"][0] == 8 * (36 + 54 + 54)
    assert m["moment.label_vector_peak_mb"][0] == pytest.approx(8 * 54 / 1e6)
    assert m["cli.main.self_s"][0] == pytest.approx(10 - 1 - 0.1 - 1)
    assert m["pauli.in_sp_algebra.calls"] == (5, "count")
    assert m["sampler.sample_sp.calls"] == (0, "count")


def test_benchmark_json_lists_what_the_harness_prints():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    doc = {"spans": [], "counts": {}, "import_s": 0.1}
    printed = {k: u for k, (_, u) in run.layer_metrics(doc).items()}
    printed.update({"gp_stats.parallel_efficiency": "ratio", "trace.coverage": "ratio",
                    "trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "work_per_s", "peak_rss_mb"}
