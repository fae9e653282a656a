"""``benchmarks/bench_kernels.py`` runs against the current kernel signatures:
each bench function once, at toy size."""

import importlib.util
import inspect
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "benchmarks" / "bench_kernels.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (bench function, toy sizes): every function, and each variant the script times
TOY = [
    ("bench_apply_gate", {"n": 4, "gates": 3}),
    ("bench_pauli_rotation", {"n": 4, "rotations": 3}),
    ("bench_transfer", {"n": 6}),
    ("bench_closure", {"n": 3}),
    ("bench_haar_draw", {"d": 8, "draws": 1}),
    ("bench_haar_draw", {"d": 8, "k": 2, "draws": 1}),
]


def test_every_bench_function_has_a_toy_size():
    bench = load_script()
    names = {name for name, f in inspect.getmembers(bench, inspect.isfunction)
             if name.startswith("bench_")}
    assert names == {name for name, _ in TOY}


@pytest.mark.parametrize("name,sizes", TOY, ids=[name + "".join(f"-{k}{v}" for k, v in sizes.items()) for name, sizes in TOY])
def test_bench_function_runs_at_toy_size(name, sizes):
    getattr(load_script(), name)(**sizes)()
