"""Time the package kernels on representative workloads.

Runs each public kernel once to warm caches, then prints the best of
``--repeats`` wall-clock times per kernel. End-to-end CLI timings live in
``perfbench/``.

Usage: PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import math
import time

import numpy as np

from spcirc import kernels, lie_closure, moment
from spcirc.pauli import PauliString
from spcirc.sampler import sample_sp, sample_sp_columns


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def bench_apply_gate(n=14, gates=100):
    gen = np.random.default_rng(1)
    qr = [np.linalg.qr(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))[0]
          for _ in range(gates)]
    pos = [tuple(gen.choice(n, size=2, replace=False)) for _ in range(gates)]
    psi = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    psi /= np.linalg.norm(psi)

    def run():
        work = psi.copy()
        for g, (a, b) in zip(qr, pos):
            kernels.apply_gate_2q(work, g, int(a), int(b))

    return run


def bench_pauli_rotation(n=14, rotations=100):
    gen = np.random.default_rng(2)
    labels = []
    for _ in range(rotations):
        body = "".join(gen.choice(list("IXYZ"), size=n))
        p = PauliString.from_label(body if set(body) != {"I"} else "X" + body[1:])
        labels.append((p, gen.uniform(-math.pi, math.pi)))
    psi = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    psi /= np.linalg.norm(psi)

    def run():
        work = psi.copy()
        for p, theta in labels:
            kernels.pauli_rotation(work, *p.dense_action(), theta)

    return run


def bench_transfer(n=20):
    """One half brick layer of the second-moment propagator: the block steps
    of the odd-bond half on the tensor of two layers, recorded from a
    ``moment.propagate`` call and replayed, each step's output the next
    step's input."""
    v = moment.propagate(moment.initial_label_vector(n), 2)
    apply, steps = kernels.transfer_apply, []

    def record(*args):
        steps.append(args[1:])
        return apply(*args)

    kernels.transfer_apply = record
    try:
        moment.propagate(v, 1)
    finally:
        kernels.transfer_apply = apply
    half = steps[: n // 2]  # bonds (1, 2), (3, 4), ..., (n - 1, n)

    def run():
        cur = v.coeffs
        for t, left, din, right in half:
            cur = kernels.transfer_apply(cur, t, left, din, right)

    return run


def bench_closure(n=10):
    gens = lie_closure.theorem1_generators(n)

    def run():
        lie_closure.closure(gens)

    return run


def bench_haar_draw(d=256, k=None, draws=20):
    """``draws`` Haar-symplectic draws: the full matrix, or k quaternionic columns."""
    gen = np.random.default_rng(4)

    def run():
        for _ in range(draws):
            if k is None:
                sample_sp(d, gen)
            else:
                sample_sp_columns(d, k, gen)

    return run


BENCHES = [
    ("apply_gate_2q (n=14, 100 gates)", bench_apply_gate),
    ("pauli_rotation (n=14, 100 rotations)", bench_pauli_rotation),
    ("transfer_apply (n=20, half layer)", bench_transfer),
    ("lie closure (theorem1, n=10, dim 524800)", bench_closure),
    ("sample_sp (d=256, 20 draws)", bench_haar_draw),
    ("sample_sp_columns (d=256, k=2, 20 draws)", lambda: bench_haar_draw(k=2)),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    rows = []
    for name, make in BENCHES:
        run = make()
        run()  # warm-up: cache fill
        rows.append((name, best_of(run, args.repeats)))

    width = max(len(name) for name, _ in rows)
    print(f"{'kernel':<{width}}  {'best':>10}")
    for name, t in rows:
        print(f"{name:<{width}}  {t*1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
