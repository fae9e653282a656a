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

from spcirc import kernels, lie_closure
from spcirc.pauli import PauliString


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
            xd, zd = p.dense_masks()
            base = 1j ** ((p.phase_exp + p.y_count) % 4)
            kernels.pauli_rotation(work, xd, zd, complex(base), theta)

    return run


def bench_transfer(n=12, layers=8):
    gen = np.random.default_rng(3)
    t = gen.normal(size=(9, 9))
    dims = [2] + [3] * (n - 1)
    v = gen.normal(size=int(np.prod(dims)))

    def run():
        for _ in range(layers):
            for bond in range(1, n - 1):
                left = int(np.prod(dims[: bond - 1] or [1]))
                right = int(np.prod(dims[bond + 1:] or [1]))
                din = dims[bond - 1] * dims[bond]
                block = t[:din, :din].T.copy()
                kernels.transfer_apply(v, block, left, din, right)

    return run


def bench_closure(n=6):
    gens = lie_closure.theorem1_generators(n)

    def run():
        lie_closure.closure(gens)

    return run


BENCHES = [
    ("apply_gate_2q (n=14, 100 gates)", bench_apply_gate),
    ("pauli_rotation (n=14, 100 rotations)", bench_pauli_rotation),
    ("transfer_apply (n=12, 8 layers)", bench_transfer),
    ("lie closure (n=6, dim 2080)", bench_closure),
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
