"""Time the package kernels on representative workloads.

Runs each public kernel, a circuit of theorem1 rotations and a z readout
once to warm caches, then prints the best of ``--repeats`` wall-clock times
per row, to three significant figures (µs below 1 ms).
End-to-end CLI timings live in ``perfbench/``.

Usage: PYTHONPATH=src python3 benchmarks/bench_kernels.py [--repeats 5]
"""

import argparse
import math
import time

import numpy as np

from spcirc import circuit, kernels, lie_closure, moment
from spcirc.sampler import sample_sp, sample_sp_columns


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def three_figures(t):
    """``t`` seconds to three significant figures, in µs below 1 ms, else in ms."""
    t = float(f"{t:.3g}")
    power, unit = (6, "µs") if t < 1e-3 else (3, "ms")
    decimals = max(0, 2 - power - math.floor(math.log10(t)))
    return f"{t * 10**power:.{decimals}f} {unit}"


def bench_apply_gate(n=14, gates=100):
    gen = np.random.default_rng(1)
    qr = [np.linalg.qr(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))[0]
          for _ in range(gates)]
    pos = [tuple(gen.choice(n, size=2, replace=False)) for _ in range(gates)]
    psi = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    psi /= np.linalg.norm(psi)

    def run():
        work = psi.copy()
        for g, legs in zip(qr, pos):
            kernels.apply_gate(work, g, legs)

    return run


def bench_theorem1_apply(n=14, blocks=3):
    """``circuit.apply`` over ``blocks`` theorem1 blocks of 3n - 2 rotations
    each, every rotation a ``PauliString.apply``."""
    gen = np.random.default_rng(2)
    gens = lie_closure.theorem1_generators(n)
    circ = circuit.concat([circuit.rotation_block(gens, gen.uniform(-math.pi, math.pi, 3 * n - 2))
                           for _ in range(blocks)])
    psi = circuit.initial_state(n)

    def run():
        circuit.apply(circ, psi)

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


def bench_collision(n=20):
    """One z readout of the tensor after two layers."""
    v = moment.propagate(moment.initial_label_vector(n), 2)

    def run():
        moment.collision_probability(v)

    return run


def bench_closure(n=10):
    gens = lie_closure.theorem1_generators(n)

    def run():
        lie_closure.closure(gens)

    return run


def bench_haar_draw(d=256, k=None, draws=20, stack=False):
    """``draws`` Haar-symplectic draws: the full matrix, or k quaternionic
    columns, one call each or, with ``stack``, one stack of them all."""
    gen = np.random.default_rng(4)

    def run():
        if stack:
            sample_sp_columns(d, k, gen, draws)
            return
        for _ in range(draws):
            if k is None:
                sample_sp(d, gen)
            else:
                sample_sp_columns(d, k, gen)

    return run


BENCHES = [
    ("apply_gate (n=14, 100 2-leg gates)", bench_apply_gate),
    ("circuit.apply (theorem1, n=14, 3 blocks)", bench_theorem1_apply),
    ("transfer_apply (n=20, half layer)", bench_transfer),
    ("collision_probability (n=20)", bench_collision),
    ("lie closure (theorem1, n=10, dim 524800)", bench_closure),
    ("sample_sp (d=256, 20 draws)", bench_haar_draw),
    ("sample_sp (d=1024, 1 draw)", lambda: bench_haar_draw(d=1024, draws=1)),
    ("sample_sp_columns (d=256, k=2, a stack of 20)", lambda: bench_haar_draw(k=2, stack=True)),
    ("sample_sp_columns (d=65536, k=2, 5 draws)", lambda: bench_haar_draw(d=65536, k=2, draws=5)),
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
    print(f"{'kernel':<{width}}  {'best':>9}")
    for name, t in rows:
        print(f"{name:<{width}}  {three_figures(t):>9}")


if __name__ == "__main__":
    main()
