"""Lie closure of Pauli generator sets and algebra classification.

The closure is computed over Pauli *directions*: distinct strings are
orthogonal, so linear-independence bookkeeping is exact integer set
membership, and one breadth-first worklist round commutates the current
frontier against everything known. The generator families are the
symplectic-universal chain set, the SU-universal local set, and the
orthogonal Y/XY/YX chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CapacityError, DomainError
from .pauli import PauliString, in_sp_algebra

MAX_DIM_DEFAULT = 4 ** 7


@dataclass(frozen=True)
class GeneratorSet:
    n: int
    generators: tuple[PauliString, ...]
    label: str = "custom"

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if g.n != self.n:
                raise DomainError(f"generator {g} has n = {g.n}, expected {self.n}")
            if g.is_identity():
                raise DomainError("identity is not a Lie-algebra direction")
            key = (g.x_mask, g.z_mask)
            if key in seen:
                raise DomainError(f"duplicate generator direction {g.direction()}")
            seen.add(key)


@dataclass(frozen=True)
class ClosureResult:
    basis: tuple[PauliString, ...]
    dimension: int
    iterations: int
    classification: str


def _chain(n, spec_pairs):
    out = []
    seen = set()
    for factors in spec_pairs:
        x = z = 0
        for qubit, kind in factors:
            p = PauliString.single(n, qubit, kind)
            x |= p.x_mask
            z |= p.z_mask
        if (x, z) not in seen:
            seen.add((x, z))
            out.append(PauliString(n, x, z, 0))
    return tuple(out)


def theorem1_generators(n: int) -> GeneratorSet:
    """The n + 2(n-2) + 2 chain generators whose closure is sp(d/2).

    Y on every qubit; X_i Y_{i+1} and Y_i X_{i+1} for i = 2..n-1; X on qubit
    1; ZZ on qubits (1, 2).
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    spec = [[(i, "Y")] for i in range(1, n + 1)]
    for i in range(2, n):
        spec.append([(i, "X"), (i + 1, "Y")])
        spec.append([(i, "Y"), (i + 1, "X")])
    spec.append([(1, "X")])
    spec.append([(1, "Z"), (2, "Z")])
    return GeneratorSet(n, _chain(n, spec), "theorem1")


def prop2_generators(n: int) -> GeneratorSet:
    """Union over bonds i of {X_i, Y_i, Y_{i+1}, X_i X_{i+1}}, deduplicated.

    For n >= 3 the closure is the full su(d) and generic circuits over these
    generators leave the symplectic group. At n = 2 (the single bond (1,2))
    every generator lies in sp(2): the closure is sp(2), of dimension 10.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    spec = []
    for i in range(1, n):
        spec.append([(i, "X")])
        spec.append([(i, "Y")])
        spec.append([(i + 1, "Y")])
        spec.append([(i, "X"), (i + 1, "X")])
    return GeneratorSet(n, _chain(n, spec), "prop2")


def so_chain_generators(n: int, start: int = 1) -> GeneratorSet:
    """{Y_i} with {X_i Y_{i+1}, Y_i X_{i+1}} on qubits start..n; closure so(2**m).

    With start = 1 the closure has dimension d(d-1)/2; with start = 2 it is
    the so(d/2) sub-chain on the trailing qubits.
    """
    if n < start:
        raise DomainError(f"need n >= start = {start}, got {n}")
    spec = [[(i, "Y")] for i in range(start, n + 1)]
    for i in range(start, n):
        spec.append([(i, "X"), (i + 1, "Y")])
        spec.append([(i, "Y"), (i + 1, "X")])
    return GeneratorSet(n, _chain(n, spec), "so-chain")


def classify(basis: list[PauliString] | tuple[PauliString, ...]) -> str:
    """Map a commutator-closed basis to sp | su | so | other.

    sp: dimension d(d+1)/2 with every member an sp direction; su: dimension
    d**2 - 1; so: dimension d(d-1)/2 with every member antisymmetric.
    """
    if not basis:
        return "other"
    n = basis[0].n
    d = 2 ** n
    dim = len(basis)
    if dim == d * (d + 1) // 2 and all(in_sp_algebra(p) for p in basis):
        return "sp"
    if dim == d * d - 1:
        return "su"
    if dim == d * (d - 1) // 2 and all(p.y_count % 2 == 1 for p in basis):
        return "so"
    return "other"


def check_closure(n: int, max_dim: int) -> None:
    """Checks of ``closure``, made before any generator or table is built."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    # 4**n > max_dim, compared by bit length so that an absurd n costs nothing
    if 2 * n >= max(max_dim, 1).bit_length():
        raise CapacityError(f"4**{n} directions exceed the budget {max_dim}")


def closure(g: GeneratorSet, max_dim: int = MAX_DIM_DEFAULT) -> ClosureResult:
    """Smallest commutator-closed set of Pauli directions containing g.

    Breadth-first worklist: round k commutates the directions discovered in
    round k-1 against the whole accumulated basis; ``iterations`` counts
    rounds until no new direction appears. Deterministic given input order.
    """
    n = g.n
    check_closure(n, max_dim)
    seen = np.zeros(4 ** n, dtype=bool)
    xs = np.array([p.x_mask for p in g.generators], dtype=np.int64)
    zs = np.array([p.z_mask for p in g.generators], dtype=np.int64)
    seen[(xs << n) | zs] = True

    all_x, all_z = xs, zs
    new_x, new_z = xs, zs
    iterations = 0
    while new_x.size:
        found_x, found_z = kernels.closure_round(new_x, new_z, all_x, all_z, seen, n)
        iterations += 1
        if found_x.size == 0:
            break
        all_x = np.concatenate([all_x, found_x])
        all_z = np.concatenate([all_z, found_z])
        new_x, new_z = found_x, found_z

    basis = tuple(
        PauliString(n, int(x), int(z), 0) for x, z in zip(all_x.tolist(), all_z.tolist())
    )
    return ClosureResult(basis, len(basis), iterations, classify(basis))
