"""Lie closure of Pauli generator sets and algebra classification.

The closure is computed over Pauli *directions*. The Lie algebra generated by
a set G is spanned by the right-normed brackets [g1, [g2, ... [g(k-1), gk]]]
with every gi in G (the Jacobi identity rewrites any nested bracket as a
combination of these). The commutator of two Pauli directions is zero or a
single direction, so every right-normed bracket is, up to a factor, one
direction, and distinct directions are linearly independent. A breadth-first
search that starts from G and commutes each newly found direction with the
generators only therefore reaches exactly the directions whose span is the
closure, and the dimension is their count. Every set of directions is one
4**n-bit integer, and a round meets the frontier with all of G at once in
operations on such sets (``kernels.closure_round``). The generator families
are the symplectic-universal chain set, the SU-universal local set, and the
orthogonal Y/XY/YX chain. Keys, sets and member sets are ``pauli``'s.
"""

from __future__ import annotations

from . import kernels
from .errors import DomainError, check_bytes
from .pauli import PauliString, anticommuting, key_bit, members, sp_dimension


class GeneratorSet:
    """Distinct non-identity Pauli directions on n qubits."""

    def __init__(self, n: int, generators: tuple[PauliString, ...]):
        self.n, self.generators = n, generators
        seen = set()
        for g in generators:
            if g.n != n:
                raise DomainError(f"generator {g} has n = {g.n}, expected {n}")
            if g.is_identity():
                raise DomainError("identity is not a Lie-algebra direction")
            key = (g.x_mask, g.z_mask)
            if key in seen:
                raise DomainError(f"duplicate generator direction {g.direction()}")
            seen.add(key)


class ClosureResult:
    """The closure's directions as one 4**n-bit set, bit k for the direction
    with key k = ``PauliString.key``; ``pauli.strings`` lists them."""

    def __init__(self, n: int, directions: int, iterations: int, classification: str):
        self.n, self.directions = n, directions
        self.iterations, self.classification = iterations, classification

    @property
    def dimension(self) -> int:
        return self.directions.bit_count()


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
    return GeneratorSet(n, _chain(n, spec))


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
    return GeneratorSet(n, _chain(n, spec))


def so_chain_generators(n: int) -> GeneratorSet:
    """{Y_i} with {X_i Y_{i+1}, Y_i X_{i+1}} on qubits 1..n; its closure is
    so(d), of dimension d(d-1)/2."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    spec = [[(i, "Y")] for i in range(1, n + 1)]
    for i in range(1, n):
        spec.append([(i, "X"), (i + 1, "Y")])
        spec.append([(i, "Y"), (i + 1, "X")])
    return GeneratorSet(n, _chain(n, spec))


class ClosureBasis(tuple):
    """Per generator, on a path from key 0: the directions it anticommutes
    with, and a (2**b, key_bit(n, b)) pair per key bit b in which it differs
    from the generator before it. ``size`` counts the generators."""
    size = property(len)


def closure_basis(n: int, keys: list) -> ClosureBasis:
    """The ``ClosureBasis`` of the generators with these keys, on a greedy
    nearest-neighbour path, which keeps the swaps of a round few."""
    bits = [key_bit(n, b) for b in range(2 * n)]
    out, here, left = [], 0, list(keys)
    while left:
        g = min(left, key=lambda k: (k ^ here).bit_count())
        left.remove(g)
        out.append((anticommuting(n, g, bits),
                    tuple((1 << b, bits[b]) for b in range(2 * n) if (g ^ here) >> b & 1)))
        here = g
    return ClosureBasis(out)


def classify(n: int, directions: int) -> str:
    """Map a commutator-closed set of directions, given as a 4**n-bit set, to
    sp | su | so | other.

    sp: dimension d(d+1)/2 with every member in ``pauli.members(n, "sp")``;
    su: dimension d**2 - 1; so: dimension d(d-1)/2 with every member in
    ``members(n, "o")``. A form has exactly that many members, so the set
    passes iff it equals them.
    """
    d = 2 ** n
    dim = directions.bit_count()
    if dim == 0:
        return "other"
    if dim == sp_dimension(n) and directions == members(n, "sp"):
        return "sp"
    if dim == d * d - 1:
        return "su"
    if dim == d * (d - 1) // 2 and directions == members(n, "o"):
        return "so"
    return "other"


# Sets of 4**n bits a closure holds at once, besides one per generator and
# one per key bit: seen, the frontier, the round's union, the moving
# translation and the four temporaries of a block swap. In 30-bit digits of
# 4 B a set costs 16/15 bit per table entry. tracemalloc measured theorem1
# closures at 49.6, 59.8 and 65.1 sets at n = 8, 10 and 11 (49.1, 59.7 and
# 65.1 counted; the rest is small objects), and a 606 MiB peak at n = 13
# (640 MiB counted), so n = 13 is admitted and n = 14 refused.
_FIXED_SETS = 8


def check_closure(n: int, size: int | None = None) -> None:
    """Checks of ``closure`` for ``size`` generators, before any set is built;
    None stands for 3n - 2, the size of each named set, for a plan's check."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    sets = (3 * n - 2 if size is None else size) + 2 * n + _FIXED_SETS
    # in whole bytes per table entry, rounded up: 4**n is never computed
    check_bytes(f"the closure sets at n = {n}", -(-16 * sets // 120), 4, n)


def closure(g: GeneratorSet) -> ClosureResult:
    """Smallest commutator-closed set of Pauli directions containing g.

    Breadth-first search over right-normed brackets: round k commutes the
    directions first found in round k-1 (the generators in round 1) with the
    generators only; ``iterations`` counts rounds until one finds no new
    direction. Every set is a 4**n-bit integer (``kernels.Directions``).
    """
    n = g.n
    check_closure(n, len(g.generators))
    keys = [p.key for p in g.generators]
    # glibc serves a block larger than the largest mapped block freed so far
    # from fresh pages, and unmaps free heap past twice that: one freed block
    # of _FIXED_SETS sets keeps the rounds' sets on reused pages (at n = 12,
    # 445 000 page faults fewer and 1.15x faster); other allocators free it
    bytes(_FIXED_SETS * -(-4**n // 8))
    basis = closure_basis(n, keys)
    new = seen = kernels.Directions(sum(1 << k for k in keys))  # the keys are distinct
    iterations = 0
    while new:
        new = kernels.closure_round(new, n, basis, seen)
        seen |= new
        iterations += 1
    del basis, new  # freed before classify builds its sets
    return ClosureResult(n, seen, iterations, classify(n, seen))
