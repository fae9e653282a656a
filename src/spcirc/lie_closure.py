"""Lie closure of Pauli generator sets and algebra classification.

The closure is computed over Pauli *directions*. The Lie algebra generated by
a set G is spanned by the right-normed brackets [g1, [g2, ... [g(k-1), gk]]]
with every gi in G (the Jacobi identity rewrites any nested bracket as a
combination of these). The commutator of two Pauli directions is zero or a
single direction, so every right-normed bracket is, up to a factor, one
direction, and distinct directions are linearly independent. A breadth-first
search that starts from G and commutes each newly found direction with the
generators only therefore reaches exactly the directions whose span is the
closure, and the dimension is their count: O(dim * |G|) commutators, not the
O(dim**2) of commuting with the whole basis. The generator families are the
symplectic-universal chain set, the SU-universal local set, and the
orthogonal Y/XY/YX chain. Membership in sp and so is ``pauli.in_algebra``'s.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .errors import DomainError, check_bytes, np
from .pauli import RULE_KEYS, PauliString, in_algebra, sp_dimension


@dataclass(frozen=True)
class GeneratorSet:
    n: int
    generators: tuple[PauliString, ...]

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


@dataclass(frozen=True, eq=False)
class ClosureResult:
    """The closure's directions as int64 keys (x << n) | z, in discovery
    order; ``basis`` builds the ``PauliString`` objects on request."""

    n: int
    keys: np.ndarray
    iterations: int
    classification: str

    @property
    def dimension(self) -> int:
        return int(self.keys.size)

    @property
    def basis(self) -> tuple[PauliString, ...]:
        mask = (1 << self.n) - 1
        return tuple(PauliString(self.n, k >> self.n, k & mask, 0) for k in self.keys.tolist())


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


def classify(n: int, keys: np.ndarray) -> str:
    """Map a commutator-closed set of directions, given by their keys, to
    sp | su | so | other.

    sp: dimension d(d+1)/2 with every member in ``pauli.in_algebra``'s "sp"
    form; su: dimension d**2 - 1; so: dimension d(d-1)/2 with every member in
    its "o" form. The rules run over blocks of keys, so their temporaries stay
    block-sized.
    """
    d = 2 ** n
    dim = keys.size

    def every(form):
        return all(in_algebra(keys[i:i + RULE_KEYS], n, form).all()
                   for i in range(0, dim, RULE_KEYS))

    if dim == 0:
        return "other"
    if dim == sp_dimension(n) and every("sp"):
        return "sp"
    if dim == d * d - 1:
        return "su"
    if dim == d * (d - 1) // 2 and every("o"):
        return "so"
    return "other"


# Bytes a closure may hold, per direction of the 4**n table: one ``seen`` flag,
# a slot for its int64 key, and in the worst case one round's fresh keys in
# blocks plus their concatenation (8 B each). Plus one block of
# ``kernels.closure_round``, for which tracemalloc measured at most 27.5 B per
# pair when every pair anticommutes; ``classify`` comes after the last round
# and holds less than one such block. Measured the same way, a theorem1
# closure peaks at 1.3 MiB at n = 8, 11.2 MiB at n = 10 and 44.3 MiB at n = 11.
_BYTES_PER_DIRECTION = 1 + 8 + 16
_BLOCK_BYTES = 32 * kernels.CHUNK_PAIRS


def check_closure(n: int) -> None:
    """Checks of ``closure``, made before any generator or table is built."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    # the block is rounded up per direction: 4**n is never computed
    check_bytes(f"the closure table at n = {n}",
                _BYTES_PER_DIRECTION + -(-_BLOCK_BYTES >> 2 * n), 4, n)


def closure(g: GeneratorSet) -> ClosureResult:
    """Smallest commutator-closed set of Pauli directions containing g.

    Breadth-first search over right-normed brackets: round k commutes the
    directions first found in round k-1 (the generators in round 1) with the
    generators only; ``iterations`` counts rounds until one finds no new
    direction. Directions are listed in discovery order, which is
    deterministic given the generator order.
    """
    n = g.n
    check_closure(n)
    gens = np.array([(p.x_mask << n) | p.z_mask for p in g.generators], dtype=np.int64)
    seen = np.zeros(4 ** n, dtype=bool)
    seen[gens] = True

    # room for every direction; only the pages that get written are touched
    keys = np.empty(4 ** n, dtype=np.int64)
    start, count = 0, gens.size
    keys[:count] = gens
    iterations = 0
    while start < count:
        found = kernels.closure_round(keys[start:count], n, gens, seen)
        iterations += 1
        start, count = count, count + found.size
        keys[start:count] = found

    # shrink the buffer in place to the keys found (no view of it is left)
    keys.resize(count, refcheck=False)
    return ClosureResult(n, keys, iterations, classify(n, keys))
