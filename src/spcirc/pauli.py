"""Symbolic n-qubit Pauli strings and the symplectic-algebra membership test.

Encoding: a PauliString holds two n-bit masks and a global phase exponent.
Bit j-1 of each mask describes qubit j (qubit 1 = leftmost tensor factor);
per qubit, (x, z) = (0,0) -> I, (1,0) -> X, (1,1) -> Y, (0,1) -> Z. The
represented operator is

    i**phase_exp * (P_1 (x) P_2 (x) ... (x) P_n)

with literal Pauli matrices as factors. Internally the unphased canonical
matrix is M(x, z) = i**y * X^x Z^z with y = popcount(x & z), which equals the
Kronecker product of the factors.

Dense convention: qubit 1 is the most significant bit of the 2**n index
(plain Kronecker order), so mask bit j-1 maps to dense bit position n-j.

The symplectic form is Omega = i Y (x) I^(x)(n-1); a Pauli P generates a
direction of sp(d/2) (i.e. iP is a member) iff either its first factor is in
{X, Y, Z} and the remaining factors carry an even number of Y's, or the first
factor is I and the remaining factors carry an odd number of Y's. This is
equivalent to the dense condition P^T Omega = -Omega P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, check_bytes

_KINDS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_MASKS = {v: k for k, v in _KINDS.items()}
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}

# dense 2 x 2 matrix of each single-qubit Pauli
DENSE_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """Phased n-qubit Pauli operator i**phase_exp * X^x Z^z * i**y_count."""

    n: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        if (self.x_mask | self.z_mask) >> self.n:  # O(1) even for a vast n
            raise DomainError("mask has bits set beyond position n-1")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliString":
        """One non-identity factor ``kind`` on 1-based ``qubit``."""
        if not 1 <= qubit <= n:
            raise DomainError(f"qubit {qubit} outside 1..{n}")
        x, z = _MASKS[kind]
        bit = 1 << (qubit - 1)
        return cls(n, x * bit, z * bit, 0)

    @classmethod
    def from_label(cls, text: str) -> "PauliString":
        """Parse e.g. "XIZY", with optional phase prefix +, -, i, +i, -i."""
        s = text.strip()
        phase = 0
        if s.startswith(("+i", "-i")):
            phase = 1 if s[0] == "+" else 3
            s = s[2:]
        elif s.startswith("i"):
            phase = 1
            s = s[1:]
        elif s.startswith(("+", "-")):
            phase = 0 if s[0] == "+" else 2
            s = s[1:]
        if not s or any(c not in "IXYZ" for c in s):
            raise DomainError(f"bad Pauli label {text!r}")
        x = z = 0
        for j, c in enumerate(s):
            xb, zb = _MASKS[c]
            x |= xb << j
            z |= zb << j
        return cls(len(s), x, z, phase)

    # -- presentation -------------------------------------------------------

    def factor(self, qubit: int) -> str:
        """Letter of the 1-based qubit's factor."""
        xb = (self.x_mask >> (qubit - 1)) & 1
        zb = (self.z_mask >> (qubit - 1)) & 1
        return _KINDS[(xb, zb)]

    def to_label(self) -> str:
        body = "".join(self.factor(j) for j in range(1, self.n + 1))
        return _PHASE_PREFIX[self.phase_exp] + body

    def __str__(self) -> str:
        return self.to_label()

    # -- structure ----------------------------------------------------------

    @property
    def y_count(self) -> int:
        return int(self.x_mask & self.z_mask).bit_count()

    @property
    def weight(self) -> int:
        return int(self.x_mask | self.z_mask).bit_count()

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def direction(self) -> "PauliString":
        """The same string with the phase stripped."""
        return PauliString(self.n, self.x_mask, self.z_mask, 0)

    def dense_action(self) -> tuple[np.ndarray, np.ndarray]:
        """The gather pair (source, phases): (P v)[s] = phases[s] * v[source[s]]
        along axis 0 of v, with source[s] = s ^ x_dense and
        phases[s] = i**(phase_exp + y_count) * (-1)**popcount(z_dense & source[s]).
        source[0] is x_dense, so it is 0 exactly when P is diagonal."""
        # the dense masks: qubit j -> bit n - j, each mask's n-bit string reversed
        xd, zd = (int(f"{m:0{self.n}b}"[::-1], 2) for m in (self.x_mask, self.z_mask))
        source = np.arange(2**self.n) ^ xd
        base = 1j ** ((self.phase_exp + self.y_count) % 4)
        return source, base * (1.0 - 2.0 * (np.bitwise_count(source & zd) & 1))


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact product a*b including the accumulated i**k phase."""
    if a.n != b.n:
        raise DomainError(f"size mismatch: {a.n} vs {b.n}")
    x3 = a.x_mask ^ b.x_mask
    z3 = a.z_mask ^ b.z_mask
    y3 = int(x3 & z3).bit_count()
    swaps = int(a.z_mask & b.x_mask).bit_count()
    phase = (a.phase_exp + b.phase_exp + a.y_count + b.y_count - y3 + 2 * swaps) % 4
    return PauliString(a.n, x3, z3, phase)


def commutes(a: PauliString, b: PauliString) -> bool:
    if a.n != b.n:
        raise DomainError(f"size mismatch: {a.n} vs {b.n}")
    par = int(a.x_mask & b.z_mask).bit_count() + int(a.z_mask & b.x_mask).bit_count()
    return par % 2 == 0


def commutator(a: PauliString, b: PauliString) -> PauliString | None:
    """Pauli direction of [a, b], or None when a and b commute.

    The +-2i structure coefficient is normalized away: only the span matters
    for Lie-closure work, and commutator(a, b) and commutator(b, a) name the
    same direction.
    """
    if commutes(a, b):
        return None
    return PauliString(a.n, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask, 0)


def is_symmetric(p: PauliString) -> bool:
    """True iff P^T = P, i.e. the Y-count is even."""
    return p.y_count % 2 == 0


def in_sp_algebra(p: PauliString) -> bool:
    """True iff iP is a member of sp(d/2) w.r.t. Omega = iY (x) I^(n-1).

    First factor in {X, Y, Z} with an even Y-count on the rest, or first
    factor I with an odd Y-count on the rest. For n = 1 this reduces to
    p in {X, Y, Z} (the sp(1) = su(2) convention).
    """
    first_nontrivial = (p.x_mask | p.z_mask) & 1
    rest_y = int((p.x_mask & p.z_mask) >> 1).bit_count()
    if first_nontrivial:
        return rest_y % 2 == 0
    return rest_y % 2 == 1


# Bytes ``enumerate_sp_basis`` holds per entry of the 4**n table, of which the
# d(d+1)/2 directions are a little over half: per direction one PauliString
# (the object, its __dict__ and two mask ints past the small-int cache) and
# its list slot. tracemalloc measured 112 B per direction at n = 8, 145 B at
# n = 9, 161 B at n = 10 and 168 B (84 B per table entry) at n = 11, so
# n = 11 is admitted and n = 12 refused.
_BASIS_BYTES = 96


def check_basis(n: int) -> None:
    """Checks of ``enumerate_sp_basis``."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    check_bytes(f"the sp basis at n = {n}", _BASIS_BYTES, 4, n)


def enumerate_sp_basis(n: int) -> list[PauliString]:
    """All d(d+1)/2 Pauli directions spanning sp(d/2), d = 2**n.

    Ordered by the (x, z) masks of the trailing n-1 qubits, with first-factor
    order X, Y, Z for the symmetric-rest strings.
    """
    check_basis(n)
    out = []
    for rest in range(4 ** (n - 1)):
        xr = rest & ((1 << (n - 1)) - 1)
        zr = rest >> (n - 1)
        y_rest = int(xr & zr).bit_count()
        if y_rest % 2 == 0:
            for kind in "XYZ":
                xb, zb = _MASKS[kind]
                out.append(PauliString(n, (xr << 1) | xb, (zr << 1) | zb, 0))
        else:
            out.append(PauliString(n, xr << 1, zr << 1, 0))
    return out


def sp_dimension(n: int) -> int:
    d = 2 ** n
    return d * (d + 1) // 2


def check_dense(n: int) -> None:
    """Capacity check of ``to_dense``, ``to_dense_kron`` and ``circuit.to_unitary``:
    two complex d x d matrices (16 B per entry each) and 1 B per entry for O(d) ones."""
    check_bytes(f"a dense matrix at n = {n}", 33, 4, n)


def to_dense(p: PauliString) -> np.ndarray:
    """Dense 2**n x 2**n matrix, built in O(4**n) from the gather pair
    (``PauliString.dense_action``): row s holds phases[s] in column source[s]."""
    check_dense(p.n)
    source, phases = p.dense_action()
    m = np.zeros((source.size, source.size), dtype=complex)
    np.put_along_axis(m, source[:, None], phases[:, None], axis=1)
    return m


def to_dense_kron(p: PauliString) -> np.ndarray:
    """Same matrix via literal Kronecker products (slow oracle path)."""
    check_dense(p.n)
    factors = [DENSE_1Q[p.factor(j)] for j in range(1, p.n + 1)]
    return (1j ** p.phase_exp) * reduce(np.kron, factors)
