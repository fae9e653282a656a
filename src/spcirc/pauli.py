"""Symbolic n-qubit Pauli strings, sets of Pauli directions and the
symplectic-algebra membership test.

Encoding: a PauliString holds two n-bit masks and a global phase exponent.
Bit j-1 of each mask describes qubit j (qubit 1 = leftmost tensor factor);
per qubit, (x, z) = (0,0) -> I, (1,0) -> X, (1,1) -> Y, (0,1) -> Z. The
represented operator is

    i**phase_exp * (P_1 (x) P_2 (x) ... (x) P_n)

with literal Pauli matrices as factors. Internally the unphased canonical
matrix is M(x, z) = i**y * X^x Z^z with y = popcount(x & z), which equals the
Kronecker product of the factors.

Dense convention: qubit 1 is the most significant bit of the 2**n index
(plain Kronecker order), so mask bit j-1 maps to dense bit position n-j and
to axis j-1 of the (2,)*n view of an amplitude axis. ``PauliString.apply``
is the one action of a string on amplitudes; the dense matrix, statevector
expectations, circuit rotations and the GP compression all go through it.

The symplectic form is the PauliString ``symplectic_form(n)``,
Omega = iY (x) I^(x)(n-1), whose dense matrix is ``sampler.omega(2**n)``;
Omega acts on vectors through ``PauliString.apply`` like any other string. The
algebra of a form F is {M : M^T F = -F M}; "sp" names F = Omega and "o" names
F = I. For a Pauli P, P^T = (-1)**y(P) P and P F = +-F P, so iP is a member
iff y(P) + [P anticommutes with F] is odd: ``in_sp_algebra`` reads this off
one PauliString, and ``members`` builds all of them as one set of directions,
a 4**n-bit integer with bit k set for the key k = (x << n) | z of each
(``PauliString.key``); ``strings`` lists a set as PauliStrings.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

from .errors import DomainError, check_bytes, np

_KINDS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_MASKS = {v: k for k, v in _KINDS.items()}
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}

# rows of the dense 2 x 2 matrix of each single-qubit Pauli
_DENSE_1Q = {"I": ((1, 0), (0, 1)), "X": ((0, 1), (1, 0)),
             "Y": ((0, -1j), (1j, 0)), "Z": ((1, 0), (0, -1))}


def dense_1q(kind: str) -> np.ndarray:
    """The dense 2 x 2 matrix of the single-qubit Pauli ``kind``, built per
    call, so that importing the module runs no numpy."""
    return np.array(_DENSE_1Q[kind], dtype=complex)


class PauliString:
    """Phased n-qubit Pauli operator i**phase_exp * X^x Z^z * i**y_count: a
    read-only value, equal to and hashed like another with the same fields."""

    def __init__(self, n: int, x_mask: int, z_mask: int, phase_exp: int = 0):
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        if (x_mask | z_mask) >> n:  # O(1) even for a vast n
            raise DomainError("mask has bits set beyond position n-1")
        # object.__setattr__ keeps the fields in the instance's inline values;
        # a __dict__, which vars(self) would build, more than doubles its bytes
        init = object.__setattr__
        init(self, "n", n)
        init(self, "x_mask", x_mask)
        init(self, "z_mask", z_mask)
        init(self, "phase_exp", phase_exp % 4)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: a PauliString is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return self.n, self.x_mask, self.z_mask, self.phase_exp

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (f"PauliString(n={self.n!r}, x_mask={self.x_mask!r}, z_mask={self.z_mask!r}, "
                f"phase_exp={self.phase_exp!r})")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliString":
        """One non-identity factor ``kind`` on 1-based ``qubit``."""
        if not 1 <= qubit <= n:
            raise DomainError(f"qubit {qubit} outside 1..{n}")
        if kind not in _MASKS:
            raise DomainError(f"unknown Pauli kind {kind!r}; expected X, Y or Z")
        if kind == "I":
            raise DomainError("a single factor is X, Y or Z, not the identity I")
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
    def key(self) -> int:
        """(x << n) | z: the direction's bit in a set of directions."""
        return (self.x_mask << self.n) | self.z_mask

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def direction(self) -> "PauliString":
        """The same string with the phase stripped."""
        return PauliString(self.n, self.x_mask, self.z_mask, 0)

    @property
    def phase(self) -> complex:
        """The scalar c with P = c * X^x Z^z, i**(phase_exp + y_count)."""
        return 1j ** ((self.phase_exp + self.y_count) % 4)

    def apply(self, v: np.ndarray, scale: complex = 1) -> np.ndarray:
        """scale * P v along axis 0 of v, whose further axes are a batch; v is
        not written. Read on the (2,)*n view of axis 0, where axis k is mask
        bit k (qubit k + 1, dense bit n - 1 - k), (P v)[s] =
        phase * (-1)**popcount(z & (s ^ x)) * v[s ^ x].

        P v is v reversed along the x axes, times a sign: one multiply by the
        scalar and the two-entry sign of the first z axis, then an in-place
        negation of the half of each later z axis whose source bit is 1. The
        result is the only array the size of v that it allocates."""
        n, x = self.n, self.x_mask
        # basic slicing reverses the x axes without np.flip's per-call axis
        # tuples; the index tuple is built from a list, whose exact length
        # leaves no oversized tuple on CPython's free list
        index = tuple([slice(None, None, -1) if x >> k & 1 else slice(None) for k in range(n)])
        flipped = v.reshape((2,) * n + v.shape[1:])[index]

        def source_one(k):  # along axis k, broadcast: where the source bit s_k ^ x_k is 1
            bit = x >> k & 1
            return np.array([bit == 1, bit == 0]).reshape((2,) + (1,) * (n - 2 - k + v.ndim))

        z_axes = [k for k in range(n) if self.z_mask >> k & 1]
        coef = scale * self.phase
        if z_axes:
            coef = coef * np.where(source_one(z_axes[0]), -1.0, 1.0)
        out = np.multiply(flipped, coef)
        # a mask rather than a strided half view keeps numpy from buffering
        for k in z_axes[1:]:
            np.negative(out, out=out, where=source_one(k))
        return out.reshape(v.shape)


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


def symplectic_form(n: int) -> PauliString:
    """Omega = iY (x) I^(x)(n-1), the form of sp(d/2)."""
    return PauliString(n, 1, 1, 1)


# form name -> the PauliString F whose algebra {M : M^T F = -F M} it names
# (the names of ``brauer``'s forms)
FORMS = {"sp": symplectic_form, "o": PauliString.identity}


def in_sp_algebra(p: PauliString) -> bool:
    """True iff iP is a member of sp(d/2) w.r.t. ``symplectic_form``: the
    Y count plus [P anticommutes with Omega] is odd. For n = 1 this is
    p in {X, Y, Z} (the sp(1) = su(2) convention)."""
    return (p.y_count + (not commutes(p, symplectic_form(p.n)))) % 2 == 1


# -- sets of directions: bit k of a 4**n-bit integer for the key k -----------

def key_bit(n: int, b: int) -> int:
    """The keys below 4**n with bit b set, as one set: 2**b set bits every
    2**(b + 1), tiled by doubling."""
    keys, period = ((1 << (1 << b)) - 1) << (1 << b), 2 << b
    while period < 4**n:
        keys |= keys << period
        period <<= 1
    return keys


def anticommuting(n: int, key: int, bits: list) -> int:
    """The directions that anticommute with the direction ``key``, given the
    ``key_bit`` sets: k anticommutes iff popcount(k & swap) is odd, where
    swap = (z << n) | x, so the set is the symmetric difference of the key
    bits set in swap."""
    swap = ((key & ((1 << n) - 1)) << n) | (key >> n)
    return reduce(xor, (bits[b] for b in range(2 * n) if swap >> b & 1), 0)


def members(n: int, form: str) -> int:
    """The directions P with iP in the algebra of ``form``, as one set: those
    with an odd Y count popcount(x & z), symmetric difference those that
    anticommute with F. Its 2n key bits and four sets more (``reduce`` keeps
    its last two arguments while the next is built), 16/15 bit per table
    entry each in 30-bit digits, are checked before any is built."""
    if form not in FORMS:
        raise DomainError(f"unknown form {form!r}; expected 'sp' or 'o'")
    f = FORMS[form](n)  # refuses n < 1
    check_bytes(f"the {form} members at n = {n}", -(-16 * (2 * n + 4) // 120), 4, n)
    bits = [key_bit(n, b) for b in range(2 * n)]
    y_odd = reduce(xor, (bits[n + j] & bits[j] for j in range(n)), 0)
    return y_odd ^ anticommuting(n, f.key, bits)


# Bytes ``strings`` holds per direction: one PauliString (the object, its
# __dict__ and two mask ints past the small-int cache) and its list slot,
# besides the set's packed copy; the keys are unpacked in blocks of 4096
# table entries. tracemalloc measured the sp members at 116 B per direction
# at n = 8, 145 B at n = 9, 161 B at n = 10 and 168 B at n = 11, so they are
# listed at n = 11 and refused at n = 12.
_STRING_BYTES = 192


def check_strings(directions: int) -> None:
    """Checks of ``strings``, before any key is built."""
    check_bytes(f"the strings of {directions.bit_count()} directions",
                _STRING_BYTES * directions.bit_count() + directions.bit_length() // 8)


def strings(n: int, directions: int) -> list[PauliString]:
    """The set ``directions`` as unphased PauliStrings in ascending key
    order: per block, its set bits as int64 keys, each split into masks."""
    check_strings(directions)
    packed = np.frombuffer(directions.to_bytes(-(-directions.bit_length() // 8), "little"), "u1")
    mask, out = (1 << n) - 1, []
    for start in range(0, packed.size, 512):  # 4096 table entries a block
        keys = np.flatnonzero(np.unpackbits(packed[start:start + 512], bitorder="little"))
        out += [PauliString(n, k >> n, k & mask) for k in (keys + 8 * start).tolist()]
    return out


def sp_dimension(n: int) -> int:
    d = 2 ** n
    return d * (d + 1) // 2


def check_dense(n: int) -> None:
    """Capacity check of ``to_dense``, ``to_dense_kron`` and ``circuit.to_unitary``:
    two complex d x d matrices (16 B per entry each) and 1 B per entry for O(d) ones."""
    check_bytes(f"a dense matrix at n = {n}", 33, 4, n)


def to_dense(p: PauliString) -> np.ndarray:
    """Dense 2**n x 2**n matrix in O(4**n): P applied to the identity."""
    check_dense(p.n)
    return p.apply(np.eye(2**p.n))


def to_dense_kron(p: PauliString) -> np.ndarray:
    """Same matrix via literal Kronecker products (slow oracle path)."""
    check_dense(p.n)
    factors = [dense_1q(p.factor(j)) for j in range(1, p.n + 1)]
    return (1j ** p.phase_exp) * reduce(np.kron, factors)
