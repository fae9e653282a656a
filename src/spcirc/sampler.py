"""Haar samplers for SP(d/2), O(d), SO(d), U(d) and dense group predicates.

All samplers are Ginibre + QR with an explicit gauge fixing (triangular-factor
diagonal normalized), which makes the distribution exactly Haar rather than
merely unitary; the symplectic one computes its QR by Gram-Schmidt. Each
draws from the numpy Generator it is given, which an ``RngStream`` seed makes.

The symplectic sampler draws a (d/2) x k matrix of standard-normal
quaternions a + bi + cj + dk, takes the image [a + bi; -c + di] of each column
and orthonormalizes the images in pairs (w, -J w) by ``symplectic_frame``,
where J w = Omega conj(w) for Omega = [[0, I], [-I, 0]] (on qubits iY (x) I).
This is the QR of the quaternionic Gaussian with the R-diagonal positive
(Mezzadri, arXiv:math-ph/0609050), which is unique, so the 2k columns are
those of a Haar S in SP(d/2); k < d/2 serves experiments that read S on a few
vectors only. A stack of such draws is one request of the generator and one
Gram-Schmidt over the stack's leading axis, with the numbers of as many single
draws in turn.

The brick-layer schedule of Haar blocks (``brick_layer``), the Haar
collision probability (``z_haar``) and the pairing count
(``double_factorial``) live here too, so that ``circuit``, ``moment``,
``gp_stats`` and ``brauer`` share them without importing one another.
"""

from __future__ import annotations

import math
import numbers
import zlib
from functools import partial

from .errors import DomainError, check_bytes, np

DEFAULT_TOL = 1e-10


class RngStream:
    """A seed: identical (seed, stream_id) -> identical draws from each fresh
    ``generator()``, the stream every sampler reads. A read-only value, equal
    to and hashed like another with the same fields.

    stream_id may be a non-negative int, a short string label (hashed to a
    stable uint32 via crc32, so labels survive process restarts), or a tuple
    of either; it is kept as a tuple.
    """

    def __init__(self, seed: int, stream_id: int | str | tuple = 0):
        sid = stream_id if isinstance(stream_id, tuple) else (stream_id,)
        for v in (seed, *(s for s in sid if not isinstance(s, str))):
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < 0:
                raise DomainError(f"an RngStream seed, and each id that is not a label, "
                                  f"must be a non-negative integer; got {v!r}")
        object.__setattr__(self, "seed", seed)  # as in ``pauli.PauliString``
        object.__setattr__(self, "stream_id", sid)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: an RngStream is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return self.seed, self.stream_id

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"RngStream(seed={self.seed!r}, stream_id={self.stream_id!r})"

    def generator(self) -> np.random.Generator:
        key = tuple(zlib.crc32(s.encode()) if isinstance(s, str) else int(s)
                    for s in self.stream_id)
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(self.seed, spawn_key=key)))

    def child(self, k: int | str) -> "RngStream":
        return RngStream(self.seed, self.stream_id + (k,))


def double_factorial(k: int) -> int:
    """k (k - 2) (k - 4) ... down to 1 or 2, and 1 for k <= 0: at k = 2t - 1
    the number of pairings of 2t items, which counts both the Brauer diagrams
    of order t and the Gaussian moment E[g^2t] / E[g^2]^t."""
    return math.prod(range(k, 0, -2))


def z_haar(n: int) -> float:
    """Collision probability of a globally Haar state family: 2/(d + 1)."""
    return 2.0 / (2**n + 1)


def omega(d: int) -> np.ndarray:
    """Canonical symplectic form [[0, I], [-I, 0]] for any even d."""
    if d % 2:
        raise DomainError(f"symplectic form needs even d, got {d}")
    m = d // 2
    out = np.zeros((d, d))
    out[:m, m:] = np.eye(m)
    out[m:, :m] = -np.eye(m)
    return out


def _gauged_q(a: np.ndarray) -> np.ndarray:
    """Q of the QR of a Ginibre matrix, its columns rephased so that the
    diagonal of R is positive (a zero diagonal has probability zero)."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def sample_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar U(d): complex Ginibre, QR, R-diagonal phase gauge."""
    a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    return _gauged_q(a)


def sample_orthogonal(d: int, rng: np.random.Generator, special: bool = False) -> np.ndarray:
    """Haar O(d); with special=True, Haar SO(d) by flipping one column sign."""
    q = _gauged_q(rng.standard_normal((d, d)))
    if special and np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


FRAME_BLOCK = 32  # vectors that matrix products project off the finished pairs at once


def symplectic_frame(vectors) -> np.ndarray:
    """Orthonormal F = [w_1 .. w_k | -J w_1 .. -J w_k] whose span holds every
    vector and its J-image, -J taking the halves (u, v) of w to (-conj(v),
    conj(u)). Each vector, in order, is projected off the finished pairs
    twice, a block of ``FRAME_BLOCK`` at a time by matrix products first; one
    whose residual is at most ``DEFAULT_TOL`` times its norm adds nothing.
    F^T Omega F = Omega_2k, so F = U E for a symplectic unitary U and E the
    columns e_0 .. e_{k-1}, e_{d/2} .. e_{d/2+k-1}.

    ``vectors`` is a sequence of d-vectors, or a stack (s, count, d) of such
    sets that one Gram-Schmidt runs over, giving a stack (s, d, 2k) of their
    frames; the members must drop the same vectors."""
    vectors = np.asarray(vectors)
    stack = vectors.reshape((-1,) + vectors.shape[-2:])
    size, count, d = stack.shape
    # kept pair j in rows 2j, 2j + 1 as w, -J w; a block's vectors wait in the
    # even rows that follow the pairs kept so far
    pairs = np.empty((size, 2 * count, d), dtype=complex)
    flat = pairs.view(float)[..., None, :]  # a norm is a real dot product of its row
    k = 0
    for start in range(0, count, FRAME_BLOCK):
        chunk = stack[:, start:start + FRAME_BLOCK]
        block, f = (a[:, 2 * k:2 * (k + chunk.shape[1]):2] for a in (pairs, flat))
        block[:] = chunk
        floors = DEFAULT_TOL * np.sqrt(f @ f.swapaxes(2, 3)).swapaxes(0, 1)  # each (s, 1, 1)
        for _ in range(2 if k else 0):  # conjugates stay block-sized
            block -= (block.conj() @ pairs[:, :2 * k].swapaxes(1, 2)).conj() @ pairs[:, :2 * k]
        j = 0
        for i, floor in enumerate(floors):
            r, done = pairs[:, 2 * (k + i), None], pairs[:, 2 * k:2 * (k + j)]
            for _ in range(2 if j else 0):
                r -= np.vecdot(done, r)[:, None] @ done
            f = flat[:, 2 * (k + i)]
            residual = np.sqrt(f @ f.swapaxes(1, 2))
            kept = residual > floor
            if kept.all():
                unit = np.multiply(r, 1 / residual, out=pairs[:, 2 * (k + j), None])
                image = pairs[:, 2 * (k + j) + 1].reshape(size, 2, -1)
                np.conjugate(unit.reshape(size, 2, -1)[:, ::-1], out=image)
                np.negative(image[:, 0], out=image[:, 0])
                j += 1
            elif kept.any():
                raise DomainError("the members of a stack span different dimensions")
        k += j
    out = np.concatenate((pairs[:, 0:2 * k:2], pairs[:, 1:2 * k:2]), axis=1).swapaxes(1, 2)
    return out.reshape(vectors.shape[:-2] + out.shape[1:])


def sample_sp_columns(d: int, k: int, rng: np.random.Generator,
                      count: int | None = None) -> np.ndarray:
    """Columns [S e_0 .. S e_{k-1} | S e_m .. S e_{m+k-1}] (m = d/2) of a Haar
    S in SP(d/2) as a d x 2k complex matrix Q, at O(d k^2) cost: the first k
    quaternionic columns of the QR factor depend only on those of the
    Gaussian. Q^dag Q = I and Q^T omega(d) Q = omega(2k); at k = m this is
    the full Haar matrix. With a ``count``, a stack (count, d, 2k) of that
    many successive draws: one request of the generator, which reads the
    normals that as many single draws would, and one Gram-Schmidt."""
    if d % 2 or d < 2:
        raise DomainError(f"SP sampler needs even d >= 2, got {d}")
    m = d // 2
    if not 1 <= k <= m:
        raise DomainError(f"need 1 <= k <= d/2 = {m} quaternionic columns, got {k}")
    if count is not None and count < 1:
        raise DomainError(f"need a positive count of draws, got {count}")
    # per draw, the blocks a, b, c, d in turn, and the images [a + bi; -c + di]
    # of the k columns as rows
    q = rng.standard_normal((count or 1, 4, m, k)).swapaxes(2, 3)
    images = np.empty((len(q), k, d), dtype=complex)
    re, im = images.real, images.imag
    re[..., :m], im[..., :m], im[..., m:] = q[:, 0], q[:, 1], q[:, 3]
    np.negative(q[:, 2], out=re[..., m:])
    del q  # freed before the frames are built
    frames = symplectic_frame(images)
    return frames if count else frames[0]


def sample_sp(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar SP(d/2) as a d x d complex matrix, symplectic w.r.t. omega(d)."""
    return sample_sp_columns(d, d // 2, rng)


# group -> Haar sampler, called as sampler(d, rng)
SAMPLERS = {"sp": sample_sp, "o": sample_orthogonal,
            "so": partial(sample_orthogonal, special=True), "u": sample_unitary}


def check_sample(group: str, d: int, count: int) -> None:
    """Checks of ``count`` draws from ``SAMPLERS[group]``: per entry of a d x d
    matrix, 16 B for each output draw and 80 B for one draw (the Ginibre
    matrix, Q and R, or sp's Gaussian blocks, their images, the Gram-Schmidt's
    rows and their copy in column order; tracemalloc: 40 B for sp at d = 512)."""
    if group not in SAMPLERS:
        raise DomainError(f"unknown group {group!r}; expected one of {tuple(SAMPLERS)}")
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if group == "sp" and d % 2:
        raise DomainError(f"symplectic dimension must be even, got {d}")
    if d < 1:
        raise DomainError(f"dimension must be positive, got {d}")
    check_bytes("the sample array with one draw", 16 * count + 80, d, 2)


# brick-layer block group -> its SAMPLERS key; every block is 4 x 4
BLOCK_GROUPS = {"sp2": "sp", "so4": "so", "o4": "o", "u4": "u"}


def brick_layer(n: int) -> tuple:
    """One brick layer as its two half layers, each a tuple of disjoint
    ((q, q + 1), group) gates in gate order: the odd half (1, 2), (3, 4), ...
    then the even half (2, 3), (4, 5), ..., empty at n = 2. The gate on
    qubit 1 is SP(2), every other O(4)."""
    return tuple(tuple(((q, q + 1), "sp2" if q == 1 else "o4") for q in range(start, n, 2))
                 for start in (1, 2))


def sample_block(group: str, rng: np.random.Generator) -> np.ndarray:
    """4x4 complex Haar block for the brick-layer circuit families."""
    if group not in BLOCK_GROUPS:
        raise DomainError(f"unknown block group {group!r}; expected one of "
                          f"{tuple(BLOCK_GROUPS)}")
    return SAMPLERS[BLOCK_GROUPS[group]](4, rng).astype(complex)


# ---------------------------------------------------------------------------
# predicates

def symplectic_defect(m: np.ndarray) -> float:
    """max-norm of M^T Omega M - Omega, for Omega = omega(d)."""
    d = m.shape[0]
    if d % 2:
        raise DomainError(f"symplectic predicate needs even dimension, got {d}")
    om = omega(d)
    return float(np.abs(m.T @ om @ m - om).max())


def is_symplectic(m: np.ndarray) -> bool:
    """symplectic_defect(M) <= DEFAULT_TOL."""
    return symplectic_defect(m) <= DEFAULT_TOL


def is_unitary(m: np.ndarray) -> bool:
    """max-norm of M^dag M - I at most DEFAULT_TOL."""
    d = m.shape[0]
    return float(np.abs(m.conj().T @ m - np.eye(d)).max()) <= DEFAULT_TOL


def is_in_sp_algebra_dense(m: np.ndarray) -> bool:
    """Algebra membership: M^T Omega = -Omega M and M anti-Hermitian, each
    to DEFAULT_TOL in max-norm."""
    d = m.shape[0]
    if d % 2:
        raise DomainError(f"symplectic predicate needs even dimension, got {d}")
    om = omega(d)
    if np.abs(m.T @ om + om @ m).max() > DEFAULT_TOL:
        return False
    return bool(np.abs(m + m.conj().T).max() <= DEFAULT_TOL)
