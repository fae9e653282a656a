"""Haar samplers for SP(d/2), O(d), SO(d), U(d) and dense group predicates.

All samplers are Ginibre + QR with an explicit gauge fixing (triangular-factor
diagonal normalized), which makes the distribution exactly Haar rather than
merely unitary.

The symplectic sampler draws a (d/2) x (d/2) matrix of standard-normal
quaternions, maps each quaternion a+bi+cj+dk to the 2x2 complex block
[[a+bi, c+di], [-c+di, a-bi]], and QR-factorizes the d x d complex image with
the R-diagonal gauge-fixed to positive reals. Positive-diagonal QR is unique,
so the complex factorization coincides with the quaternionic one and Q is a
quaternionic unitary: exactly symplectic w.r.t. the paired form
Omega' = I_{d/2} (x) [[0,1],[-1,0]]. A fixed perfect-shuffle permutation
(old 2k -> new k, old 2k+1 -> new k + d/2) then conjugates to the canonical
block form Omega = [[0, I], [-I, 0]], which on qubits equals iY (x) I.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class RngStream:
    """Reproducible substream: identical (seed, stream_id) -> identical draws.

    stream_id may be an int, a short string label (hashed to a stable uint32
    via crc32, so labels survive process restarts), or a tuple of either.
    """

    seed: int
    stream_id: int | str | tuple = 0

    def _key(self) -> tuple:
        sid = self.stream_id if isinstance(self.stream_id, tuple) else (self.stream_id,)
        return tuple(
            zlib.crc32(s.encode()) if isinstance(s, str) else int(s) for s in sid
        )

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=self._key())
        )

    def child(self, k: int | str) -> "RngStream":
        sid = self.stream_id if isinstance(self.stream_id, tuple) else (self.stream_id,)
        return RngStream(self.seed, sid + (k,))


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise DomainError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


def omega(d: int) -> np.ndarray:
    """Canonical symplectic form [[0, I], [-I, 0]] for any even d."""
    if d % 2:
        raise DomainError(f"symplectic form needs even d, got {d}")
    m = d // 2
    out = np.zeros((d, d))
    out[:m, m:] = np.eye(m)
    out[m:, :m] = -np.eye(m)
    return out


def sample_unitary(d: int, rng) -> np.ndarray:
    """Haar U(d): complex Ginibre, QR, R-diagonal phase gauge."""
    g = as_generator(rng)
    a = (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return q


def sample_orthogonal(d: int, rng, special: bool = False) -> np.ndarray:
    """Haar O(d); with special=True, Haar SO(d) by flipping one column sign."""
    g = as_generator(rng)
    a = g.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if special and np.linalg.det(q) < 0:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q


def _shuffle_perm(d: int) -> np.ndarray:
    # new index k takes old index 2k; new k + d/2 takes old 2k + 1
    m = d // 2
    inv = np.empty(d, dtype=np.intp)
    inv[:m] = 2 * np.arange(m)
    inv[m:] = 2 * np.arange(m) + 1
    return inv


def sample_sp(d: int, rng) -> np.ndarray:
    """Haar SP(d/2) as a d x d complex matrix, symplectic w.r.t. omega(d)."""
    if d % 2 or d < 2:
        raise DomainError(f"SP sampler needs even d >= 2, got {d}")
    g = as_generator(rng)
    m = d // 2
    qa = g.standard_normal((m, m))
    qb = g.standard_normal((m, m))
    qc = g.standard_normal((m, m))
    qd = g.standard_normal((m, m))
    a = np.empty((d, d), dtype=complex)
    a[0::2, 0::2] = qa + 1j * qb
    a[0::2, 1::2] = qc + 1j * qd
    a[1::2, 0::2] = -qc + 1j * qd
    a[1::2, 1::2] = qa - 1j * qb
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    inv = _shuffle_perm(d)
    return q[np.ix_(inv, inv)]


BLOCK_GROUPS = ("sp2", "so4", "o4", "u4")


def sample_block(group: str, rng) -> np.ndarray:
    """4x4 Haar block for the brick-layer circuit families."""
    if group == "sp2":
        return sample_sp(4, rng)
    if group == "so4":
        return sample_orthogonal(4, rng, special=True)
    if group == "o4":
        return sample_orthogonal(4, rng).astype(complex)
    if group == "u4":
        return sample_unitary(4, rng)
    raise DomainError(f"unknown block group {group!r}; expected one of {BLOCK_GROUPS}")


# ---------------------------------------------------------------------------
# predicates

def symplectic_defect(m: np.ndarray, form: np.ndarray | None = None) -> float:
    """max-norm of M^T Omega M - Omega."""
    d = m.shape[0]
    if d % 2:
        raise DomainError(f"symplectic predicate needs even dimension, got {d}")
    om = omega(d) if form is None else form
    return float(np.abs(m.T @ om @ m - om).max())


def is_symplectic(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return symplectic_defect(m) <= tol


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    d = m.shape[0]
    return float(np.abs(m.conj().T @ m - np.eye(d)).max()) <= tol


def is_in_sp_algebra_dense(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Algebra membership: M^T Omega = -Omega M and M anti-Hermitian."""
    d = m.shape[0]
    if d % 2:
        raise DomainError(f"symplectic predicate needs even dimension, got {d}")
    om = omega(d)
    if np.abs(m.T @ om + om @ m).max() > tol:
        return False
    return bool(np.abs(m + m.conj().T).max() <= tol)
