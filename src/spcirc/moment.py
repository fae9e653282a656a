"""Exact second-moment propagation for brick-layer circuits.

The averaged two-copy operator E[rho (x) rho] of a brick-layer circuit stays
inside a per-qubit product basis: qubit 1 carries {I, S}, every other qubit
{I, S, B}, where (on the two copies of qubit J)

    S_J = XX + YY + ZZ,    B_J = XX - YY + ZZ.

Each Haar block acts on this reduced space as a small transfer matrix
derived here from the exact t = 2 twirl (symplectic for the block on qubit
1, orthogonal elsewhere) rather than transcribed from a table. The label
basis is not orthogonal (S and B overlap), so re-expansion goes through the
per-qubit Gram matrices.

Before any block has acted, |0><0|^(x)2 per qubit is outside the label span;
such qubits carry the one-element bootstrap alphabet ("raw",) and enter the
label basis the first time a block touches them. One full layer labels every
qubit.

Collision probability: z = sum_x E[p(x)^2] contracts the label vector
against (x)_J sum_b |bb><bb|; per-label contraction values are computed from
the dense 4x4 oracle, never hardcoded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import brauer, circuit, kernels
from .errors import CapacityError, ConsistencyError, DomainError
from .pauli import _DENSE_1Q
from .sampler import as_generator

LABEL_BUDGET = 16


def _two_copy(p: str) -> np.ndarray:
    m = _DENSE_1Q[p]
    return np.kron(m, m).real


_E00 = np.zeros((4, 4))
_E00[0, 0] = 1.0

LABEL_OPS = {
    "I": np.eye(4),
    "S": _two_copy("X") + _two_copy("Y") + _two_copy("Z"),
    "B": _two_copy("X") - _two_copy("Y") + _two_copy("Z"),
    "raw": _E00,
}

ALPHA_FIRST = ("I", "S")
ALPHA_REST = ("I", "S", "B")
ALPHA_RAW = ("raw",)

# per-qubit measurement functional sum_b |bb><bb| on the two copies
_MEAS = np.zeros((4, 4))
_MEAS[0, 0] = 1.0
_MEAS[3, 3] = 1.0


def label_gram(alphabet) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix of the per-qubit label operators."""
    ops = [LABEL_OPS[a] for a in alphabet]
    return np.array([[float(np.sum(x * y)) for y in ops] for x in ops])


def contraction_values(alphabet) -> np.ndarray:
    """Tr[label * sum_b |bb><bb|] per label, from the dense oracle."""
    return np.array([float(np.sum(LABEL_OPS[a] * _MEAS)) for a in alphabet])


def z_haar(n: int) -> float:
    """Collision probability of a globally Haar state family: 2/(d + 1)."""
    return 2.0 / (2**n + 1)


# ---------------------------------------------------------------------------
# block transfer matrices

def _copy_swap(x16: np.ndarray) -> np.ndarray:
    """Reorder a 16x16 two-qubit-two-copy operator between qubit-major
    (q_a copies, q_b copies) and copy-major (copy 1 qubits, copy 2 qubits)
    index conventions; the permutation is its own inverse."""
    t = x16.reshape((2,) * 8)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return np.ascontiguousarray(t.reshape(16, 16))


_GROUP_FORM = {"sp2": "sp", "o4": "o"}


def _out_alphabets(group: str):
    if group == "sp2":
        return ALPHA_FIRST, ALPHA_REST
    if group == "o4":
        return ALPHA_REST, ALPHA_REST
    raise DomainError(f"no label transfer for block group {group!r}")


_TRANSFER_CACHE: dict = {}


def block_transfer(group: str, in_a, in_b) -> np.ndarray:
    """Row-action transfer of one Haar block: entry [i, o] is the coefficient
    of output label pair o in the exact twirl of input label pair i.

    Derivation: push each dense input pair through the t = 2 Weingarten
    twirl of the block's group at d = 4, then re-expand in the (non-
    orthogonal) output label basis via the per-qubit Gram inverses. A
    residual above 1e-10 in the re-expansion is a basis/ordering bug and
    raises ConsistencyError.
    """
    key = (group, tuple(in_a), tuple(in_b))
    if key in _TRANSFER_CACHE:
        return _TRANSFER_CACHE[key]
    out_a, out_b = _out_alphabets(group)
    ga_inv = np.linalg.inv(label_gram(out_a))
    gb_inv = np.linalg.inv(label_gram(out_b))
    basis_a = [LABEL_OPS[a] for a in out_a]
    basis_b = [LABEL_OPS[b] for b in out_b]
    rows = []
    for la in in_a:
        for lb in in_b:
            x = _copy_swap(np.kron(LABEL_OPS[la], LABEL_OPS[lb]))
            tw = brauer.twirl(x.astype(complex), 2, 4, _GROUP_FORM[group])
            y = brauer.twirl_matrix(tw)
            if np.abs(y.imag).max() > 1e-12:
                raise ConsistencyError("twirl of a real operator came out complex")
            y = _copy_swap(y.real)
            m = np.array(
                [[np.sum(np.kron(ka, kb) * y) for kb in basis_b] for ka in basis_a]
            )
            c = ga_inv @ m @ gb_inv
            recon = sum(
                c[i, j] * np.kron(basis_a[i], basis_b[j])
                for i in range(len(out_a))
                for j in range(len(out_b))
            )
            if np.abs(recon - y).max() > 1e-10:
                raise ConsistencyError(
                    f"label re-expansion residual {np.abs(recon - y).max():.2e} "
                    f"for {group} input ({la},{lb})"
                )
            rows.append(c.ravel())
    out = np.array(rows)
    out.setflags(write=False)
    _TRANSFER_CACHE[key] = out
    return out


@dataclass(frozen=True)
class TransferMatrix:
    """Row-action matrix of one block on fully labeled inputs.

    ``basis_order`` lists the label pairs indexing both rows (inputs) and
    columns (outputs): lexicographic with I < S < B, first factor the
    lower-numbered qubit, e.g. II, IS, IB, SI, SS, SB for sp2.
    """

    kind: str
    entries: np.ndarray
    basis_order: tuple


def derive_transfer(kind: str) -> TransferMatrix:
    out_a, out_b = _out_alphabets(kind)
    entries = block_transfer(kind, out_a, out_b)
    order = tuple(a + b for a in out_a for b in out_b)
    return TransferMatrix(kind, entries, order)


# ---------------------------------------------------------------------------
# label vectors and propagation

@dataclass
class LabelVector:
    """Coefficients of E[rho (x) rho] over per-qubit label products.

    ``alphabets[j]`` is the alphabet of qubit j + 1; coefficients are stored
    flat in row-major qubit order. Qubits no block has touched yet hold the
    bootstrap alphabet ("raw",).
    """

    n: int
    alphabets: tuple
    coeffs: np.ndarray
    layers: int = 0

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=float)
        dims = self.dims()
        if self.coeffs.shape != (int(np.prod(dims)),):
            raise DomainError(
                f"coefficient length {self.coeffs.shape} != prod{dims}"
            )

    def dims(self) -> tuple:
        return tuple(len(a) for a in self.alphabets)


def check_propagation(n: int, layers: int = 0) -> None:
    """Checks of ``propagate``: n >= 2 within the label budget, layers >= 0."""
    if layers < 0:
        raise DomainError(f"negative layer count {layers}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if n > LABEL_BUDGET:
        raise CapacityError(f"n = {n} exceeds the dense label budget (n <= {LABEL_BUDGET})")


def initial_label_vector(n: int) -> LabelVector:
    """The pre-circuit two-copy state |0><0|^(x)2n: every qubit raw, z = 1."""
    check_propagation(n)
    return LabelVector(n, (ALPHA_RAW,) * n, np.ones(1), layers=0)


def _apply_block(v: LabelVector, bond: int, group: str) -> LabelVector:
    """Bond (bond, bond + 1), 1-based."""
    in_a = v.alphabets[bond - 1]
    in_b = v.alphabets[bond]
    row = block_transfer(group, in_a, in_b)
    dims = v.dims()
    left = int(np.prod(dims[: bond - 1], dtype=np.int64))
    right = int(np.prod(dims[bond + 1 :], dtype=np.int64))
    din = len(in_a) * len(in_b)
    out = kernels.transfer_apply(v.coeffs, row.T, left, din, right)
    out_a, out_b = _out_alphabets(group)
    alphabets = (
        v.alphabets[: bond - 1] + (out_a, out_b) + v.alphabets[bond + 1 :]
    )
    return LabelVector(v.n, alphabets, out, layers=v.layers)


def propagate(v: LabelVector, layers: int) -> LabelVector:
    """Apply ``layers`` full brick layers (odd bonds then even bonds; the
    bond containing qubit 1 is symplectic, every other bond orthogonal)."""
    check_propagation(v.n, layers)
    for _ in range(layers):
        for start in (1, 2):
            for i in range(start, v.n, 2):
                v = _apply_block(v, i, "sp2" if i == 1 else "o4")
        v = LabelVector(v.n, v.alphabets, v.coeffs, layers=v.layers + 1)
    return v


def collision_probability(v: LabelVector) -> float:
    """z = sum_x E[p(x)^2]: contract against (x)_J sum_b |bb><bb|."""
    t = v.coeffs.reshape(v.dims())
    for alpha in v.alphabets:
        t = np.tensordot(contraction_values(alpha), t, axes=([0], [0]))
    return float(t)


def collision_trace(n: int, layers: int) -> list:
    """[z(0 layers), z(1), ..., z(layers)]."""
    v = initial_label_vector(n)
    trace = [collision_probability(v)]
    for _ in range(layers):
        v = propagate(v, 1)
        trace.append(collision_probability(v))
    return trace


@dataclass(frozen=True)
class DepthResult:
    n: int
    epsilon: float
    n_l_star: int | None
    z_trace: tuple


def check_depth(n: int, epsilon: float) -> None:
    """Checks of ``depth_to_anticoncentrate``."""
    if not epsilon > 0:
        raise DomainError(f"epsilon must be positive, got {epsilon}")
    check_propagation(n)


def depth_to_anticoncentrate(
    n: int, epsilon: float = 0.01, max_layers: int = 500
) -> DepthResult:
    """Smallest layer count with |z_haar - z| < epsilon/d; None if unreached
    within max_layers. z_trace starts at depth 0."""
    check_depth(n, epsilon)
    target = epsilon / 2**n
    zh = z_haar(n)
    v = initial_label_vector(n)
    trace = [collision_probability(v)]
    hit = None
    for layer in range(1, max_layers + 1):
        v = propagate(v, 1)
        z = collision_probability(v)
        trace.append(z)
        if abs(zh - z) < target:
            hit = layer
            break
    return DepthResult(n, epsilon, hit, tuple(trace))


@dataclass(frozen=True)
class LogFit:
    """Least-squares fit depth = a*log(n) + b over an n sweep."""

    a: float
    b: float
    r_squared: float


def fit_log_depth(ns, depths) -> LogFit:
    ns = np.asarray(ns, dtype=float)
    depths = np.asarray(depths, dtype=float)
    if ns.size < 2:
        raise DomainError("need at least two points to fit")
    a, b = np.polyfit(np.log(ns), depths, 1)
    pred = a * np.log(ns) + b
    ss_res = float(np.sum((depths - pred) ** 2))
    ss_tot = float(np.sum((depths - depths.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LogFit(float(a), float(b), r2)


# ---------------------------------------------------------------------------
# dense oracles (test surface; exponential in n)

DENSE_ORACLE_LIMIT = 6


def _block_superop(group: str) -> np.ndarray:
    """256x256 real matrix of the exact block twirl acting on vec(X), X a
    16x16 copy-major two-copy operator of the block's two qubits."""
    form = _GROUP_FORM[group]
    g, reps = brauer._representations(2, 4, form)
    f = np.stack([r.ravel() for r in reps], axis=1)
    return f @ g.inverse() @ f.T


def dense_second_moment(n: int, layers: int) -> np.ndarray:
    """E[rho (x) rho] after the given layer count, built by composing exact
    per-block twirl superoperators on the full 4^n-dimensional space."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if n > DENSE_ORACLE_LIMIT:
        raise CapacityError(
            f"dense second-moment oracle capped at n <= {DENSE_ORACLE_LIMIT}"
        )
    dim = 4**n
    m = np.zeros((dim, dim))
    m[0, 0] = 1.0
    # axes: rows (copy1 qubits 1..n, copy2 qubits 1..n), then columns likewise
    shape = (2,) * (4 * n)
    for _ in range(layers):
        for start in (1, 2):
            for i in range(start, n, 2):
                s = _block_superop("sp2" if i == 1 else "o4")
                axes = [
                    i - 1, i,                     # rows, copy 1
                    n + i - 1, n + i,             # rows, copy 2
                    2 * n + i - 1, 2 * n + i,     # cols, copy 1
                    3 * n + i - 1, 3 * n + i,     # cols, copy 2
                ]
                t = np.moveaxis(m.reshape(shape), axes, range(8))
                rest = t.shape[8:]
                flat = np.ascontiguousarray(t.reshape(256, -1))
                flat = s @ flat
                t = np.moveaxis(flat.reshape((2,) * 8 + rest), range(8), axes)
                m = t.reshape(dim, dim)
    return m


def dense_collision(m: np.ndarray, n: int) -> float:
    """z from a dense two-copy operator: sum_x <xx|M|xx>."""
    d = 2**n
    idx = np.arange(d) * d + np.arange(d)
    return float(np.real(m[idx, idx].sum()))


def monte_carlo_collision(n: int, layers: int, n_samples: int, rng):
    """Sampled z over brick-layer circuits; returns (mean, standard error)."""
    gen = as_generator(rng)
    psi0 = circuit.initial_state(n)
    vals = np.empty(n_samples)
    for k in range(n_samples):
        circ = circuit.build_bricklayer(n, layers, gen)
        amp = circuit.apply(circ, psi0).amplitudes
        p = np.abs(amp) ** 2
        vals[k] = float(np.sum(p * p))
    se = float(vals.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return float(vals.mean()), se
