"""Exact second-moment propagation for brick-layer circuits.

The averaged two-copy operator E[rho (x) rho] of a brick-layer circuit stays
inside a per-qubit product basis: qubit 1 carries {I, S}, every other qubit
{I, S, B}, where (on the two copies of qubit J)

    S_J = XX + YY + ZZ,    B_J = XX - YY + ZZ.

Each Haar block acts on this reduced space as a small transfer matrix
derived here rather than transcribed from a table: the projection onto the
label pairs of the block's exact t = 2 twirl superoperator (symplectic for
the block on qubit 1, orthogonal elsewhere), the 256 x 256 matrix the dense
oracle applies as well. The label basis is not orthogonal (S and B
overlap), so the projection solves the normal equations of the label pairs.

Before any block has acted, |0><0|^(x)2 per qubit is outside the label span;
such qubits carry the one-element bootstrap alphabet ("raw",) and enter the
label basis the first time a block touches them. One full layer labels every
qubit.

Collision probability: z = sum_x E[p(x)^2] contracts the label vector
against (x)_J sum_b |bb><bb|; per-label contraction values are computed from
the dense 4x4 oracle, never hardcoded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import brauer, circuit, kernels
from .errors import ConsistencyError, DomainError, check_bytes
from .pauli import DENSE_1Q
from .sampler import BLOCK_GROUPS, as_generator


def _two_copy(p: str) -> np.ndarray:
    m = DENSE_1Q[p]
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


def _out_alphabets(group: str):
    if group == "sp2":
        return ALPHA_FIRST, ALPHA_REST
    if group == "o4":
        return ALPHA_REST, ALPHA_REST
    raise DomainError(f"no label transfer for block group {group!r}")


_TRANSFER_CACHE: dict = {}


def _label_basis(alpha_a, alpha_b) -> np.ndarray:
    """256 x (|alpha_a| |alpha_b|) matrix whose columns are the vec'd
    copy-major operators of the label pairs, first factor outermost."""
    return np.stack(
        [_copy_swap(np.kron(LABEL_OPS[a], LABEL_OPS[b])).ravel()
         for a in alpha_a for b in alpha_b],
        axis=1,
    )


def block_transfer(group: str, in_a, in_b) -> np.ndarray:
    """Row-action transfer of one Haar block: entry [i, o] is the coefficient
    of output label pair o in the exact twirl of input label pair i.

    Derivation: a projection of the block superoperator S onto the label
    pairs. S is ``brauer.twirl_superoperator`` of the block's group at t = 2
    and d = 4, the 256 x 256 matrix the dense oracle applies to vec(X), X a
    16 x 16 copy-major two-copy operator of the block's two qubits. With
    B_in and B_out the vec'd input and output pairs, C solves the normal
    equations (B_out^T B_out) C = B_out^T S B_in, since the output labels
    are not orthogonal. A residual B_out C - S B_in above 1e-10 is a
    basis/ordering bug and raises ConsistencyError.
    """
    key = (group, tuple(in_a), tuple(in_b))
    if key in _TRANSFER_CACHE:
        return _TRANSFER_CACHE[key]
    b_out = _label_basis(*_out_alphabets(group))
    y = brauer.twirl_superoperator(2, 4, BLOCK_GROUPS[group]) @ _label_basis(in_a, in_b)
    c = np.linalg.solve(b_out.T @ b_out, b_out.T @ y)
    residual = np.abs(b_out @ c - y).max()
    if residual > 1e-10:
        raise ConsistencyError(
            f"label re-expansion residual {residual:.2e} for {group} inputs "
            f"{tuple(in_a)} x {tuple(in_b)}"
        )
    out = np.ascontiguousarray(c.T)
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


def _full_size(n: int) -> int:
    """Coefficients of a fully labeled vector: {I, S} on qubit 1, {I, S, B}
    on the rest. No label vector of the propagation is larger."""
    return 2 * 3 ** (n - 1)


def check_propagation(n: int, layers: int = 0) -> None:
    """Checks of ``propagate`` and the z contractions after it: n >= 2,
    layers >= 0, and per coefficient of ``_full_size(n)`` the two float64
    buffers (16 B) and ``collision_probability``'s partial sums (4 B)."""
    if layers < 0:
        raise DomainError(f"negative layer count {layers}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    check_bytes(f"label propagation at n = {n}", 2 * 20, 3, n - 1)


def initial_label_vector(n: int) -> LabelVector:
    """The pre-circuit two-copy state |0><0|^(x)2n: every qubit raw, z = 1."""
    check_propagation(n)
    return LabelVector(n, (ALPHA_RAW,) * n, np.ones(1), layers=0)


def _half_layers(n: int) -> list:
    """The odd-bond and the even-bond halves of ``circuit.brick_layer(n)``,
    each a set of disjoint blocks; the even half is empty at n = 2."""
    layer = circuit.brick_layer(n)
    halves = ([b for b in layer if b[0] % 2 == 1], [b for b in layer if b[0] % 2 == 0])
    return [h for h in halves if h]


def _half_layer_blocks(alphabets: tuple, half: list) -> list:
    """One half layer as blocks that tile qubits 1..n: (row-action matrix,
    output alphabets) per block, first qubit first. A qubit that no block of
    the half touches (qubit 1 in the even half, qubit n in the half whose
    last bond ends before it) is folded into its neighbour's block as an
    identity factor, kron(I, T) or kron(T, I); on a raw qubit that factor
    is 1 x 1."""
    n = len(alphabets)
    blocks = []
    for k, (bond, group) in enumerate(half):
        lo = 1 if k == 0 else bond
        hi = n if k == len(half) - 1 else bond + 1
        row = block_transfer(group, alphabets[bond - 1], alphabets[bond])
        left = alphabets[lo - 1 : bond - 1]
        right = alphabets[bond + 1 : hi]
        if left:
            row = np.kron(np.eye(math.prod(map(len, left))), row)
        if right:
            row = np.kron(row, np.eye(math.prod(map(len, right))))
        blocks.append((row, left + _out_alphabets(group) + right))
    return blocks


def _layers(v: LabelVector):
    """Yield ``v`` after each further brick layer, without end.

    A half layer is the Kronecker product of its blocks. Each block is one
    ``kernels.transfer_apply`` gemm that contracts the vector's trailing
    qubits and writes them first, so walking the blocks from the last qubit
    to the first leaves the qubits in their order. The passes alternate
    between two buffers of ``_full_size(n)`` float64; a yielded vector is a
    view into one of them and holds only until the next step.
    """
    buffers = (np.empty(_full_size(v.n)), np.empty(_full_size(v.n)))
    halves = _half_layers(v.n)
    alphabets, cur, layers, passes = v.alphabets, v.coeffs, v.layers, 0
    while True:
        for half in halves:
            blocks = _half_layer_blocks(alphabets, half)
            for row, _ in reversed(blocks):
                din, dout = row.shape
                rest = cur.size // din
                out = buffers[passes % 2][: dout * rest]
                cur = kernels.transfer_apply(cur, row.T, rest, din, 1, out=out)
                passes += 1
            alphabets = sum((out_ab for _, out_ab in blocks), ())
        layers += 1
        yield LabelVector(v.n, alphabets, cur, layers=layers)


def propagate(v: LabelVector, layers: int) -> LabelVector:
    """Apply ``layers`` full brick layers (``circuit.brick_layer``)."""
    check_propagation(v.n, layers)
    for v in itertools.islice(_layers(v), layers):
        pass
    return v


def collision_probability(v: LabelVector) -> float:
    """z = sum_x E[p(x)^2]: contract against (x)_J sum_b |bb><bb|, the
    trailing qubit of the contiguous vector first."""
    t = v.coeffs
    for alpha in reversed(v.alphabets):
        t = t.reshape(-1, len(alpha)) @ contraction_values(alpha)
    return float(t[0])


def collision_trace(n: int, layers: int) -> list:
    """[z(0 layers), z(1), ..., z(layers)]."""
    check_propagation(n, layers)
    v = initial_label_vector(n)
    steps = itertools.islice(_layers(v), layers)
    return [collision_probability(v)] + [collision_probability(w) for w in steps]


@dataclass(frozen=True)
class DepthResult:
    n: int
    epsilon: float
    n_l_star: int | None
    z_trace: tuple


def check_depth(n: int, epsilon: float, max_layers: int) -> None:
    """Checks of ``depth_to_anticoncentrate``."""
    if not 0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    if max_layers < 1:
        raise DomainError(f"need max_layers >= 1, got {max_layers}")
    check_propagation(n)


def depth_to_anticoncentrate(
    n: int, epsilon: float = 0.01, max_layers: int = 500
) -> DepthResult:
    """Smallest layer count with |z_haar - z| < epsilon/d; None if unreached
    within max_layers. z_trace starts at depth 0."""
    check_depth(n, epsilon, max_layers)
    target = epsilon / 2**n
    zh = z_haar(n)
    v = initial_label_vector(n)
    trace = [collision_probability(v)]
    hit = None
    for layer, w in enumerate(itertools.islice(_layers(v), max_layers), start=1):
        z = collision_probability(w)
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

def dense_second_moment(n: int, layers: int) -> np.ndarray:
    """E[rho (x) rho] after the given layer count, built by composing exact
    per-block twirl superoperators on the full 4^n-dimensional space."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    # per entry: three float64 copies of the operator (m, its moved copy and the
    # product) and 8 B, which bound the 256 x 256 block superoperators from n = 5
    check_bytes(f"the dense second moment at n = {n}", 32, 16, n)
    dim = 4**n
    m = np.zeros((dim, dim))
    m[0, 0] = 1.0
    # axes: rows (copy1 qubits 1..n, copy2 qubits 1..n), then columns likewise
    shape = (2,) * (4 * n)
    supers = {group: brauer.twirl_superoperator(2, 4, BLOCK_GROUPS[group])
              for _, group in circuit.brick_layer(n)}
    for _ in range(layers):
        for i, group in circuit.brick_layer(n):
            s = supers[group]
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
