"""Exact second-moment propagation for brick-layer circuits.

After a block of a brick layer, the t = 2 twirl leaves the averaged two-copy
operator E[rho (x) rho] of the block's two qubits in the span of its group's
three Brauer diagrams Id, Swap and Pairing (``brauer.enumerate_diagrams(2)``
order, with the block's form: symplectic for the SP(2) block on qubit 1,
orthogonal elsewhere). The block's form is a product over its two qubits,
Omega(4) = iY (x) I = Omega(2) (x) I(2) and I(4) = I(2) (x) I(2), so each
diagram is a product of one-qubit factors on the two copies of each qubit,
and each factor is the same diagram at d = 2: with the block's form on the
first qubit and the orthogonal one on the second (``FACTORS``).

So E[rho (x) rho] is a dense tensor with one axis per block of the last half
layer, indexed by the block's diagrams, plus one axis per edge qubit that the
half did not touch, indexed by that qubit's factor. The next half layer turns
this tensor into the next one by a chain of small contractions: each new
block on bond (q, q + 1) weighs the factor of qubit q in one axis against the
factor of qubit q + 1 in the next with a table W[a, b, tau], the projection of
the exact twirl of that product onto the block's three diagrams. An axis
whose other qubit is still pending passes through the contraction. The
largest tensor has 3^(floor(n/2) + 1) coefficients.

Before any block has acted, |0><0|^(x)2 per qubit lies outside every block
span; such qubits carry the one-element factor "raw" and join a block the
first time one touches them.

The per-qubit label basis {I, S, B}, where (on the two copies of qubit J)

    S_J = XX + YY + ZZ,    B_J = XX - YY + ZZ,

spans every factor. ``block_transfer`` is the one projection of the block
superoperator, ``brauer.twirl_superoperator`` (the 256 x 256 matrix the dense
oracle applies as well), onto products of one-qubit operators: onto the
block's diagrams it gives the W tables, onto label pairs the label-basis
transfer (``derive_transfer``).

Collision probability: z = sum_x E[p(x)^2] contracts the tensor against
(x)_J sum_b |bb><bb|; per-factor contraction values are computed from the
dense 4x4 operators, never hardcoded.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
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

# one-qubit factors of the t = 2 diagrams: name -> (the diagram's place in
# brauer.enumerate_diagrams(2), the form it carries at d = 2);
# ``qubit_operator`` builds them on use, so import computes nothing
FACTORS = {"id": (0, "o"), "swap": (1, "o"), "pair.sp": (2, "sp"), "pair.o": (2, "o")}

# per block group, the labels that span its factors on its first and second qubit
LABEL_ALPHABETS = {"sp2": (("I", "S"), ("I", "S", "B")),
                   "o4": (("I", "S", "B"), ("I", "S", "B"))}
ALPHA_RAW = ("raw",)

# per-qubit measurement functional sum_b |bb><bb| on the two copies
_MEAS = np.zeros((4, 4))
_MEAS[0, 0] = 1.0
_MEAS[3, 3] = 1.0

# Lazily filled, never at import: block transfers, block steps and z
# contraction values, keyed by what they are derived from.
_TRANSFER_CACHE: dict = {}


def _cached(key, make):
    if key not in _TRANSFER_CACHE:
        _TRANSFER_CACHE[key] = make()
    return _TRANSFER_CACHE[key]


def _copy_swap(x16: np.ndarray) -> np.ndarray:
    """Reorder a 16x16 two-qubit-two-copy operator between qubit-major
    (q_a copies, q_b copies) and copy-major (copy 1 qubits, copy 2 qubits)
    index conventions; the permutation is its own inverse."""
    t = x16.reshape((2,) * 8)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return np.ascontiguousarray(t.reshape(16, 16))


def qubit_operator(name: str) -> np.ndarray:
    """The 4x4 operator on the two copies of one qubit that ``name`` stands
    for: a label of ``LABEL_OPS`` or a diagram factor of ``FACTORS``."""
    if name in LABEL_OPS:
        return LABEL_OPS[name]
    if name not in FACTORS:
        raise DomainError(f"unknown one-qubit operator {name!r}")
    place, form = FACTORS[name]
    return brauer.represent(brauer.enumerate_diagrams(2)[place], 2, form)


def label_gram(alphabet) -> np.ndarray:
    """Hilbert-Schmidt Gram matrix of the per-qubit label operators."""
    ops = [LABEL_OPS[a] for a in alphabet]
    return np.array([[float(np.sum(x * y)) for y in ops] for x in ops])


def contraction_values(alphabet) -> np.ndarray:
    """Tr[op * sum_b |bb><bb|] per one-qubit operator name, from the dense
    oracle."""
    return np.array([float(np.sum(qubit_operator(a) * _MEAS)) for a in alphabet])


def z_haar(n: int) -> float:
    """Collision probability of a globally Haar state family: 2/(d + 1)."""
    return 2.0 / (2**n + 1)


# ---------------------------------------------------------------------------
# block transfers: one projection of the block superoperator

def block_alphabet(group: str) -> tuple:
    """The axis a ``group`` block leaves: its diagrams, each as the pair of
    its factors on the block's two qubits."""
    return (("id", "id"), ("swap", "swap"), ("pair." + BLOCK_GROUPS[group], "pair.o"))


def _pair_columns(pairs) -> np.ndarray:
    """256 x len(pairs) matrix whose columns are the vec'd copy-major
    operators of the one-qubit operator pairs (first qubit, second qubit)."""
    return np.stack(
        [_copy_swap(np.kron(qubit_operator(a), qubit_operator(b))).ravel()
         for a, b in pairs],
        axis=1,
    )


def block_transfer(group: str, pairs, out_pairs=None) -> np.ndarray:
    """Row-action matrix of one Haar block: entry [i, o] is the coefficient
    of product ``out_pairs[o]`` in the exact twirl of product ``pairs[i]``,
    each a pair of one-qubit operator names (first qubit, second qubit). The
    outputs default to the block's diagrams (``block_alphabet``).

    S is ``brauer.twirl_superoperator`` of the block's group at t = 2 and
    d = 4, the 256 x 256 matrix the dense oracle applies to vec(X), X a
    16 x 16 copy-major two-copy operator of the block's two qubits. With
    B_in and B_out the vec'd input and output products, C solves the normal
    equations (B_out^T B_out) C = B_out^T S B_in, since the outputs need not
    be orthogonal. A residual B_out C - S B_in above 1e-10 is a
    basis/ordering bug and raises ConsistencyError.
    """
    pairs = tuple(pairs)
    out_pairs = block_alphabet(group) if out_pairs is None else tuple(out_pairs)

    def make():
        b_out = _pair_columns(out_pairs)
        y = brauer.twirl_superoperator(2, 4, BLOCK_GROUPS[group]) @ _pair_columns(pairs)
        c = np.linalg.solve(b_out.T @ b_out, b_out.T @ y)
        residual = np.abs(b_out @ c - y).max()
        if residual > 1e-10:
            raise ConsistencyError(
                f"re-expansion residual {residual:.2e} for {group} inputs {pairs}"
            )
        out = np.ascontiguousarray(c.T)
        out.setflags(write=False)
        return out

    return _cached(("transfer", group, pairs, out_pairs), make)


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
    if kind not in LABEL_ALPHABETS:
        raise DomainError(f"no label transfer for block group {kind!r}")
    pairs = tuple(itertools.product(*LABEL_ALPHABETS[kind]))
    return TransferMatrix(kind, block_transfer(kind, pairs, pairs),
                          tuple(a + b for a, b in pairs))


def block_step(group: str, alpha_a: tuple, alpha_b: tuple | None):
    """(matrix, output alphabets) of one block of a half layer.

    The block's first qubit is the last qubit of the axis with alphabet
    ``alpha_a`` and its second the first qubit of the next axis,
    ``alpha_b``; ``alpha_b`` is None when one axis covers both. The matrix
    maps the input axes to (a', tau, b'): tau indexes the block's diagrams,
    and a' (b') is the input axis passed through when it covers a second
    qubit, now restricted to that qubit. It is W[(a, b), tau] on the
    diagonal of the passed-through axes.
    """
    def make():
        if alpha_b is None:
            w = block_transfer(group, [(e[0], e[1]) for e in alpha_a])
            return np.ascontiguousarray(w.T), (block_alphabet(group),)
        na, nb = len(alpha_a), len(alpha_b)
        w = block_transfer(group, [(ea[-1], eb[0]) for ea in alpha_a for eb in alpha_b])
        keep_a, keep_b = len(alpha_a[0]) == 2, len(alpha_b[0]) == 2
        m = np.zeros((na if keep_a else 1, w.shape[1], nb if keep_b else 1, na, nb))
        for a, b in itertools.product(range(na), range(nb)):
            m[a if keep_a else 0, :, b if keep_b else 0, a, b] = w[a * nb + b]
        outs = (((tuple((e[0],) for e in alpha_a),) if keep_a else ())
                + (block_alphabet(group),)
                + ((tuple((e[1],) for e in alpha_b),) if keep_b else ()))
        m = m.reshape(-1, na * nb)
        m.setflags(write=False)
        return m, outs

    return _cached(("step", group, alpha_a, alpha_b), make)


# ---------------------------------------------------------------------------
# the diagram-basis tensor and its propagation

@dataclass
class LabelVector:
    """Coefficients of E[rho (x) rho] over products of per-axis operators.

    ``alphabets[k]`` lists the index values of axis k; each is a tuple of
    one-qubit operator names (``qubit_operator``), one per qubit the axis
    covers, and the axes cover qubits 1..n in order. Coefficients are
    stored flat, axis 0 outermost. A block axis covers two qubits and is
    indexed by the block's diagrams (``block_alphabet``); a one-qubit axis
    holds a diagram factor or, before any block has touched the qubit,
    (("raw",),).
    """

    n: int
    alphabets: tuple
    coeffs: np.ndarray
    layers: int = 0

    def __post_init__(self):
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=float)
        dims = self.dims()
        if self.coeffs.shape != (math.prod(dims),):
            raise DomainError(
                f"coefficient length {self.coeffs.shape} != prod{dims}"
            )
        covered = sum(len(a[0]) for a in self.alphabets)
        if covered != self.n:
            raise DomainError(f"the axes cover {covered} qubits, not n = {self.n}")

    def dims(self) -> tuple:
        return tuple(len(a) for a in self.alphabets)


def check_propagation(n: int, layers: int = 0) -> None:
    """Checks of ``propagate`` and the z contractions after it: n >= 2, layers
    within what ``itertools.islice`` takes, and per coefficient of the largest
    tensor, 3^(floor(n/2) + 1), three float64 arrays (24 B): the vector a layer
    starts from, which its caller holds, and the input and output of one block
    step. The z contraction's partial sums are smaller."""
    if not 0 <= layers <= sys.maxsize:
        raise DomainError(f"layer count {layers} outside 0..{sys.maxsize} (sys.maxsize)")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    check_bytes(f"second-moment propagation at n = {n}", 24, 3, n // 2 + 1)


def initial_label_vector(n: int) -> LabelVector:
    """The pre-circuit two-copy state |0><0|^(x)2n: every qubit raw, z = 1."""
    check_propagation(n)
    return LabelVector(n, ((ALPHA_RAW,),) * n, np.ones(1), layers=0)


def _half_layers(n: int) -> list:
    """The odd-bond and the even-bond halves of ``circuit.brick_layer(n)``,
    each a set of disjoint blocks; the even half is empty at n = 2.

    Each half lists its blocks in the order its chain of block steps walks
    them: from an end whose qubit the half touches, so that no step holds
    more axes than the half's output. A block that passes an edge qubit
    through adds an axis, and one that meets a one-qubit axis at the far
    end removes one.
    """
    layer = circuit.brick_layer(n)
    halves = ([b for b in layer if b[0] % 2 == 1], [b for b in layer if b[0] % 2 == 0])
    return [h[::-1] if h[0][0] != 1 and h[-1][0] + 1 == n else h for h in halves if h]


def _apply_block(alphabets: list, coeffs: np.ndarray, bond: int, group: str) -> np.ndarray:
    """One block step, a ``kernels.transfer_apply`` call that leaves the
    axes around the block's input axes in place. Updates ``alphabets`` and
    returns the new coefficients."""
    starts = list(itertools.accumulate((len(a[0]) for a in alphabets), initial=1))
    i = bisect.bisect_right(starts, bond) - 1  # the axis holding qubit ``bond``
    width = 1 if starts[i + 1] > bond + 1 else 2  # axes the block reads
    matrix, outs = block_step(group, alphabets[i], None if width == 1 else alphabets[i + 1])
    dims = [len(a) for a in alphabets]
    alphabets[i:i + width] = outs
    return kernels.transfer_apply(
        coeffs, matrix, math.prod(dims[:i]), math.prod(dims[i:i + width]),
        math.prod(dims[i + width:]))


def _layers(v: LabelVector):
    """Yield ``v`` after each further brick layer, without end. Between
    block steps only the step's input and output are held, besides what the
    caller holds."""
    halves = _half_layers(v.n)
    alphabets, coeffs, layers = list(v.alphabets), v.coeffs, v.layers
    while True:
        for half in halves:
            for bond, group in half:
                coeffs = _apply_block(alphabets, coeffs, bond, group)
        layers += 1
        yield LabelVector(v.n, tuple(alphabets), coeffs, layers=layers)


def propagate(v: LabelVector, layers: int) -> LabelVector:
    """Apply ``layers`` full brick layers (``circuit.brick_layer``)."""
    check_propagation(v.n, layers)
    for v in itertools.islice(_layers(v), layers):
        pass
    return v


def _axis_values(alphabet: tuple) -> np.ndarray:
    """z contraction value per index of an axis: the product over its qubits."""
    return _cached(("z", alphabet), lambda: np.array(
        [math.prod(contraction_values(entry)) for entry in alphabet]))


def collision_probability(v: LabelVector) -> float:
    """z = sum_x E[p(x)^2]: contract against (x)_J sum_b |bb><bb|, the
    trailing axis of the contiguous tensor first."""
    t = v.coeffs
    for alpha in reversed(v.alphabets):
        t = t.reshape(-1, len(alpha)) @ _axis_values(alpha)
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
    """Checks of ``depth_to_anticoncentrate``, whose target is about
    |z/z_haar - 1| < epsilon/2. Rounding drives z off z_haar by 0.31 to 0.44
    times layers * n * 2**-52 (measured at n = 2..24 after 120 to 5000 layers),
    so epsilon/2 must exceed max_layers * n * 2**-52."""
    if not 0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    if max_layers < 1:
        raise DomainError(f"need max_layers >= 1, got {max_layers}")
    check_propagation(n, max_layers)
    resolution = max_layers * n * 2.0**-52
    if not epsilon / 2 > resolution:
        raise DomainError(f"epsilon {epsilon} is below the propagator's resolution at n = {n}"
                          f": epsilon/2 must exceed max_layers * n * 2**-52 = {resolution:.3g}")


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
