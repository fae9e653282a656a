"""Exact second-moment propagation for brick-layer circuits.

After a block of a brick layer, the t = 2 twirl leaves the averaged two-copy
operator E[rho (x) rho] of the block's two qubits in the span of its group's
three Brauer diagrams Id, Swap and Pairing (``brauer.enumerate_diagrams(2)``
order, with the block's form: symplectic for the SP(2) block on qubit 1,
orthogonal elsewhere). The block's form is a product over its two qubits,
Omega(4) = iY (x) I = Omega(2) (x) I(2) and I(4) = I(2) (x) I(2), so each
diagram is a product of one-qubit factors on the two copies of each qubit,
and each factor is the same diagram at d = 2: with the block's form on the
first qubit and the orthogonal one on the second (``block_alphabet``).

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

spans every factor: id = I, swap = (I + S)/2, pair.sp = (S - I)/2 and
pair.o = (I + B)/2, exactly. These one-qubit operators, the pre-circuit
factor raw and the measurement functional meas = sum_b |bb><bb| are the
rows of one read-only table, built with their integer overlaps at its
first use (``_tables``), so the module keeps no state and importing it runs
no numpy (``qubit_operator`` reads the table). Every number the engine uses
comes from one rule, products over qubits of those overlaps
(``_product``): the Weingarten formula twirls products of one-qubit
operators in ``block_transfer``, which gives the W tables onto the block's
diagrams, exact rationals rounded once, and onto label pairs the
label-basis transfer (``derive_transfer``); and the collision probability
z = sum_x E[p(x)^2] contracts the tensor against meas on every qubit. A run
derives one brick layer's block steps once per distinct set of input axes,
at most twice: for the first layer and for the steady one, and a block step
the two share once.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from functools import cache

from . import kernels
from .errors import DomainError, check_bytes, np
from .pauli import dense_1q
from .sampler import BLOCK_GROUPS, brick_layer, z_haar


# every one-qubit operator the engine names, on the two copies of a qubit: the
# labels (rows 0..2, which ``block_transfer`` relies on), the pre-circuit factor,
# the factors of the t = 2 diagrams (``brauer.enumerate_diagrams(2)`` order) as
# exact label combinations, each the d = 2 diagram with the form its name gives,
# and the measurement functional sum_b |bb><bb|
_NAMES = ("I", "S", "B", "raw", "id", "swap", "pair.sp", "pair.o", "meas")
_INDEX = {a: i for i, a in enumerate(_NAMES)}

# per block group, the labels that span its factors on its first and second qubit
LABEL_ALPHABETS = {"sp2": (("I", "S"), ("I", "S", "B")),
                   "o4": (("I", "S", "B"), ("I", "S", "B"))}
ALPHA_RAW = ("raw",)


@cache
def _tables() -> tuple:
    """(ops, overlaps, adjugates), built at the first use: the read-only stack
    of the ``_NAMES`` operators; their Hilbert-Schmidt overlaps <x, y> =
    Tr[x^T y], integers because their entries are (against meas,
    <00|op|00> + <11|op|11>); and per block group (adj(G), det(G)) of the
    integer Gram matrix G of its diagrams."""
    xx, yy, zz = (np.kron(dense_1q(p), dense_1q(p)).real for p in "XYZ")
    i, s, b = np.eye(4), xx + yy + zz, xx - yy + zz
    ops = np.stack([i, s, b, np.diag([1.0, 0.0, 0.0, 0.0]), i, (i + s) / 2,
                    (s - i) / 2, (i + b) / 2, np.diag([1.0, 0.0, 0.0, 1.0])])
    ops.flags.writeable = False
    overlaps = np.einsum("aij,bij->ab", ops, ops).astype(np.int64)
    diagrams = {group: block_alphabet(group) for group in LABEL_ALPHABETS}
    adjugates = {group: _adjugate(_product(d, d, overlaps)) for group, d in diagrams.items()}
    return ops, overlaps, adjugates


def _indices(names) -> list:
    """Places of the named operators in ``_NAMES``; an unknown name is refused."""
    try:
        return [_INDEX[a] for a in names]
    except KeyError as e:
        raise DomainError(f"unknown one-qubit operator {e.args[0]!r}") from None


def qubit_operator(name: str) -> np.ndarray:
    """The read-only 4x4 operator on the two copies of one qubit that
    ``name`` stands for: a label I, S or B, the pre-circuit factor raw, a
    diagram factor id, swap, pair.sp or pair.o, or the measurement
    functional meas."""
    return _tables()[0][_indices([name])[0]]


def _product(rows, cols, table) -> np.ndarray:
    """Entry [r, c] is the product over qubits k of table[rows[r][k],
    cols[c][k]], each row and column a tuple of one-qubit operator names
    (``qubit_operator``), one per qubit. On the overlaps (``_tables``) it is
    the overlap <x, y> of the products x = (x)_k rows[r][k] and
    y = (x)_k cols[c][k], an exact integer."""
    names = [a for e in (*rows, *cols) for a in e]
    idx = np.array(_indices(names)).reshape(len(rows) + len(cols), -1)
    return table[idx[:len(rows), None], idx[len(rows):]].prod(axis=-1)


# ---------------------------------------------------------------------------
# block transfers: the Weingarten formula on one-qubit overlaps

def block_alphabet(group: str) -> tuple:
    """The axis a ``group`` block leaves: its diagrams, each as the pair of
    its factors on the block's two qubits. A group without a second-moment
    table is refused."""
    if group not in LABEL_ALPHABETS:
        raise DomainError(f"no second-moment table for block group {group!r}")
    return (("id", "id"), ("swap", "swap"), ("pair." + BLOCK_GROUPS[group], "pair.o"))


def _adjugate(g: np.ndarray) -> tuple:
    """(adj(g), det(g)) of a symmetric integer 3 x 3 matrix, both integers:
    the rows of adj(g) are cross products of the rows of g."""
    adj = np.cross(g[[1, 2, 0]], g[[2, 0, 1]])
    return adj, g[0] @ adj[0]


def block_transfer(group: str, pairs, out_pairs=None) -> np.ndarray:
    """Row-action matrix of one Haar block: entry [i, o] is the coefficient
    of product ``out_pairs[o]`` in the exact twirl of product ``pairs[i]``,
    each a pair of one-qubit operator names (first qubit, second qubit). The
    outputs default to the block's diagrams (``block_alphabet``), else they
    are label pairs whose span holds the block's factors (``LABEL_ALPHABETS``).

    The diagram coefficients of the twirl of X are H G^-1 (Collins and
    Sniady), H_sigma = <X, D_sigma> and G the diagrams' Gram matrix. For a
    product X = a (x) b and diagrams f1_sigma (x) f2_sigma both are integer:
    H_sigma = <a, f1_sigma><b, f2_sigma> and G_sigma,tau = <f1_sigma, f1_tau>
    <f2_sigma, f2_tau>. So H adj(G) / det(G) is the exact rational, rounded
    once; label outputs expand each factor over the labels I, S, B by their
    integer Gram matrix L and are rounded once too. Each call derives its
    table afresh from the overlap constants; a run calls it once per distinct
    block step (``_layer_steps``).
    """
    diagrams = block_alphabet(group)
    out_pairs = diagrams if out_pairs is None else tuple(out_pairs)
    _, overlaps, adjugates = _tables()
    adj, det = adjugates[group]
    num = _product(tuple(pairs), diagrams, overlaps) @ adj
    if out_pairs != diagrams:
        # row f of ``expand`` is det(L) times the label coefficients <f, l> adj(L) / det(L)
        labels = (("I",), ("S",), ("B",))
        adj_l, det_l = _adjugate(_product(labels, labels, overlaps))
        expand = overlaps[:, :3] @ adj_l
        num, det = num @ _product(diagrams, out_pairs, expand), det * det_l**2
    return num / det


class TransferMatrix:
    """Row-action matrix of one block on fully labeled inputs.

    ``basis_order`` lists the label pairs indexing both rows (inputs) and
    columns (outputs): lexicographic with I < S < B, first factor the
    lower-numbered qubit, e.g. II, IS, IB, SI, SS, SB for sp2.
    """

    def __init__(self, entries: np.ndarray, basis_order: tuple):
        self.entries, self.basis_order = entries, basis_order


def derive_transfer(kind: str) -> TransferMatrix:
    if kind not in LABEL_ALPHABETS:
        raise DomainError(f"no label transfer for block group {kind!r}")
    pairs = tuple(itertools.product(*LABEL_ALPHABETS[kind]))
    return TransferMatrix(block_transfer(kind, pairs, pairs), tuple(a + b for a, b in pairs))


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
    if alpha_b is None:
        w = block_transfer(group, [(e[0], e[1]) for e in alpha_a])
        return np.ascontiguousarray(w.T), (block_alphabet(group),)
    na, nb = len(alpha_a), len(alpha_b)
    w = block_transfer(group, [(ea[-1], eb[0]) for ea in alpha_a for eb in alpha_b])
    keep_a, keep_b = len(alpha_a[0]) == 2, len(alpha_b[0]) == 2
    m = np.zeros((na if keep_a else 1, w.shape[1], nb if keep_b else 1, na, nb))
    a, b = np.divmod(np.arange(na * nb), nb)  # the input index (a, b) of each row of w
    m[a if keep_a else 0, :, b if keep_b else 0, a, b] = w
    outs = (((tuple((e[0],) for e in alpha_a),) if keep_a else ())
            + (block_alphabet(group),)
            + ((tuple((e[1],) for e in alpha_b),) if keep_b else ()))
    return m.reshape(-1, na * nb), outs


# ---------------------------------------------------------------------------
# the diagram-basis tensor and its propagation

class LabelVector:
    """Coefficients of E[rho (x) rho] over products of per-axis operators.

    The state is the axes and the coefficients; the qubit count ``n`` is
    derived from the axes. ``alphabets[k]`` lists the index values of axis
    k; each is a tuple of one-qubit operator names (``qubit_operator``), one
    per qubit the axis covers, and the axes cover qubits 1..n in order.
    Coefficients are stored flat, axis 0 outermost. A block axis covers two
    qubits and is indexed by the block's diagrams (``block_alphabet``); a
    one-qubit axis holds a diagram factor or, before any block has touched
    the qubit, (("raw",),).
    """

    def __init__(self, alphabets: tuple, coeffs: np.ndarray):
        self.alphabets = alphabets
        self.coeffs = np.ascontiguousarray(coeffs, dtype=float)
        dims = self.dims()
        if self.coeffs.shape != (math.prod(dims),):
            raise DomainError(
                f"coefficient length {self.coeffs.shape} != prod{dims}"
            )

    @property
    def n(self) -> int:
        return sum(len(a[0]) for a in self.alphabets)

    def dims(self) -> tuple:
        return tuple(len(a) for a in self.alphabets)


def _check_layers(layers: int) -> None:
    if not 0 <= layers <= sys.maxsize:
        raise DomainError(f"layer count {layers} outside 0..{sys.maxsize} (sys.maxsize)")


def check_propagation(n: int, layers: int = 0) -> None:
    """Checks of ``propagate`` and the z contractions after it: n >= 2, layers
    within what ``itertools.islice`` takes, and per coefficient of the largest
    tensor, 3^(floor(n/2) + 1), three float64 arrays (24 B): the vector a layer
    starts from, which its caller holds, and the input and output of one block
    step. The z contraction's partial sums are smaller."""
    _check_layers(layers)
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    check_bytes(f"second-moment propagation at n = {n}", 24, 3, n // 2 + 1)


def initial_label_vector(n: int) -> LabelVector:
    """The pre-circuit two-copy state |0><0|^(x)2n: every qubit raw, z = 1."""
    check_propagation(n)
    return LabelVector(((ALPHA_RAW,),) * n, np.ones(1))


def _half_layers(n: int) -> list:
    """The halves of ``sampler.brick_layer(n)`` that hold a gate, each in the
    order its chain of block steps walks it: from an end whose qubit the half
    touches, so that no step holds more axes than the half's output. A block
    that passes an edge qubit through adds an axis, and one that meets a
    one-qubit axis at the far end removes one.
    """
    return [h[::-1] if h[0][0][0] != 1 and h[-1][0][1] == n else h for h in brick_layer(n) if h]


def _layer_steps(n: int, alphabets: tuple, blocks: dict) -> tuple:
    """(steps, output axes) of one brick layer on a tensor with axes
    ``alphabets``: each step is a block's (matrix, left, din, right), the
    arguments of a ``kernels.transfer_apply`` call that leaves the axes
    around the block's input axes in place. ``blocks`` holds the run's
    ``block_step`` results by their arguments, so each is derived once."""
    alphabets, steps = list(alphabets), []
    for half in _half_layers(n):
        for (q, r), group in half:
            starts = list(itertools.accumulate((len(a[0]) for a in alphabets), initial=1))
            i = bisect.bisect_right(starts, q) - 1  # the axis holding qubit q
            width = 1 if starts[i + 1] > r else 2  # axes the block reads, up to qubit r
            key = (group, alphabets[i], None if width == 1 else alphabets[i + 1])
            if key not in blocks:
                blocks[key] = block_step(*key)
            matrix, outs = blocks[key]
            dims = [len(a) for a in alphabets]
            steps.append((matrix, math.prod(dims[:i]), math.prod(dims[i:i + width]),
                          math.prod(dims[i + width:])))
            alphabets[i:i + width] = outs
    return steps, tuple(alphabets)


def _layers(v: LabelVector):
    """Yield ``v`` after each further brick layer, without end. A layer's
    steps are derived once per distinct set of input axes, held by this run
    alone: the first layer's and, from the second layer on, the steady
    one's; a block step the two share is derived once. Between block steps
    only the step's input and output are held, besides what the caller
    holds."""
    plans, blocks = {}, {}
    alphabets, coeffs = v.alphabets, v.coeffs
    while True:
        if alphabets not in plans:
            plans[alphabets] = _layer_steps(v.n, alphabets, blocks)
        steps, alphabets = plans[alphabets]
        for step in steps:
            coeffs = kernels.transfer_apply(coeffs, *step)
        yield LabelVector(alphabets, coeffs)


def propagate(v: LabelVector, layers: int) -> LabelVector:
    """Apply ``layers`` full brick layers (``sampler.brick_layer``)."""
    check_propagation(v.n, layers)
    for v in itertools.islice(_layers(v), layers):
        pass
    return v


@cache
def _z_weights(alpha: tuple) -> np.ndarray:
    """Read-only weights of an axis with alphabet ``alpha`` in z: entry i is
    the overlap of product ``alpha[i]`` with meas on the axis's qubits."""
    weights = _product(alpha, [("meas",) * len(alpha[0])], _tables()[1])[:, 0].astype(float)
    weights.flags.writeable = False
    return weights


def collision_probability(v: LabelVector) -> float:
    """z = sum_x E[p(x)^2]: contract against meas on every qubit, the trailing
    axis of the contiguous tensor first. Each index of an axis weighs the
    overlap of its product with meas on the axis's qubits; the weights are
    derived once per distinct alphabet in a process (``_z_weights``)."""
    t = v.coeffs
    for alpha in reversed(v.alphabets):
        t = t.reshape(-1, len(alpha)) @ _z_weights(alpha)
    return float(t[0])


def _z_trace(n: int):
    """z after 0, 1, 2, ... brick layers from the initial state, without end."""
    v = initial_label_vector(n)
    return map(collision_probability, itertools.chain([v], _layers(v)))


def collision_trace(n: int, layers: int) -> list:
    """[z(0 layers), z(1), ..., z(layers)]."""
    check_propagation(n, layers)
    return list(itertools.islice(_z_trace(n), layers + 1))


class DepthResult:
    """``depth_to_anticoncentrate``'s layer count n_L* (None if unreached)
    and its z trace."""

    def __init__(self, n: int, n_l_star: int | None, z_trace: tuple):
        self.n, self.n_l_star, self.z_trace = n, n_l_star, z_trace


def check_depth(n: int, epsilon: float, max_layers: int) -> None:
    """Checks of ``depth_to_anticoncentrate``, whose target is about
    |z/z_haar - 1| < epsilon/2: epsilon/2 must exceed max_layers * n * 2**-52.
    The bound is conservative, kept until the resolution is measured anew:
    with exact W tables |z/z_haar - 1| stays within 6e-15 at n = 2..24 after
    150 to 3000 layers, with no drift linear in the layer count."""
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
    """Smallest layer count, 0 included, with |z_haar - z| < epsilon/d; None
    if unreached within max_layers. z_trace runs from depth 0 to that count."""
    check_depth(n, epsilon, max_layers)
    target = epsilon / 2**n
    zh = z_haar(n)
    trace = []
    for layer, z in enumerate(itertools.islice(_z_trace(n), max_layers + 1)):
        trace.append(z)
        if abs(zh - z) < target:
            return DepthResult(n, layer, tuple(trace))
    return DepthResult(n, None, tuple(trace))


class LogFit:
    """Least-squares fit depth = a*log(n) + b over an n sweep."""

    def __init__(self, a: float, b: float, r_squared: float):
        self.a, self.b, self.r_squared = a, b, r_squared


def fit_log_depth(ns, depths) -> LogFit:
    """The least-squares line in closed form over x = log(n): with centred
    xc and yc, a = (xc.yc)/(xc.xc), b = mean(y) - a*mean(x) and R^2 = 1 -
    |yc - a*xc|^2/(yc.yc). No LAPACK routine runs, so a depth sweep never
    loads one."""
    if len(set(ns)) < 2:
        raise DomainError("need at least two distinct n to fit")
    x = np.log(np.asarray(ns, dtype=float))
    y = np.asarray(depths, dtype=float)
    xc, yc = x - x.mean(), y - y.mean()
    a = float(np.dot(xc, yc)) / float(np.dot(xc, xc))
    ss_tot = float(np.dot(yc, yc))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum((yc - a * xc) ** 2)) / ss_tot
    return LogFit(a, float(y.mean() - a * x.mean()), r2)


# ---------------------------------------------------------------------------
# dense oracles (test surface; exponential in n). They import ``brauer`` and
# ``circuit`` in their bodies, so the propagator runs without either module.

def dense_second_moment(n: int, layers: int) -> np.ndarray:
    """E[rho (x) rho] after the given layer count, built by composing exact
    per-block twirl superoperators on the full 4^n-dimensional space: each
    acts as an 8-leg ``kernels.apply_gate`` on the operator's 4n bits."""
    from . import brauer

    _check_layers(layers)
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    # per entry: two float64 copies of the operator (m and the copy the gate
    # step moves) and 8 B, which bound the 256 x 256 block superoperators from n = 5
    check_bytes(f"the dense second moment at n = {n}", 24, 16, n)
    dim = 4**n
    m = np.zeros((dim, dim))
    m[0, 0] = 1.0
    layer = [gate for half in brick_layer(n) for gate in half]
    supers = {group: brauer.twirl_superoperator(2, 4, BLOCK_GROUPS[group])
              for _, group in layer}
    # the 4n bits, most significant first: rows (copy 1 qubits 1..n, copy 2
    # qubits 1..n), then columns likewise: qubit q of part k is bit (4 - k) n - q
    for _ in range(layers):
        for qubits, group in layer:
            legs = [(4 - k) * n - q for k in range(4) for q in qubits]
            kernels.apply_gate(m.reshape(-1), supers[group], legs)
    return m


def dense_collision(m: np.ndarray, n: int) -> float:
    """z from a dense two-copy operator: sum_x <xx|M|xx>."""
    d = 2**n
    idx = np.arange(d) * d + np.arange(d)
    return float(np.real(m[idx, idx].sum()))


def monte_carlo_collision(n: int, layers: int, n_samples: int, rng: np.random.Generator):
    """Sampled z over brick-layer circuits; returns (mean, standard error)."""
    from . import circuit

    if n_samples < 2:
        raise DomainError(f"the standard error needs at least 2 samples, got {n_samples}")
    psi0 = circuit.initial_state(n)
    vals = np.empty(n_samples)
    for k in range(n_samples):
        circ = circuit.build_bricklayer(n, layers, rng)
        amp = circuit.apply(circ, psi0)
        p = np.abs(amp) ** 2
        vals[k] = float(np.sum(p * p))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))
