"""Brauer algebra B_t(delta) and the symplectic/orthogonal Weingarten engine.

A diagram is a perfect pairing of 2t items: items 1..t are the left column
(bra side) top to bottom, items t+1..2t the right column (ket side). The
dense representation on (C^d)^(x)t maps a cross pair (a <= t < b) to the
index contraction delta_{i_a i_b}, a left-column pair (a < b <= t) to the
matrix element M_{i_a i_b} of the invariant form, and a right-column pair
(t < a < b) to M_{i_b i_a} (reversed orientation). The form M is the
antisymmetric omega(d) for the symplectic group (delta = -d) and the
identity for the orthogonal group (delta = +d). With this convention the
three t = 2 diagrams represent to I, SWAP and
Pi_s = d (1 (x) Omega)|Phi+><Phi+|(1 (x) Omega)^T, which satisfies
Tr[Pi_s] = -d and Pi_s^2 = -d Pi_s.

Every diagram computation reads one table, ``BrauerDiagram.links``, and
glued diagrams are traced by one walker, ``_walk``. A strand through m form
edges, s of them left against their orientation, has the matrix
(-1)^s M^m. A closed strand is a loop worth its trace: d for the orthogonal
form, and (-1)^(s + m/2) d for the symplectic one, whose loops have even m.
Gram entries glue two diagrams on all 2t items, so every strand is a loop;
diagonals are d^t for every diagram.
Diagram products glue one diagram's bra column onto the other's ket column,
and are exact for both forms: the open strands give the product diagram and
its sign, the loops powers of delta.

The module keeps no state between calls: ``twirl`` and
``twirl_superoperator`` build the Gram matrix and the dense diagram matrices
they need, and ``twirl`` returns the projected matrix with its coefficients.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import CapacityError, DomainError, check_bytes, np
from .sampler import SAMPLERS, double_factorial, omega

MAX_T = 5

_LETTERS = "abcdefghijklmnopqrst"


@dataclass(frozen=True)
class BrauerDiagram:
    """Canonical pairing of {1..2t}: pairs (a, b) with a < b, sorted by a."""

    t: int
    pairing: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, t: int, pairs) -> "BrauerDiagram":
        norm = tuple(sorted(tuple(sorted(p)) for p in pairs))
        items = sorted(x for p in norm for x in p)
        if items != list(range(1, 2 * t + 1)):
            raise DomainError(f"pairs {pairs} do not partition 1..{2 * t}")
        return cls(t, norm)

    @classmethod
    def from_permutation(cls, perm) -> "BrauerDiagram":
        """Diagram of a permutation given in one-line notation (1-based)."""
        t = len(perm)
        return cls.from_pairs(t, [(a, t + perm[a - 1]) for a in range(1, t + 1)])

    @classmethod
    def identity(cls, t: int) -> "BrauerDiagram":
        return cls.from_permutation(tuple(range(1, t + 1)))

    @cached_property
    def links(self) -> tuple:
        """(partner, kind) per item, index 0 unused. Kind 0 is a cross pair, an
        index delta; kind +1 or -1 is a form edge left along or against its
        orientation (a left-column pair a < b is M[i_a, i_b], a right-column
        pair M[i_b, i_a])."""
        links = [None] * (2 * self.t + 1)
        for a, b in self.pairing:
            kind = 0 if a <= self.t < b else 1 if b <= self.t else -1
            links[a], links[b] = (b, kind), (a, -kind)
        return tuple(links)

    def is_permutation(self) -> bool:
        return not any(kind for _, kind in self.links[1:])

    def one_line(self):
        """One-line notation when the diagram is a permutation, else None."""
        if not self.is_permutation():
            return None
        perm = [0] * self.t
        for a, b in self.pairing:
            perm[a - 1] = b - self.t
        return tuple(perm)

    def mirror(self) -> "BrauerDiagram":
        """Swap the columns (item i <-> t + i); dense adjoint partner."""
        flip = lambda x: x + self.t if x <= self.t else x - self.t
        return BrauerDiagram.from_pairs(
            self.t, [(flip(a), flip(b)) for a, b in self.pairing]
        )

    def __str__(self) -> str:
        return "".join(f"({a},{b})" for a, b in self.pairing)


def _all_pairings(items):
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for tail in _all_pairings(rest):
            yield [(first, items[i])] + tail


def _check_order(t: int) -> None:
    if t < 1:
        raise DomainError(f"need t >= 1, got {t}")
    if t > MAX_T:
        raise CapacityError(f"t = {t} exceeds the diagram cap {MAX_T}")


def enumerate_diagrams(t: int) -> list[BrauerDiagram]:
    """All (2t-1)!! diagrams of order t.

    Permutations come first (identity leading, the rest sorted by one-line
    notation), then the remaining pairings sorted lexicographically, so for
    t = 2 the order is identity, swap, form-contraction.
    """
    _check_order(t)
    diagrams = [
        BrauerDiagram.from_pairs(t, p)
        for p in _all_pairings(list(range(1, 2 * t + 1)))
    ]
    perms = sorted(
        (x for x in diagrams if x.is_permutation()), key=lambda x: x.one_line()
    )
    rest = sorted(
        (x for x in diagrams if not x.is_permutation()), key=lambda x: x.pairing
    )
    return perms + rest


def _walk(tables, glue, side, item, seen):
    """Follow the strand that leaves ``item`` of diagram ``side`` (0 or 1)
    along its pair in ``tables[side]``, a ``BrauerDiagram.links`` table.

    ``glue[side][item]`` is the item of the other diagram that ``item`` is
    glued to, 0 where the strand ends. Every item passed is marked in
    ``seen[side]``. Returns the end item, the form edges m and the edges s
    left against their orientation: the strand's matrix is (-1)^s M^m. A
    loop ends back at its start.
    """
    m = s = 0
    while True:
        seen[side][item] = True
        item, kind = tables[side][item]
        seen[side][item] = True
        if kind:
            m += 1
            s += kind < 0
        nxt = glue[side][item]
        if not nxt:
            return item, m, s
        side, item = 1 - side, nxt
        if seen[side][item]:
            return item, m, s


def compose(a: BrauerDiagram, b: BrauerDiagram, delta: float) -> tuple:
    """Diagram product in operator order as (product, loops, sign): glue a's
    bra column onto b's ket column, so that sign * delta^loops *
    represent(product) equals represent(a) @ represent(b) for both forms.

    Strands that reach the outer columns form the product diagram on b's bra
    and a's ket columns; each loop confined to the glued middle column
    contributes one factor of delta. delta < 0 is the symplectic form
    (delta = -d), whose oriented form edges also give the product a sign,
    e.g. represent(SWAP) @ represent(Pi_s) = -represent(Pi_s); for the
    orthogonal form (delta = d) the sign is 1.
    """
    if a.t != b.t:
        raise DomainError(f"order mismatch: {a.t} vs {b.t}")
    t = a.t
    tables = (a.links, b.links)
    # a's bra item j is glued to b's ket item t + j; the rest are the ends
    glue = ([0] + list(range(t + 1, 2 * t + 1)) + [0] * t,
            [0] * (t + 1) + list(range(1, t + 1)))
    seen = ([False] * (2 * t + 1), [False] * (2 * t + 1))
    strands = []
    ends = [(1, u) for u in range(1, t + 1)] + [(0, u) for u in range(t + 1, 2 * t + 1)]
    for side, start in ends:
        if not seen[side][start]:
            strands.append((start, *_walk(tables, glue, side, start, seen)))
    result = BrauerDiagram.from_pairs(t, [(u, v) for u, v, _, _ in strands])
    flips = loops = 0
    for j in range(1, t + 1):
        if not seen[0][j]:
            _, m, s = _walk(tables, glue, 0, j, seen)
            loops += 1
            flips += s + m // 2 + 1  # worth (-1)^(s + m/2) d = (-1)^(s + m/2 + 1) delta
    for u, _, m, s in strands:
        # the strand is (-1)^s omega^m; the product's pair read from u is
        # omega^m' with m' = |kind|, negated when kind < 0
        kind = result.links[u][1]
        flips += s + (m - abs(kind)) // 2 + (kind < 0)
    return result, loops, -1 if delta < 0 and flips % 2 else 1


def _form_matrix(form: str, d: int) -> np.ndarray:
    if form == "sp":
        return omega(d)
    if form == "o":
        return np.eye(d)
    raise DomainError(f"unknown form {form!r}")


def represent(sigma: BrauerDiagram, d: int, form: str = "sp") -> np.ndarray:
    """Dense matrix of the diagram on (C^d)^(x)t, shape (d^t, d^t).

    Row multi-index runs over the ket items t+1..2t, column over the bra
    items 1..t, so permutation diagrams act as the usual tensor-factor
    permutation operators. It holds the einsum output and its contiguous
    copy (8 B per entry each) and 1 B per entry for the d x d factors."""
    t = sigma.t
    check_bytes(f"a dense diagram at t = {t}", 17, d, 2 * t)
    dim = d**t
    metric = _form_matrix(form, d)
    eye = np.eye(d)
    subs = []
    factors = []
    for a, b in sigma.pairing:
        kind = sigma.links[a][1]
        factors.append(metric if kind else eye)
        subs.append(_LETTERS[a - 1] + _LETTERS[b - 1] if kind >= 0
                    else _LETTERS[b - 1] + _LETTERS[a - 1])
    out = "".join(_LETTERS[t + k] for k in range(t)) + "".join(
        _LETTERS[k] for k in range(t)
    )
    arr = np.einsum(",".join(subs) + "->" + out, *factors)
    return np.ascontiguousarray(arr.reshape(dim, dim))


def gram_entry(mu: BrauerDiagram, nu: BrauerDiagram, d: int, form: str = "sp") -> float:
    """Frobenius pairing sum_ij F(mu)_ij F(nu)_ij without dense matrices: mu
    and nu glued item to item, a product of loop values."""
    t = mu.t
    tables = (mu.links, nu.links)
    same = list(range(2 * t + 1))
    glue, seen = (same, same), ([False] * (2 * t + 1), [False] * (2 * t + 1))
    value = 1.0
    for start in range(1, 2 * t + 1):
        if seen[0][start]:
            continue
        _, m, s = _walk(tables, glue, 0, start, seen)
        # the loop alternates mu's and nu's edges, so it has an even number of
        # edges and of column crossings, and the form edges m are even too
        value *= -d if form == "sp" and (s + m // 2) % 2 else d
    return value


@dataclass(frozen=True)
class GramMatrix:
    """Gram matrix of diagram representatives and its Weingarten matrix, the
    inverse when regular and the pseudo-inverse when singular (``pseudo``:
    d <= 2t - 2 for the symplectic form, d < t for the orthogonal one). Both
    are computed by ``gram``. ``delta`` is the parameter of B_t(delta): -d
    for the symplectic form, d for the orthogonal one."""

    delta: float
    diagrams: tuple
    entries: np.ndarray
    pseudo: bool
    weingarten: np.ndarray


def check_gram(t: int, d: int, form: str = "sp") -> None:
    """Checks of ``gram``: the form "sp" or "o", 1 <= t <= MAX_T, d >= 1,
    even d for the sp form, and the diagonal entries d**t within the float64
    range."""
    if form not in ("sp", "o"):
        raise DomainError(f"unknown form {form!r}; expected 'sp' or 'o'")
    _check_order(t)
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    if form == "sp" and d % 2:
        raise DomainError(f"symplectic form needs even d, got {d}")
    if d**t > sys.float_info.max:  # t <= MAX_T keeps d**t cheap
        raise CapacityError(f"d**{t} exceeds the float64 range of the Gram entries")


def gram(t: int, d: int, form: str = "sp") -> GramMatrix:
    check_gram(t, d, form)
    diagrams = tuple(enumerate_diagrams(t))
    k = len(diagrams)
    entries = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            entries[i, j] = entries[j, i] = gram_entry(diagrams[i], diagrams[j], d, form)
    # the diagram matrices are linearly dependent exactly at these d
    pseudo = d <= 2 * t - 2 if form == "sp" else d < t
    if pseudo:  # drop the eigenvalues below 1e-12 of the largest
        vals, vecs = np.linalg.eigh(entries)
        keep = np.abs(vals) > 1e-12 * np.abs(vals).max()
        inv_vals = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
        weingarten = (vecs * inv_vals) @ vecs.T
    else:
        weingarten = np.linalg.inv(entries)
    return GramMatrix(-float(d) if form == "sp" else float(d), diagrams, entries, pseudo,
                      weingarten)


def _table(t: int, d: int, form: str):
    """The Gram matrix and the (2t-1)!! dense diagram matrices, built for one call."""
    g = gram(t, d, form)
    return g, [represent(sig, d, form) for sig in g.diagrams]


@dataclass
class TwirlResult:
    """Projection of an operator onto the diagram span: the coefficients in
    ``diagrams`` order and the projected matrix sum_i c_i F(sigma_i)."""

    diagrams: tuple
    coefficients: np.ndarray
    matrix: np.ndarray
    residual: float


def check_twirl(t: int, d: int, group: str = "sp") -> None:
    """Checks of ``gram``, and of ``twirl``'s bytes per entry of a d^t x d^t
    matrix: the (2t-1)!! float64 diagram matrices it builds, two complex
    temporaries of the operator's shape and 2 B for the smaller arrays."""
    # SO(d) is left out (check_gram takes only the sp and o forms): for even
    # d <= 2t its invariants include the Levi-Civita tensor, which no Brauer
    # diagram spans, so the O(d) twirl would be wrong.
    check_gram(t, d, group)
    check_bytes("the diagram table", 8 * double_factorial(2 * t - 1) + 34, d, 2 * t)


def check_operator(x, t: int, d: int) -> None:
    """Checks of ``twirl``'s operator: a numeric d^t x d^t array with finite
    entries and d^t max|x_ij| within the float64 range. That product bounds
    the Frobenius norm of x, and the norm bounds every output of the twirl:
    it is an orthogonal projection, so the projected matrix and the
    residual are at most the norm, and coefficient i at most the norm times
    sqrt(Wg_ii), which is at most 1."""
    dim = d**t
    if np.shape(x) != (dim, dim) or np.asarray(x).dtype.kind not in "biufc":
        raise DomainError(f"input must be a numeric array of shape {(dim, dim)}")
    if not np.isfinite(x).all():
        raise DomainError("input has a NaN or infinite entry")
    if dim * float(np.abs(x).max(initial=0)) > sys.float_info.max:
        raise DomainError(f"input entries past float64 max / {dim}: the twirl would overflow")


def twirl(x: np.ndarray, t: int, d: int, group: str = "sp") -> TwirlResult:
    """Exact t-th moment twirl of x over the Haar measure of the group.

    Builds the diagram matrices F(sigma_i) and returns the coefficients of
    E[S^(x)t x (S^(x)t)^dag] in the diagram basis, c = W^{-1} m with
    m_i = Tr[F(sigma_i)^T x] (matrices are real, so the transpose implements
    the Frobenius pairing used for the Gram matrix), and the projection
    sum_i c_i F(sigma_i). The coefficients are real when x is.

    The sums run on x / s, s the power of two with |x / s| < 2, so no
    partial sum overflows. Scaling by a power of two is exact, so the
    outputs are those of the unscaled sums.
    """
    check_twirl(t, d, group)
    check_operator(x, t, d)
    s = math.ldexp(1.0, math.frexp(float(np.abs(x).max(initial=0)))[1] - 1)
    g, reps = _table(t, d, group)
    # diagram entries are 0 or +-1, so only the sum of rep * x could overflow
    m = np.array([np.sum(rep * x / s) for rep in reps])
    coeff = g.weingarten @ m
    matrix = sum(c * rep for c, rep in zip(coeff, reps))
    # distance from x to its projection; zero iff x already lies in the span
    diff = x / s
    diff -= matrix
    residual = s * float(np.linalg.norm(diff))
    matrix *= s
    return TwirlResult(g.diagrams, s * coeff, matrix, residual)


def twirl_superoperator(t: int, d: int, group: str = "sp") -> np.ndarray:
    """d^2t x d^2t real matrix of the exact t-th moment twirl acting on vec(X):
    F Wg F^T, with the diagram matrices as the columns of F.

    Per entry of a diagram matrix it holds the diagram table ``check_twirl``
    counts (8 B per diagram and 34 B), F and F Wg (8 B per diagram each) and
    a row of the output (8 d^2t B)."""
    check_twirl(t, d, group)
    k = double_factorial(2 * t - 1)
    check_bytes(f"the twirl superoperator at t = {t}", 8 * d ** (2 * t) + 24 * k + 34,
                d, 2 * t)
    g, reps = _table(t, d, group)
    f = np.stack([r.ravel() for r in reps], axis=1)
    return f @ g.weingarten @ f.T


def monte_carlo_twirl(
    x: np.ndarray, t: int, d: int, group: str, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Empirical mean of S^(x)t x (S^(x)t)^dag over Haar samples."""
    if group not in SAMPLERS:
        raise DomainError(f"unknown group {group!r}")
    if n_samples < 1:
        raise DomainError(f"the mean needs at least 1 sample, got {n_samples}")
    acc = np.zeros((d**t, d**t), dtype=complex)
    for _ in range(n_samples):
        s = SAMPLERS[group](d, rng)
        big = s
        for _ in range(t - 1):
            big = np.kron(big, s)
        acc += big @ x @ big.conj().T
    return acc / n_samples
