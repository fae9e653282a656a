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

Gram entries are computed combinatorially: overlaying two diagrams yields
disjoint cycles; a cycle traversing m form-edges, s of them against their
orientation, contributes 0 if m is odd (trace of an odd omega power), else
(-1)^s (-1)^(m/2) d for the symplectic form and always d for the orthogonal
one. Diagonals are d^t for every diagram.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CapacityError, DomainError, check_bytes
from .sampler import as_generator, omega, sample_orthogonal, sample_sp

MAX_T = 5
DENSE_DIM_LIMIT = 4096

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

    def is_permutation(self) -> bool:
        return all(a <= self.t < b for a, b in self.pairing)

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


def diagram_from_string(text: str) -> BrauerDiagram:
    """Parse the canonical "(1,3)(2,4)" form."""
    body = text.replace(" ", "")
    if not (body.startswith("(") and body.endswith(")")):
        raise DomainError(f"bad diagram string {text!r}")
    pairs = []
    for chunk in body[1:-1].split(")("):
        left, _, right = chunk.partition(",")
        if not (left.isdigit() and right.isdigit()):
            raise DomainError(f"bad diagram string {text!r}")
        pairs.append((int(left), int(right)))
    return BrauerDiagram.from_pairs(len(pairs), pairs)


def _all_pairings(items):
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for tail in _all_pairings(rest):
            yield [(first, items[i])] + tail


def double_factorial(k: int) -> int:
    return reduce(int.__mul__, range(k, 0, -2), 1)


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


@dataclass(frozen=True)
class BrauerAlgebraElement:
    """Sum of delta^k * diagram terms; ``terms`` maps diagram -> loop count k."""

    t: int
    terms: tuple
    delta: float

    def single(self):
        ((diagram, k),) = self.terms
        return diagram, k

    def scalar_factor(self) -> float:
        _, k = self.single()
        return float(self.delta) ** k


def compose(a: BrauerDiagram, b: BrauerDiagram, delta: float) -> BrauerAlgebraElement:
    """Diagram product matching operator order: glue a's bra column onto
    b's ket column, so for permutations represent(compose(a, b).single()[0])
    equals represent(a) @ represent(b).

    Strands surviving the gluing form the product diagram on b's bra and
    a's ket columns; each closed loop confined to the glued middle column
    contributes one factor of delta.
    """
    if a.t != b.t:
        raise DomainError(f"order mismatch: {a.t} vs {b.t}")
    t = a.t
    # node ids: 0..t-1 result bra (b's bra), t..2t-1 glued middle (a's bra
    # identified with b's ket), 2t..3t-1 result ket (a's ket)
    edges: dict[int, list[int]] = {i: [] for i in range(3 * t)}

    def connect(u: int, v: int) -> None:
        edges[u].append(v)
        edges[v].append(u)

    for u, v in b.pairing:
        connect(u - 1, v - 1)
    for u, v in a.pairing:
        connect(u - 1 + t, v - 1 + t)

    def is_endpoint(node: int) -> bool:
        return node < t or node >= 2 * t

    def as_item(node: int) -> int:
        return node + 1 if node < t else node - t + 1

    visited = [False] * (3 * t)
    pairs = []
    loops = 0
    for start in range(3 * t):
        if visited[start] or not is_endpoint(start):
            continue
        visited[start] = True
        prev, cur = start, edges[start][0]
        while not is_endpoint(cur):
            visited[cur] = True
            step = edges[cur]
            prev, cur = cur, step[0] if step[0] != prev else step[1]
        visited[cur] = True
        pairs.append((as_item(start), as_item(cur)))
    for start in range(t, 2 * t):
        if visited[start]:
            continue
        visited[start] = True
        prev, cur = start, edges[start][0]
        while cur != start:
            visited[cur] = True
            step = edges[cur]
            prev, cur = cur, step[0] if step[0] != prev else step[1]
        loops += 1
    result = BrauerDiagram.from_pairs(t, pairs)
    return BrauerAlgebraElement(t, ((result, loops),), delta)


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
    permutation operators.
    """
    t = sigma.t
    dim = d**t
    if dim > DENSE_DIM_LIMIT:
        raise CapacityError(f"dense diagram dim {dim} exceeds limit {DENSE_DIM_LIMIT}")
    metric = _form_matrix(form, d)
    eye = np.eye(d)
    subs = []
    factors = []
    for a, b in sigma.pairing:
        if a <= t < b:
            factors.append(eye)
            subs.append(_LETTERS[a - 1] + _LETTERS[b - 1])
        elif b <= t:
            factors.append(metric)
            subs.append(_LETTERS[a - 1] + _LETTERS[b - 1])
        else:
            factors.append(metric)
            subs.append(_LETTERS[b - 1] + _LETTERS[a - 1])
    out = "".join(_LETTERS[t + k] for k in range(t)) + "".join(
        _LETTERS[k] for k in range(t)
    )
    arr = np.einsum(",".join(subs) + "->" + out, *factors)
    return np.ascontiguousarray(arr.reshape(dim, dim))


def _cycle_edges(mu: BrauerDiagram, nu: BrauerDiagram):
    """Partner-and-kind tables for the overlay graph on items 1..2t.

    kind 0: index contraction (cross pair); kind +1: form edge traversed
    along its orientation when leaving this node; kind -1: against it.
    """
    t = mu.t

    def table(diagram):
        part = {}
        for a, b in diagram.pairing:
            if a <= t < b:
                part[a] = (b, 0)
                part[b] = (a, 0)
            elif b <= t:
                part[a] = (b, 1)
                part[b] = (a, -1)
            else:
                part[a] = (b, -1)
                part[b] = (a, 1)
        return part
    return table(mu), table(nu)


def gram_entry(mu: BrauerDiagram, nu: BrauerDiagram, d: int, form: str = "sp") -> float:
    """Frobenius pairing sum_ij F(mu)_ij F(nu)_ij without dense matrices."""
    t = mu.t
    mu_part, nu_part = _cycle_edges(mu, nu)
    seen = [False] * (2 * t + 1)
    value = 1.0
    for start in range(1, 2 * t + 1):
        if seen[start]:
            continue
        node = start
        use_mu = True
        form_edges = 0
        against = 0
        while True:
            seen[node] = True
            partner, kind = (mu_part if use_mu else nu_part)[node]
            if kind != 0:
                form_edges += 1
                if kind < 0:
                    against += 1
            node = partner
            use_mu = not use_mu
            if node == start and use_mu:
                break
        if form == "sp":
            if form_edges % 2:
                return 0.0
            sign = -1.0 if (against + form_edges // 2) % 2 else 1.0
            value *= sign * d
        else:
            value *= d
    return value


@dataclass
class GramMatrix:
    """Gram matrix of diagram representatives plus its (pseudo)inverse."""

    t: int
    d: int
    form: str
    diagrams: tuple
    entries: np.ndarray
    pseudo: bool
    _inverse: np.ndarray | None = None

    @property
    def delta(self) -> float:
        return -float(self.d) if self.form == "sp" else float(self.d)

    def inverse(self) -> np.ndarray:
        """Inverse when regular, pseudo-inverse when d <= 2t - 2 makes the Gram
        matrix singular: eigenvalues below 1e-12 of the largest are dropped."""
        if self._inverse is None:
            if self.pseudo:
                vals, vecs = np.linalg.eigh(self.entries)
                keep = np.abs(vals) > 1e-12 * np.abs(vals).max()
                inv_vals = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
                self._inverse = (vecs * inv_vals) @ vecs.T
            else:
                self._inverse = np.linalg.inv(self.entries)
        return self._inverse


def check_gram(t: int, d: int, form: str = "sp") -> None:
    """Checks of ``gram``: 1 <= t <= MAX_T, d >= 1, even d for the sp form."""
    _check_order(t)
    if d < 1:
        raise DomainError(f"need d >= 1, got {d}")
    if form == "sp" and d % 2:
        raise DomainError(f"symplectic form needs even d, got {d}")


def gram(t: int, d: int, form: str = "sp") -> GramMatrix:
    check_gram(t, d, form)
    diagrams = tuple(enumerate_diagrams(t))
    k = len(diagrams)
    entries = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            entries[i, j] = entries[j, i] = gram_entry(diagrams[i], diagrams[j], d, form)
    return GramMatrix(t, d, form, diagrams, entries, pseudo=d <= 2 * t - 2)


def weingarten(t: int, d: int, form: str = "sp") -> np.ndarray:
    """Inverse Gram matrix; coefficient c_i = sum_j Wg_ij Tr[F(sigma_j)^T X]."""
    return gram(t, d, form).inverse()


def asymptotic_decomposition(g: GramMatrix) -> tuple[float, np.ndarray]:
    """Split W = d^t (I + B/d) into the leading scalar and the bounded part."""
    lead = float(g.d) ** g.t
    b = g.d * (g.entries / lead - np.eye(len(g.diagrams)))
    return lead, b


_REP_CACHE: dict = {}


def _representations(t: int, d: int, form: str):
    key = (t, d, form)
    if key not in _REP_CACHE:
        g = gram(t, d, form)
        reps = tuple(represent(sig, d, form) for sig in g.diagrams)
        for r in reps:
            r.setflags(write=False)
        _REP_CACHE[key] = (g, reps)
    return _REP_CACHE[key]


@dataclass
class TwirlResult:
    """Projection of an operator onto the diagram span."""

    t: int
    d: int
    group: str
    diagrams: tuple
    coefficients: dict
    residual: float

    def coefficient_vector(self) -> np.ndarray:
        return np.array([self.coefficients[sig] for sig in self.diagrams])


_FORM_BY_GROUP = {"sp": "sp", "o": "o", "so": "o"}


def check_twirl(t: int, d: int, group: str = "sp") -> None:
    """Checks of ``gram``, and of the (2t-1)!! d^t x d^t matrices ``twirl`` keeps."""
    if group not in _FORM_BY_GROUP:
        raise DomainError(f"unknown group {group!r}")
    check_gram(t, d, _FORM_BY_GROUP[group])
    dim = d**t
    if dim > DENSE_DIM_LIMIT:
        raise CapacityError(f"dense diagram dim {dim} exceeds limit {DENSE_DIM_LIMIT}")
    check_bytes(double_factorial(2 * t - 1) * dim * dim * 8, "the diagram table")


def twirl(x: np.ndarray, t: int, d: int, group: str = "sp") -> TwirlResult:
    """Exact t-th moment twirl of x over the Haar measure of the group.

    Returns the coefficients of E[S^(x)t x (S^(x)t)^dag] in the diagram
    basis: c = W^{-1} m with m_i = Tr[F(sigma_i)^T x] (matrices are real, so
    the transpose implements the Frobenius pairing used for the Gram matrix).
    """
    check_twirl(t, d, group)
    form = _FORM_BY_GROUP[group]
    dim = d**t
    if x.shape != (dim, dim):
        raise DomainError(f"operator shape {x.shape} != {(dim, dim)}")
    g, reps = _representations(t, d, form)
    m = np.array([np.sum(rep * x) for rep in reps])
    coeff = g.inverse() @ m
    recon = sum(c * rep for c, rep in zip(coeff, reps))
    # distance from x to its projection; zero iff x already lies in the span
    residual = float(np.linalg.norm(x - recon))
    coefficients = {sig: complex(c) for sig, c in zip(g.diagrams, coeff)}
    return TwirlResult(t, d, group, g.diagrams, coefficients, residual)


def twirl_matrix(result: TwirlResult) -> np.ndarray:
    """Dense matrix sum_i c_i F(sigma_i) of a twirl result."""
    _, reps = _representations(result.t, result.d, _FORM_BY_GROUP[result.group])
    vec = result.coefficient_vector()
    return sum(c * rep for c, rep in zip(vec, reps))


def monte_carlo_twirl(
    x: np.ndarray, t: int, d: int, group: str, n_samples: int, rng
) -> np.ndarray:
    """Empirical mean of S^(x)t x (S^(x)t)^dag over Haar samples."""
    gen = as_generator(rng)
    if group == "sp":
        draw = lambda: sample_sp(d, gen)
    elif group in ("o", "so"):
        draw = lambda: sample_orthogonal(d, gen, special=group == "so")
    else:
        raise DomainError(f"unknown group {group!r}")
    acc = np.zeros((d**t, d**t), dtype=complex)
    for _ in range(n_samples):
        s = draw()
        big = s
        for _ in range(t - 1):
            big = np.kron(big, s)
        acc += big @ x @ big.conj().T
    return acc / n_samples
