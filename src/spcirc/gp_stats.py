"""Statistics of deep random symplectic circuits.

For Haar-symplectic S and a Hermitian Pauli observable O with iO in
sp(d/2), the quantities C(rho_j) = Tr[S rho_j S^dag O] over a state family
behave, at large d, like a centered Gaussian process. The covariance is
controlled by the algebra overlap

    Tr_g[rho rho'] = (1/d) sum_{P in sp basis} Tr[P rho] Tr[P rho'],

computable for pure states in O(d) via the identity
2 Tr_g[rho rho'] = Tr[rho rho'] + Tr[Omega rho Omega rho'^T], whose twisted
term equals -|psi^T Omega phi|^2.

The exact finite-d covariance is 2 Tr_g/(d + 1); the large-d theory
references are Tr[rho rho']/d (overlapping states with small twisted
overlap), 2 Tr_g/d (general), and the diagonal form (vanishing cross
overlaps). The runner picks the reference whose preconditions hold at
threshold 1/(log2 d)^2 and always reports the exact formula alongside.

Error bars everywhere come from batching (20 batches by default), not from
Gaussianity assumptions: the Gaussianity itself is under test.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .circuit import pauli_apply
from .errors import CapacityError, DomainError
from .pauli import PauliString, enumerate_sp_basis, in_sp_algebra, omega_dense
from .sampler import RngStream, sample_sp

SAMPLING_LIMIT = 12
PROJECTION_LIMIT = 8
DEFAULT_BATCHES = 20


# ---------------------------------------------------------------------------
# states

@dataclass
class StateSpec:
    """A state in the experiment family.

    kind is one of "computational_basis", "superposition_pair", "dense";
    pure states carry a statevector (fast O(d) overlap routes), mixed ones
    only a density matrix.
    """

    n: int
    kind: str
    pure: bool
    statevector: np.ndarray | None = None
    density: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        d = 2**self.n
        if self.statevector is not None:
            self.statevector = np.ascontiguousarray(self.statevector, dtype=complex)
            if self.statevector.shape != (d,):
                raise DomainError(f"statevector shape {self.statevector.shape}")
            if abs(np.linalg.norm(self.statevector) - 1.0) > 1e-10:
                raise DomainError("statevector is not normalized")
        if self.density is not None:
            rho = np.asarray(self.density, dtype=complex)
            if rho.shape != (d, d):
                raise DomainError(f"density shape {rho.shape}")
            if abs(np.trace(rho) - 1.0) > 1e-10:
                raise DomainError("density trace != 1")
            if np.abs(rho - rho.conj().T).max() > 1e-10:
                raise DomainError("density is not Hermitian")
            if np.linalg.eigvalsh(rho).min() < -1e-10:
                raise DomainError("density is not positive semidefinite")
            self.density = rho
        if self.statevector is None and self.density is None:
            raise DomainError("state needs a statevector or a density matrix")

    @classmethod
    def computational_basis(cls, n: int, x: int = 0) -> "StateSpec":
        if not 0 <= x < 2**n:
            raise DomainError(f"basis index {x} out of range")
        v = np.zeros(2**n, dtype=complex)
        v[x] = 1.0
        return cls(n, "computational_basis", True, statevector=v, label=f"basis[{x}]")

    @classmethod
    def superposition_pair(cls, n: int, flip_qubit: int = 2) -> "StateSpec":
        """(|0...0> + |0...010...0>)/sqrt(2), the 1 on ``flip_qubit``."""
        if not 1 <= flip_qubit <= n:
            raise DomainError(f"flip qubit {flip_qubit} out of range")
        v = np.zeros(2**n, dtype=complex)
        v[0] = v[1 << (n - flip_qubit)] = 1.0 / math.sqrt(2.0)
        return cls(
            n, "superposition_pair", True, statevector=v,
            label=f"pair[q{flip_qubit}]",
        )

    @classmethod
    def from_statevector(cls, n: int, vec, label: str = "pure") -> "StateSpec":
        return cls(n, "dense", True, statevector=np.asarray(vec, dtype=complex),
                   label=label)

    @classmethod
    def from_density(cls, n: int, rho, label: str = "mixed") -> "StateSpec":
        rho = np.asarray(rho, dtype=complex)
        purity = float(np.real(np.trace(rho @ rho)))
        return cls(n, "dense", purity > 1.0 - 1e-10, density=rho, label=label)

    def density_matrix(self) -> np.ndarray:
        if self.density is not None:
            return self.density
        return np.outer(self.statevector, self.statevector.conj())

    def spectral_pairs(self):
        """(weight, vector) pairs for Tr[S rho S^dag O] evaluation."""
        if self.statevector is not None:
            return [(1.0, self.statevector)]
        vals, vecs = np.linalg.eigh(self.density)
        return [(float(w), np.ascontiguousarray(vecs[:, k]))
                for k, w in enumerate(vals) if w > 1e-12]


def _omega_pauli(n: int) -> PauliString:
    # i*Y on qubit 1 (mask bit 0): the dense symplectic form
    return PauliString(n, 1, 1, 1)


# ---------------------------------------------------------------------------
# overlaps

def state_overlap(a: StateSpec, b: StateSpec) -> float:
    """Tr[rho_a rho_b]."""
    if a.n != b.n:
        raise DomainError("state size mismatch")
    if a.statevector is not None and b.statevector is not None:
        return float(abs(np.vdot(a.statevector, b.statevector)) ** 2)
    return float(np.real(np.trace(a.density_matrix() @ b.density_matrix())))


def twisted_overlap(a: StateSpec, b: StateSpec) -> float:
    """Tr[Omega rho_a Omega rho_b^T]; for pure states -|psi^T Omega phi|^2."""
    if a.n != b.n:
        raise DomainError("state size mismatch")
    om = _omega_pauli(a.n)
    if a.statevector is not None and b.statevector is not None:
        u = np.dot(a.statevector, pauli_apply(om, b.statevector))
        return -float(abs(u) ** 2)
    w = omega_dense(a.n)
    ra, rb = a.density_matrix(), b.density_matrix()
    return float(np.real(np.trace(w @ ra @ w @ rb.T)))


@dataclass(frozen=True)
class AlgebraOverlap:
    """Tr_g[rho_a rho_b] with the route that produced it."""

    value: float
    method: str


def algebra_overlap_info(
    a: StateSpec, b: StateSpec, method: str = "auto"
) -> AlgebraOverlap:
    if a.n != b.n:
        raise DomainError("state size mismatch")
    if method == "auto":
        method = "identity" if (
            a.statevector is not None and b.statevector is not None
        ) else "pauli"
    if method == "identity":
        if a.statevector is None or b.statevector is None:
            raise DomainError("identity route needs pure states")
        value = 0.5 * (state_overlap(a, b) + twisted_overlap(a, b))
        return AlgebraOverlap(float(value), "identity")
    if method != "pauli":
        raise DomainError(f"unknown overlap method {method!r}")
    if a.n > PROJECTION_LIMIT:
        raise CapacityError(
            f"sp-basis projection capped at n <= {PROJECTION_LIMIT}"
        )
    d = 2**a.n
    total = 0.0
    ra = a.density_matrix() if a.statevector is None else None
    rb = b.density_matrix() if b.statevector is None else None
    for p in enumerate_sp_basis(a.n):
        ca = _pauli_coefficient(p, a, ra)
        cb = ca if b is a else _pauli_coefficient(p, b, rb)
        total += ca * cb
    return AlgebraOverlap(total / d, "pauli")


def _pauli_coefficient(p: PauliString, s: StateSpec, rho) -> float:
    if s.statevector is not None:
        return float(
            np.real(np.vdot(s.statevector, pauli_apply(p, s.statevector)))
        )
    d = 2**p.n
    xd, zd = p.dense_masks()
    base = 1j ** ((p.phase_exp + p.y_count) % 4)
    r = np.arange(d)
    signs = 1.0 - 2.0 * (np.bitwise_count(r & zd) & 1)
    # Tr[P rho] = sum_r P[r^x, r] rho[r, r^x]
    return float(np.real(base * np.sum(signs * rho[r, r ^ xd])))


def algebra_overlap(a: StateSpec, b: StateSpec, method: str = "auto") -> float:
    return algebra_overlap_info(a, b, method).value


# ---------------------------------------------------------------------------
# covariance references

def exact_covariance(states) -> np.ndarray:
    """Finite-d covariance 2 Tr_g[rho_j rho_j']/(d + 1)."""
    d = 2 ** states[0].n
    m = len(states)
    out = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            out[i, j] = out[j, i] = 2.0 * algebra_overlap(states[i], states[j]) / (d + 1)
    return out


def _pair_matrices(states):
    m = len(states)
    t = np.empty((m, m))
    w = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            t[i, j] = t[j, i] = state_overlap(states[i], states[j])
            w[i, j] = w[j, i] = twisted_overlap(states[i], states[j])
    return t, w


def select_theorem(states) -> tuple:
    """(name, covariance) of the large-d reference whose preconditions hold
    at threshold 1/(log2 d)^2; falls back to the general 2 Tr_g/d form."""
    d = 2 ** states[0].n
    theta = 1.0 / (math.log2(d) ** 2)
    t, w = _pair_matrices(states)
    gram = 0.5 * (t + w)
    if t.min() >= theta and np.abs(w).max() <= theta:
        return "overlapping-states", t / d
    off = gram - np.diag(np.diag(gram))
    # "vanishing" cross overlaps are exact zeros in the families of interest
    if len(states) > 1 and np.abs(off).max() <= 1e-12:
        return "vanishing-cross-overlaps", np.diag(2.0 * np.diag(gram) / d)
    return "general", 2.0 * gram / d


# ---------------------------------------------------------------------------
# sampling

def _batch_sizes(total: int, batches: int):
    if total < batches:
        raise DomainError(f"need at least {batches} samples, got {total}")
    base, extra = divmod(total, batches)
    return [base + (1 if b < extra else 0) for b in range(batches)]


def _batch_se(values: np.ndarray, batches: int):
    """Standard error of the mean over the last axis, whose samples come in
    the batch order of ``_batch_sizes``, from the spread of batch means."""
    edges = np.cumsum([0] + _batch_sizes(values.shape[-1], batches))
    means = np.stack(
        [values[..., edges[b]: edges[b + 1]].mean(axis=-1) for b in range(batches)]
    )
    return means.std(axis=0, ddof=1) / math.sqrt(batches)


def _run_batches(total, batches, threads, rng_stream, worker):
    """worker(count, generator) -> array; batch b draws from child stream b,
    so results do not depend on the thread schedule."""
    sizes = _batch_sizes(total, batches)

    def run(b):
        return worker(sizes[b], rng_stream.child(b).generator())

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(batches)))
    return [run(b) for b in range(batches)]


def _observable_values(states, observable, count, gen) -> np.ndarray:
    d = 2 ** states[0].n
    pairs = [s.spectral_pairs() for s in states]
    out = np.empty((count, len(states)))
    for k in range(count):
        s = sample_sp(d, gen)
        for j, spec in enumerate(pairs):
            acc = 0.0
            for wgt, vec in spec:
                phi = s @ vec
                acc += wgt * float(np.real(np.vdot(phi, pauli_apply(observable, phi))))
            out[k, j] = acc
    return out


@dataclass
class GPSummary:
    n: int
    sample_count: int
    state_labels: tuple
    observable: str
    mean_vector: np.ndarray
    mean_se: np.ndarray
    covariance: np.ndarray
    covariance_se: np.ndarray
    theory_name: str
    theory_covariance: np.ndarray
    exact_covariance: np.ndarray
    fourth_moment_ratio: np.ndarray
    values: np.ndarray


def run_gp_experiment(
    states,
    observable: PauliString,
    n_samples: int,
    rng,
    batches: int = DEFAULT_BATCHES,
    threads: int = 1,
) -> GPSummary:
    """Sample C(rho_j) = Tr[S rho_j S^dag O] over Haar-symplectic S."""
    states = list(states)
    if not states:
        raise DomainError("need at least one state")
    n = states[0].n
    if any(s.n != n for s in states):
        raise DomainError("states must share n")
    if n > SAMPLING_LIMIT:
        raise CapacityError(f"dense sampling capped at n <= {SAMPLING_LIMIT}")
    if observable.n != n:
        raise DomainError("observable size mismatch")
    if observable.phase_exp % 2:
        raise DomainError("observable must be Hermitian")
    if not in_sp_algebra(observable):
        raise DomainError(
            "observable must lie in i*sp(d/2); the Gaussian-process theorems "
            "do not cover other Paulis"
        )
    stream = rng_stream(rng)
    chunks = _run_batches(
        n_samples, batches, threads, stream,
        lambda count, gen: _observable_values(states, observable, count, gen),
    )
    values = np.concatenate(chunks, axis=0)
    batch_means = np.stack([c.mean(axis=0) for c in chunks])
    batch_covs = np.stack([np.cov(c, rowvar=False).reshape(len(states), len(states))
                           for c in chunks])
    mean = values.mean(axis=0)
    cov = np.cov(values, rowvar=False).reshape(len(states), len(states))
    mean_se = batch_means.std(axis=0, ddof=1) / math.sqrt(batches)
    cov_se = batch_covs.std(axis=0, ddof=1) / math.sqrt(batches)
    centered = values - mean
    m2 = (centered**2).mean(axis=0)
    m4 = (centered**4).mean(axis=0)
    ratio = m4 / (3.0 * m2**2)
    name, theory = select_theorem(states)
    return GPSummary(
        n=n,
        sample_count=n_samples,
        state_labels=tuple(s.label for s in states),
        observable=str(observable),
        mean_vector=mean,
        mean_se=mean_se,
        covariance=cov,
        covariance_se=cov_se,
        theory_name=name,
        theory_covariance=theory,
        exact_covariance=exact_covariance(states),
        fourth_moment_ratio=ratio,
        values=values,
    )


def rng_stream(rng) -> RngStream:
    if isinstance(rng, RngStream):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng))
    raise DomainError(
        "batched experiments need an integer seed or an RngStream (a bare "
        "Generator cannot be split reproducibly)"
    )


def wick_fourth_moments(values: np.ndarray) -> tuple:
    """(empirical E[C_j^2 C_j'^2], Gaussian pairing prediction) matrices."""
    cov = np.cov(values, rowvar=False).reshape(values.shape[1], values.shape[1])
    sq = values**2
    emp = (sq[:, :, None] * sq[:, None, :]).mean(axis=0)
    theory = np.outer(np.diag(cov), np.diag(cov)) + 2.0 * cov**2
    return emp, theory


# ---------------------------------------------------------------------------
# concentration

@dataclass
class TailTable:
    thresholds: np.ndarray
    empirical: np.ndarray
    empirical_se: np.ndarray
    gaussian: np.ndarray
    bound_t2: np.ndarray
    bound_t4: np.ndarray
    sigma_squared: float


def moment_bound(tr_g: float, d: int, c, t: int) -> np.ndarray:
    """Markov bound on Pr(|C| >= c) from the 2k-th moment, k = floor(t/2):
    (2k-1)!! (2 Tr_g/(d c^2))^k."""
    k = t // 2
    if k < 1:
        raise DomainError(f"need t >= 2, got {t}")
    dfac = float(np.prod(np.arange(2 * k - 1, 0, -2))) if k > 1 else 1.0
    c = np.asarray(c, dtype=float)
    return dfac * (2.0 * tr_g / (d * c**2)) ** k


def concentration_tail(
    state: StateSpec,
    observable: PauliString,
    n_samples: int,
    thresholds,
    rng,
    batches: int = DEFAULT_BATCHES,
    threads: int = 1,
) -> TailTable:
    """Empirical Pr(|C| >= c) with the Gaussian erfc reference and the
    t = 2, 4 moment bounds."""
    summary = run_gp_experiment(
        [state], observable, n_samples, rng, batches=batches, threads=threads
    )
    c_vals = np.abs(summary.values[:, 0])
    thresholds = np.asarray(thresholds, dtype=float)
    if (thresholds <= 0).any():
        raise DomainError("thresholds must be positive")
    d = 2**state.n
    tr_g = algebra_overlap(state, state)
    sigma_sq = 2.0 * tr_g / d
    hits = c_vals[None, :] >= thresholds[:, None]
    emp = hits.mean(axis=1)
    emp_se = _batch_se(hits, batches)
    if sigma_sq > 0:
        gauss = erfc(thresholds / math.sqrt(2.0 * sigma_sq))
    else:
        gauss = np.zeros_like(thresholds)
    return TailTable(
        thresholds=thresholds,
        empirical=emp,
        empirical_se=emp_se,
        gaussian=gauss,
        bound_t2=moment_bound(tr_g, d, thresholds, 2),
        bound_t4=moment_bound(tr_g, d, thresholds, 4),
        sigma_squared=sigma_sq,
    )


# ---------------------------------------------------------------------------
# anti-concentration

@dataclass
class AnticoncentrationTable:
    n: int
    x_index: int
    sample_count: int
    alphas: np.ndarray
    empirical: np.ndarray
    empirical_se: np.ndarray
    bound: np.ndarray
    z_estimate: float
    z_se: float
    z_haar: float


def anticoncentration_check(
    n: int,
    n_samples: int,
    alpha_grid,
    rng,
    x_index: int = 0,
    batches: int = DEFAULT_BATCHES,
    threads: int = 1,
) -> AnticoncentrationTable:
    """Pr(p_S(x) >= alpha/d) over Haar-symplectic S against the (1-alpha)^2/2
    floor, plus the collision estimate z = d*mean(p^2) vs 2/(d+1)."""
    if n > SAMPLING_LIMIT:
        raise CapacityError(f"dense sampling capped at n <= {SAMPLING_LIMIT}")
    d = 2**n
    if not 0 <= x_index < d:
        raise DomainError(f"bitstring index {x_index} out of range")
    alphas = np.asarray(alpha_grid, dtype=float)
    if ((alphas < 0) | (alphas > 1)).any():
        raise DomainError("alpha values must lie in [0, 1]")

    def worker(count, gen):
        probs = np.empty(count)
        for k in range(count):
            s = sample_sp(d, gen)
            probs[k] = float(abs(s[x_index, 0]) ** 2)
        return probs

    stream = rng_stream(rng)
    chunks = _run_batches(n_samples, batches, threads, stream, worker)
    probs = np.concatenate(chunks)
    hits = probs[None, :] >= (alphas[:, None] / d)
    emp = hits.mean(axis=1)
    return AnticoncentrationTable(
        n=n,
        x_index=x_index,
        sample_count=n_samples,
        alphas=alphas,
        empirical=emp,
        empirical_se=_batch_se(hits, batches),
        bound=(1.0 - alphas) ** 2 / 2.0,
        z_estimate=d * float((probs**2).mean()),
        # d is a power of two, so scaling before the batch means is exact
        z_se=float(_batch_se(d * probs**2, batches)),
        z_haar=2.0 / (d + 1),
    )
