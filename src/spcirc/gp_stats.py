"""Statistics of deep random symplectic circuits.

For Haar-symplectic S and a Hermitian Pauli observable O with iO in
sp(d/2), the quantities C(rho_j) = Tr[S rho_j S^dag O] over a state family
behave, at large d, like a centered Gaussian process. The covariance is
controlled by the algebra overlap

    Tr_g[rho rho'] = (1/d) sum_{P in sp basis} Tr[P rho] Tr[P rho'].

The identity 2 Tr_g[rho rho'] = Tr[rho rho'] + Tr[Omega rho Omega rho'^T] is
bilinear, so it holds for every state through its spectrum
rho = sum_k w_k |v_k><v_k|: the first term is sum w w' |v^dag v'|^2 and the
twisted one -sum w w' |v^T Omega v'|^2, at O(d r r') for ranks r and r'.

The exact finite-d covariance is 2 Tr_g/(d + 1); the large-d theory
references are Tr[rho rho']/d (overlapping states with small twisted
overlap), 2 Tr_g/d (general), and the diagonal form (vanishing cross
overlaps). The runner picks the reference whose preconditions hold at
threshold 1/(log2 d)^2 and always reports the exact formula alongside.

Error bars everywhere come from batching (20 batches by default), not from
Gaussianity assumptions: the Gaussianity itself is under test.

Sampling reads S only on the span of the states. Once per run, every
spectral vector psi is Gram-Schmidted in pairs under the antiunitary
J psi = Omega conj(psi) into an orthonormal frame
F = [w_1 .. w_k | -J w_1 .. -J w_k], dropping vectors that already lie in the
span; each psi is stored as its coefficients c = F^dag psi. F has
F^T Omega F = Omega_2k, so it extends to a symplectic unitary U with
U e_j = w_j and U e_{d/2+j} = -J w_j. For Haar S, SU is Haar again, and
S psi = (SU) E c with E = [e_0 .. e_{k-1} | e_{d/2} .. e_{d/2+k-1}]: each
draw is the d x 2k matrix Q = (SU) E from ``sample_sp_columns`` and
S psi = Q c, at O(d k^2) cost instead of the O(d^3) of a full Haar matrix.
The anticoncentration check reads S e_0 only (k = 1).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .circuit import pauli_apply
from .errors import CapacityError, DomainError
from .pauli import PauliString, in_sp_algebra
from .sampler import DEFAULT_TOL, RngStream, sample_sp_columns

SAMPLING_LIMIT = 12
DEFAULT_BATCHES = 20


# ---------------------------------------------------------------------------
# states

@dataclass
class StateSpec:
    """A state in the experiment family, held as its spectrum: ``weights``
    (r,) and orthonormal columns ``vectors`` (d x r) with
    rho = vectors diag(weights) vectors^dag.

    Give exactly one of ``statevector`` (one column of weight 1) and
    ``density`` (validated, then diagonalised once; weights at or below
    1e-12 are dropped).
    """

    n: int
    statevector: np.ndarray | None = None
    density: np.ndarray | None = None
    label: str = ""
    weights: np.ndarray = field(init=False, repr=False)
    vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = 2**self.n
        if (self.statevector is None) == (self.density is None):
            raise DomainError("state needs exactly one of a statevector and a density matrix")
        if self.statevector is not None:
            v = np.ascontiguousarray(self.statevector, dtype=complex)
            if v.shape != (d,):
                raise DomainError(f"statevector shape {v.shape}")
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise DomainError("statevector is not normalized")
            self.statevector = v
            self.weights, self.vectors = np.ones(1), v[:, None]
            return
        rho = np.asarray(self.density, dtype=complex)
        if rho.shape != (d, d):
            raise DomainError(f"density shape {rho.shape}")
        if abs(np.trace(rho) - 1.0) > 1e-10:
            raise DomainError("density trace != 1")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise DomainError("density is not Hermitian")
        vals, vecs = np.linalg.eigh(rho)
        if vals.min() < -1e-10:
            raise DomainError("density is not positive semidefinite")
        self.density = rho
        keep = vals > 1e-12
        self.weights, self.vectors = vals[keep], vecs[:, keep]

    @classmethod
    def computational_basis(cls, n: int, x: int = 0) -> "StateSpec":
        _check_basis_index(n, x)
        v = np.zeros(2**n, dtype=complex)
        v[x] = 1.0
        return cls(n, statevector=v, label=f"basis[{x}]")

    @classmethod
    def superposition_pair(cls, n: int, flip_qubit: int = 2) -> "StateSpec":
        """(|0...0> + |0...010...0>)/sqrt(2), the 1 on ``flip_qubit``."""
        if not 1 <= flip_qubit <= n:
            raise DomainError(f"flip qubit {flip_qubit} out of range")
        v = np.zeros(2**n, dtype=complex)
        v[0] = v[1 << (n - flip_qubit)] = 1.0 / math.sqrt(2.0)
        return cls(n, statevector=v, label=f"pair[q{flip_qubit}]")

    @classmethod
    def from_statevector(cls, n: int, vec, label: str = "pure") -> "StateSpec":
        return cls(n, statevector=np.asarray(vec, dtype=complex), label=label)

    @classmethod
    def from_density(cls, n: int, rho, label: str = "mixed") -> "StateSpec":
        return cls(n, density=np.asarray(rho, dtype=complex), label=label)

    def density_matrix(self) -> np.ndarray:
        return (self.vectors * self.weights) @ self.vectors.conj().T


def _omega_apply(v: np.ndarray) -> np.ndarray:
    """Omega v for Omega = [[0, I], [-I, 0]] = iY (x) I^(x)(n-1), along axis 0."""
    m = v.shape[0] // 2
    return np.concatenate([v[m:], -v[:m]])


# ---------------------------------------------------------------------------
# overlaps

def _overlaps(a: StateSpec, b: StateSpec) -> tuple:
    """(Tr[rho_a rho_b], Tr[Omega rho_a Omega rho_b^T]) from the spectra:
    (sum w w' |v^dag v'|^2, -sum w w' |v^T Omega v'|^2)."""
    if a.n != b.n:
        raise DomainError("state size mismatch")
    plain = np.abs(a.vectors.conj().T @ b.vectors) ** 2
    twisted = np.abs(a.vectors.T @ _omega_apply(b.vectors)) ** 2
    return (float(a.weights @ plain @ b.weights),
            -float(a.weights @ twisted @ b.weights))


def state_overlap(a: StateSpec, b: StateSpec) -> float:
    """Tr[rho_a rho_b]."""
    return _overlaps(a, b)[0]


def twisted_overlap(a: StateSpec, b: StateSpec) -> float:
    """Tr[Omega rho_a Omega rho_b^T]; for pure states -|psi^T Omega phi|^2."""
    return _overlaps(a, b)[1]


def algebra_overlap(a: StateSpec, b: StateSpec) -> float:
    """Tr_g[rho_a rho_b] = (Tr[rho_a rho_b] + Tr[Omega rho_a Omega rho_b^T])/2."""
    return 0.5 * sum(_overlaps(a, b))


# ---------------------------------------------------------------------------
# covariance references

def _pair_matrices(states):
    """(Tr[rho_j rho_j'], Tr[Omega rho_j Omega rho_j'^T]) over every pair."""
    m = len(states)
    t = np.empty((m, m))
    w = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            t[i, j], w[i, j] = _overlaps(states[i], states[j])
            t[j, i], w[j, i] = t[i, j], w[i, j]
    return t, w


def exact_covariance(states) -> np.ndarray:
    """Finite-d covariance 2 Tr_g[rho_j rho_j']/(d + 1)."""
    t, w = _pair_matrices(states)
    return (t + w) / (2 ** states[0].n + 1)


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
    base, extra = divmod(total, batches)
    return [base + (1 if b < extra else 0) for b in range(batches)]


def _check_sampling(n: int, n_samples: int, batches: int) -> None:
    if n < 1:
        raise DomainError(f"need at least one qubit, got n = {n}")
    if n > SAMPLING_LIMIT:
        raise CapacityError(f"dense sampling capped at n <= {SAMPLING_LIMIT}")
    if batches < 2:
        raise DomainError(f"batch error bars need at least 2 batches, got {batches}")
    if n_samples < batches:
        raise DomainError(f"need at least {batches} samples, got {n_samples}")


def _check_basis_index(n: int, x_index: int) -> None:
    if not 0 <= x_index < 2**n:
        raise DomainError(f"bitstring index {x_index} out of range")


# One validator per sampled experiment, called by the experiment itself and by
# the CLI dry run, so both reject the same configurations. None of them
# allocates or samples.

def check_gp(n: int, n_samples: int, observable: PauliString,
             batches: int = DEFAULT_BATCHES) -> None:
    """Domain and capacity checks of ``run_gp_experiment``."""
    _check_sampling(n, n_samples, batches)
    # each batch's sample covariance needs one degree of freedom
    if n_samples < 2 * batches:
        raise DomainError(
            f"the batch covariances need at least two draws per batch: "
            f"{n_samples} samples for {batches} batches"
        )
    if observable.n != n:
        raise DomainError("observable size mismatch")
    if observable.phase_exp % 2:
        raise DomainError("observable must be Hermitian")
    if not in_sp_algebra(observable):
        raise DomainError(
            "observable must lie in i*sp(d/2); the Gaussian-process theorems "
            "do not cover other Paulis"
        )


def check_concentration(n: int, n_samples: int, thresholds, observable: PauliString,
                        batches: int = DEFAULT_BATCHES) -> np.ndarray:
    """Checks of ``concentration_tail``; returns the thresholds as an array."""
    thresholds = np.asarray(thresholds, dtype=float)
    if not np.all(thresholds > 0):
        raise DomainError("thresholds must be positive")
    check_gp(n, n_samples, observable, batches)
    return thresholds


def check_anticoncentration(n: int, n_samples: int, alpha_grid, x_index: int,
                            batches: int = DEFAULT_BATCHES) -> np.ndarray:
    """Checks of ``anticoncentration_check``; returns the alphas as an array."""
    _check_sampling(n, n_samples, batches)
    _check_basis_index(n, x_index)
    alphas = np.asarray(alpha_grid, dtype=float)
    if not np.all((alphas >= 0) & (alphas <= 1)):
        raise DomainError("alpha values must lie in [0, 1]")
    return alphas


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


def _quaternionic_conj(v: np.ndarray) -> np.ndarray:
    """J v = Omega conj(v)."""
    return np.conj(_omega_apply(v))


def symplectic_frame(vectors) -> np.ndarray:
    """Orthonormal F = [w_1 .. w_k | -J w_1 .. -J w_k] whose span holds every
    vector and its J-image; a vector whose residual is below ``DEFAULT_TOL``
    times its norm adds nothing. F^T Omega F = Omega_2k, so F = U E for a symplectic
    unitary U and E the columns e_0 .. e_{k-1}, e_{d/2} .. e_{d/2+k-1}."""
    ws = []
    frame = np.empty((vectors[0].shape[0], 0), dtype=complex)
    for v in vectors:
        r = v
        for _ in range(2):  # the second pass removes what rounding left
            r = r - frame @ (frame.conj().T @ r)
        norm = np.linalg.norm(r)
        if norm <= DEFAULT_TOL * np.linalg.norm(v):
            continue
        ws.append(r / norm)
        frame = np.column_stack(ws + [-_quaternionic_conj(w) for w in ws])
    return frame


def _frame_coefficients(states) -> tuple:
    """(k, coefficients): the first k quaternionic columns of a draw carry
    every state, and coefficients[j] lists (weight, F^dag psi) over state j's
    spectrum."""
    frame = symplectic_frame([v for s in states for v in s.vectors.T])
    adjoint = frame.conj().T
    coefficients = [[(w, adjoint @ v) for w, v in zip(s.weights, s.vectors.T)]
                    for s in states]
    return frame.shape[1] // 2, coefficients


def _observable_values(k, coefficients, observable, count, gen) -> np.ndarray:
    """C(rho_j) for ``count`` Haar draws of k quaternionic columns each."""
    d = 2**observable.n
    out = np.empty((count, len(coefficients)))
    for i in range(count):
        q = sample_sp_columns(d, k, gen)
        for j, spec in enumerate(coefficients):
            acc = 0.0
            for wgt, c in spec:
                phi = q @ c
                acc += wgt * float(np.real(np.vdot(phi, pauli_apply(observable, phi))))
            out[i, j] = acc
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
    check_gp(n, n_samples, observable, batches)
    stream = rng_stream(rng)
    k, coefficients = _frame_coefficients(states)
    chunks = _run_batches(
        n_samples, batches, threads, stream,
        lambda count, gen: _observable_values(k, coefficients, observable, count, gen),
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
    thresholds = check_concentration(
        state.n, n_samples, thresholds, observable, batches
    )
    summary = run_gp_experiment(
        [state], observable, n_samples, rng, batches=batches, threads=threads
    )
    c_vals = np.abs(summary.values[:, 0])
    d = 2**state.n
    tr_g = algebra_overlap(state, state)
    sigma_sq = 2.0 * tr_g / d
    hits = c_vals[None, :] >= thresholds[:, None]
    emp = hits.mean(axis=1)
    emp_se = _batch_se(hits, batches)
    if sigma_sq > 0:
        scale = math.sqrt(2.0 * sigma_sq)
        gauss = np.array([math.erfc(c / scale) for c in thresholds])
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
    alphas = check_anticoncentration(n, n_samples, alpha_grid, x_index, batches)
    d = 2**n

    def worker(count, gen):
        probs = np.empty(count)
        for k in range(count):
            # column 0 of the draw is S e_0
            probs[k] = float(abs(sample_sp_columns(d, 1, gen)[x_index, 0]) ** 2)
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
