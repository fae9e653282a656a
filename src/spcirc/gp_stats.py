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
Gaussianity assumptions: the Gaussianity itself is under test. The batches
run in order in one thread; batch b draws from child stream b of the seed.

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
The observable enters once per draw, through its 2k x 2k compression
M = Q^dag O Q: every sampled value is C(rho) = sum_w w c^dag M c over the
spectrum, and the Pauli's dense action is built once per run. The
anticoncentration check is the same loop on |0> (k = 1, c = e_0) with
M = Q[x]^dag Q[x], so M[0, 0] = |<x|S|0>|^2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .brauer import double_factorial
from .circuit import check_basis_index
from .errors import DomainError, check_bytes
from .moment import z_haar
from .pauli import PauliString, in_sp_algebra
from .sampler import DEFAULT_TOL, RngStream, sample_sp_columns

DEFAULT_BATCHES = 20


# ---------------------------------------------------------------------------
# states

@dataclass(eq=False)
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
        check_basis_index(n, x)
        v = np.zeros(2**n, dtype=complex)
        v[x] = 1.0
        return cls(n, statevector=v, label=f"basis[{x}]")

    @classmethod
    def superposition_pair(cls, n: int, flip_qubit: int = 2) -> "StateSpec":
        """(|0...0> + |0...010...0>)/sqrt(2), the 1 on ``flip_qubit``."""
        check_flip_qubit(n, flip_qubit)
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
    pairs = np.empty((len(states), len(states), 2))
    for i, j in zip(*np.triu_indices(len(states))):
        pairs[i, j] = pairs[j, i] = _overlaps(states[i], states[j])
    return pairs[..., 0], pairs[..., 1]


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

# Bytes a sampled run holds: per draw and state, the values, a centred copy
# and one power of it (plus 1 B per draw for a hit mask); per batch, the
# reference cycles its generator and its covariance leave until the cyclic
# collector runs (about 110 B); per batch, state pair and threshold (or alpha),
# a batch statistic and two temporaries of its standard error; per amplitude
# and spectral vector, the vector and its share of the frame or of one draw's
# Gaussian, QR and compression temporaries (a frame has at most one
# quaternionic column per vector); and per amplitude once, the Pauli's dense
# action.
SAMPLE_BYTES, CYCLE_BYTES, BATCH_BYTES, VECTOR_BYTES, ACTION_BYTES = 24, 128, 24, 144, 48


def _check_sampling(n: int, n_samples: int, batches: int, vectors: int, states: int = 1,
                    cuts: int = 0, observable: PauliString | None = None) -> None:
    """Domain and byte checks of a sampled run on ``states`` states of ``vectors``
    spectral vectors in all, and of its ``observable`` unless None."""
    if n < 1:
        raise DomainError(f"need at least one qubit, got n = {n}")
    if batches < 2:
        raise DomainError(f"batch error bars need at least 2 batches, got {batches}")
    if n_samples < batches:
        raise DomainError(f"need at least {batches} samples, got {n_samples}")
    held = (n_samples * (SAMPLE_BYTES * states + 1)
            + batches * (CYCLE_BYTES + BATCH_BYTES * (states**2 + cuts)))
    # what does not grow with d is rounded up per amplitude: 2**n is never computed
    check_bytes(f"sampling {states} states at {cuts} thresholds at n = {n}",
                VECTOR_BYTES * vectors + ACTION_BYTES + -(-held >> n), 2, n)
    if observable is None:
        return
    if observable.n != n:
        raise DomainError("observable size mismatch")
    if observable.phase_exp % 2:
        raise DomainError("observable must be Hermitian")
    if not in_sp_algebra(observable):
        raise DomainError("observable must lie in i*sp(d/2); the Gaussian-process "
                          "theorems do not cover other Paulis")


# The two state range checks, this one and ``circuit.check_basis_index``,
# allocate nothing (not even 2**n), so a GP config can make them before its
# capacity check.

def check_flip_qubit(n: int, flip_qubit: int) -> None:
    if not 1 <= flip_qubit <= n:
        raise DomainError(f"flip qubit {flip_qubit} out of range")


# One validator per sampled experiment, called by the experiment itself and by
# the CLI dry run, so both reject the same configurations. None of them
# allocates or samples.

def check_gp(n: int, n_samples: int, observable: PauliString,
             batches: int = DEFAULT_BATCHES, states: int = 1,
             vectors: int | None = None) -> None:
    """Domain and capacity checks of ``run_gp_experiment`` on ``states``
    states with ``vectors`` spectral vectors in all (one per pure state)."""
    _check_sampling(n, n_samples, batches, vectors or states, states, observable=observable)
    # each batch's sample covariance needs one degree of freedom
    if n_samples < 2 * batches:
        raise DomainError(
            f"the batch covariances need at least two draws per batch: "
            f"{n_samples} samples for {batches} batches"
        )


def check_concentration(n: int, n_samples: int, thresholds, observable: PauliString,
                        batches: int = DEFAULT_BATCHES, vectors: int = 1) -> np.ndarray:
    """Checks of ``concentration_tail`` on a state of ``vectors`` spectral vectors
    (one draw per batch suffices); returns the thresholds as an array."""
    thresholds = np.asarray(thresholds, dtype=float)
    if not np.all((thresholds > 0) & np.isfinite(thresholds)):
        raise DomainError("thresholds must be positive and finite")
    _check_sampling(n, n_samples, batches, vectors, cuts=thresholds.size, observable=observable)
    return thresholds


def check_anticoncentration(n: int, n_samples: int, alpha_grid, x_index: int,
                            batches: int = DEFAULT_BATCHES) -> np.ndarray:
    """Checks of ``anticoncentration_check``; returns the alphas as an array."""
    alphas = np.asarray(alpha_grid, dtype=float)
    check_basis_index(n, x_index)
    _check_sampling(n, n_samples, batches, 1, cuts=alphas.size)
    if not np.all((alphas >= 0) & (alphas <= 1)):
        raise DomainError("alpha values must lie in [0, 1]")
    return alphas


def _batch_rows(n_samples: int, batches: int):
    """Each batch's rows, in order; the first n_samples % batches take one more."""
    base, extra = divmod(n_samples, batches)
    return (slice(b * base + min(b, extra), (b + 1) * base + min(b + 1, extra))
            for b in range(batches))


def _batch_se(values: np.ndarray, batches: int, statistic, shape=()) -> np.ndarray:
    """Standard error of ``statistic``, an array of ``shape``, from its value
    on each batch's rows of ``values``."""
    rows = _batch_rows(len(values), batches)
    per_batch = np.fromiter((statistic(values[r]) for r in rows), (float, shape), batches)
    return np.std(per_batch, axis=0, ddof=1) / math.sqrt(batches)


def _tail(values: np.ndarray, thresholds: np.ndarray, batches: int) -> tuple:
    """(Pr(value >= t) for each threshold t, its batch SE) over 1-d values.
    One threshold at a time, so a hit mask costs 1 B per value."""
    def hit_rate(v):
        return np.array([np.count_nonzero(v >= t) for t in thresholds]) / len(v)

    return hit_rate(values), _batch_se(values, batches, hit_rate, thresholds.shape)


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
        frame = np.column_stack(ws + [-np.conj(_omega_apply(w)) for w in ws])
    return frame


def _frame_coefficients(states) -> tuple:
    """(k, coefficients, weights): the first k quaternionic columns of a draw
    carry every state. Row i of ``coefficients`` (r x 2k) is F^dag psi_i over
    the states' spectral vectors in order, and row j of ``weights``
    (states x r) holds state j's spectral weights on its own vectors."""
    vectors = np.concatenate([s.vectors for s in states], axis=1)
    frame = symplectic_frame(vectors.T)
    owner = np.repeat(np.arange(len(states)), [s.weights.size for s in states])
    weights = np.zeros((len(states), owner.size))
    weights[owner, np.arange(owner.size)] = np.concatenate([s.weights for s in states])
    return frame.shape[1] // 2, (frame.conj().T @ vectors).T, weights


def _pauli_compression(observable: PauliString):
    """Q -> Q^dag P Q, with P's gather pair built once: (P Q)[s] = phases[s] Q[source[s]]."""
    source, phases = observable.dense_action()
    return lambda q: q.conj().T @ (phases[:, None] * q[source])


def _sample(d: int, frame: tuple, compress, n_samples: int, batches: int, rng) -> np.ndarray:
    """Values (draws x states) of sum_w w c^dag M c over each state's
    spectrum, for ``frame = _frame_coefficients(states)`` and M the 2k x 2k
    compression ``compress(Q)`` of the observable to a draw Q of k
    quaternionic columns. Batch b draws its rows from child stream b."""
    k, coefficients, weights = frame
    conj = coefficients.conj()
    stream = rng_stream(rng)
    values = np.empty((n_samples, len(weights)))
    for b, rows in enumerate(_batch_rows(n_samples, batches)):
        gen = stream.child(b).generator()
        for i in range(rows.start, rows.stop):
            m = compress(sample_sp_columns(d, k, gen))
            values[i] = weights @ np.einsum("ri,ij,rj->r", conj, m, coefficients).real
    return values


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
) -> GPSummary:
    """Sample C(rho_j) = Tr[S rho_j S^dag O] over Haar-symplectic S."""
    states = list(states)
    if not states:
        raise DomainError("need at least one state")
    n, m = states[0].n, len(states)
    if any(s.n != n for s in states):
        raise DomainError("states must share n")
    check_gp(n, n_samples, observable, batches, m, sum(s.weights.size for s in states))
    values = _sample(2**n, _frame_coefficients(states), _pauli_compression(observable),
                     n_samples, batches, rng)
    mean = values.mean(axis=0)
    cov = np.cov(values, rowvar=False).reshape(m, m)
    centered = values - mean
    m2 = (centered**2).mean(axis=0)
    m4 = (centered**4).mean(axis=0)
    name, theory = select_theorem(states)
    return GPSummary(
        n=n,
        sample_count=n_samples,
        state_labels=tuple(s.label for s in states),
        observable=str(observable),
        mean_vector=mean,
        mean_se=_batch_se(values, batches, lambda v: v.mean(axis=0), (m,)),
        covariance=cov,
        covariance_se=_batch_se(values, batches,
                                lambda v: np.cov(v, rowvar=False).reshape(m, m), (m, m)),
        theory_name=name,
        theory_covariance=theory,
        exact_covariance=exact_covariance(states),
        fourth_moment_ratio=m4 / (3.0 * m2**2),
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
    c = np.asarray(c, dtype=float)
    # from half of sqrt(float max / d) on, d c^2 could overflow; the bound is
    # then at most 8 (2k-1)!! Tr_g / float max, and it is given as 0
    vast = c >= math.sqrt(sys.float_info.max / d) / 2
    bound = double_factorial(2 * k - 1) * (2.0 * tr_g / (d * np.where(vast, 1.0, c) ** 2)) ** k
    return np.where(vast, 0.0, bound)


def concentration_tail(
    state: StateSpec,
    observable: PauliString,
    n_samples: int,
    thresholds,
    rng,
    batches: int = DEFAULT_BATCHES,
) -> TailTable:
    """Empirical Pr(|C| >= c) with the Gaussian erfc reference and the
    t = 2, 4 moment bounds."""
    thresholds = check_concentration(
        state.n, n_samples, thresholds, observable, batches, state.weights.size
    )
    d = 2**state.n
    values = _sample(d, _frame_coefficients([state]), _pauli_compression(observable),
                     n_samples, batches, rng)
    emp, emp_se = _tail(np.abs(values[:, 0]), thresholds, batches)
    tr_g = algebra_overlap(state, state)
    sigma_sq = 2.0 * tr_g / d
    # erfc is 0.0 in float64 from 27.3 on, and c / scale may overflow; a state
    # with no spread (scale 0) has no tail at any positive threshold
    scale = math.sqrt(2.0 * max(sigma_sq, 0.0))
    gauss = np.array([math.erfc(c / scale) if c < 28 * scale else 0.0 for c in thresholds])
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
) -> AnticoncentrationTable:
    """Pr(p_S(x) >= alpha/d) over Haar-symplectic S against the (1-alpha)^2/2
    floor, plus the collision estimate z = d*mean(p^2) vs 2/(d+1)."""
    alphas = check_anticoncentration(n, n_samples, alpha_grid, x_index, batches)
    d = 2**n
    # the state |0> has the frame E and c = e_0, and M = Q[x]^dag Q[x] has
    # M[0, 0] = |<x|S|0>|^2
    probs = _sample(d, _frame_coefficients([StateSpec.computational_basis(n, 0)]),
                    lambda q: np.outer(q[x_index].conj(), q[x_index]),
                    n_samples, batches, rng)[:, 0]
    emp, emp_se = _tail(probs, alphas / d, batches)
    # d is a power of two, so d p^2 scales exactly
    z = d * probs**2
    return AnticoncentrationTable(
        n=n,
        x_index=x_index,
        sample_count=n_samples,
        alphas=alphas,
        empirical=emp,
        empirical_se=emp_se,
        bound=(1.0 - alphas) ** 2 / 2.0,
        z_estimate=float(z.mean()),
        z_se=float(_batch_se(z, batches, np.mean)),
        z_haar=z_haar(n),
    )
