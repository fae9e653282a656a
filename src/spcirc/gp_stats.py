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
Omega = ``pauli.symplectic_form(n)`` acts here through ``PauliString.apply``.

The exact finite-d covariance is 2 Tr_g/(d + 1); the large-d theory
references are Tr[rho rho']/d (overlapping states with small twisted
overlap), 2 Tr_g/d (general), and the diagonal form (vanishing cross
overlaps). The runner picks the reference whose preconditions hold at
threshold 1/(log2 d)^2 and always reports the exact formula alongside.

Error bars everywhere come from batching (20 batches by default), not from
Gaussianity assumptions: the Gaussianity itself is under test. The batches
run in order in one thread; batch b draws from child stream b of the seed.

Sampling reads S only on the span of the states. Once per run, the
Gram-Schmidt that also draws Q below, ``sampler.symplectic_frame``, pairs
every spectral vector psi with -J psi, J psi = Omega conj(psi), into an
orthonormal frame F = [w_1 .. w_k | -J w_1 .. -J w_k], dropping vectors that
already lie in the span; psi is stored as c = F^dag psi. F^T Omega F =
Omega_2k, so F extends to a symplectic unitary U with U e_j = w_j and
U e_{d/2+j} = -J w_j. For Haar S, SU is Haar again, and S psi = (SU) E c with
E = [e_0 .. e_{k-1} | e_{d/2} .. e_{d/2+k-1}]: each draw is the d x 2k matrix
Q = (SU) E and S psi = Q c, at O(d k^2) cost instead of the O(d^3) of a full
Haar matrix. A batch draws its Q as one or more stacks from
``sample_sp_columns``, each within ``STACK_BYTES``. The observable enters once
per stack, through the 2k x 2k compression M = Q^dag O Q of each member: every
sampled value is C(rho) = sum_w w c^dag M c over the spectrum, with the stack's
O Q from one ``PauliString.apply``. The anticoncentration check is the same
loop on |0> (k = 1, c = e_0) with M = Q[x]^dag Q[x], so M[0, 0] = |<x|S|0>|^2.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, check_basis_index, check_bytes, np
from .pauli import PauliString, in_sp_algebra, symplectic_form
from .sampler import (DEFAULT_TOL, RngStream, double_factorial, sample_sp_columns,
                      symplectic_frame, z_haar)

DEFAULT_BATCHES = 20


# ---------------------------------------------------------------------------
# states

class StateSpec:
    """A state in the experiment family on n >= 1 qubits, held as its
    spectrum: ``weights`` (r,) and orthonormal columns ``vectors`` (d x r)
    with rho = vectors diag(weights) vectors^dag.

    Give exactly one of ``statevector`` (one column of weight 1) and
    ``density`` (validated, then diagonalised once; weights at or below
    1e-12 are dropped). Either must have finite entries. The spec keeps only
    the spectrum, read-only, and not the input array, so a later write to
    the caller's array changes nothing.
    """

    def __init__(self, n: int, statevector: np.ndarray | None = None,
                 density: np.ndarray | None = None, label: str = ""):
        if n < 1:
            raise DomainError(f"need n >= 1, got {n}")
        self.n, self.label = n, label
        d = 2**n
        if (statevector is None) == (density is None):
            raise DomainError("state needs exactly one of a statevector and a density matrix")
        if statevector is not None:
            v = np.array(statevector, dtype=complex)
            if v.shape != (d,):
                raise DomainError(f"statevector shape {v.shape}")
            if not np.isfinite(v).all():
                raise DomainError("statevector has a non-finite entry")
            if abs(np.linalg.norm(v) - 1.0) > DEFAULT_TOL:
                raise DomainError("statevector is not normalized")
            self.weights, self.vectors = np.ones(1), v[:, None]
        else:
            rho = np.asarray(density, dtype=complex)
            if rho.shape != (d, d):
                raise DomainError(f"density shape {rho.shape}")
            if not np.isfinite(rho).all():
                raise DomainError("density has a non-finite entry")
            if abs(np.trace(rho) - 1.0) > DEFAULT_TOL:
                raise DomainError("density trace != 1")
            if np.abs(rho - rho.conj().T).max() > DEFAULT_TOL:
                raise DomainError("density is not Hermitian")
            vals, vecs = np.linalg.eigh(rho)
            if vals.min() < -DEFAULT_TOL:
                raise DomainError("density is not positive semidefinite")
            keep = vals > 1e-12
            self.weights, self.vectors = vals[keep], vecs[:, keep]
        self.weights.flags.writeable = self.vectors.flags.writeable = False

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

    def density_matrix(self) -> np.ndarray:
        return (self.vectors * self.weights) @ self.vectors.conj().T


# ---------------------------------------------------------------------------
# overlaps

def overlaps(a: StateSpec, b: StateSpec) -> tuple:
    """(Tr[rho_a rho_b], Tr[Omega rho_a Omega rho_b^T]) from the spectra:
    (sum w w' |v^dag v'|^2, -sum w w' |v^T Omega v'|^2)."""
    if a.n != b.n:
        raise DomainError("state size mismatch")
    plain = np.abs(a.vectors.conj().T @ b.vectors) ** 2
    twisted = np.abs(a.vectors.T @ symplectic_form(b.n).apply(b.vectors)) ** 2
    return (float(a.weights @ plain @ b.weights),
            -float(a.weights @ twisted @ b.weights))


def algebra_overlap(a: StateSpec, b: StateSpec) -> float:
    """Tr_g[rho_a rho_b] = (Tr[rho_a rho_b] + Tr[Omega rho_a Omega rho_b^T])/2."""
    return 0.5 * sum(overlaps(a, b))


# ---------------------------------------------------------------------------
# covariance references

def _pair_matrices(states):
    """(Tr[rho_j rho_j'], Tr[Omega rho_j Omega rho_j'^T]) over every pair."""
    pairs = np.empty((len(states), len(states), 2))
    for i, j in zip(*np.triu_indices(len(states))):
        pairs[i, j] = pairs[j, i] = overlaps(states[i], states[j])
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
# and one power of it (plus 1 B per draw for a hit mask); per batch, the tuples
# it frees onto CPython's tuple free list, which keeps up to 2000 of each
# length until a full gc.collect() (tracemalloc: a 56 B pair from the draws
# and a 48 B singleton from the batch covariance); per batch, state pair and
# threshold (or alpha), a batch statistic and two temporaries of its standard
# error; per amplitude and spectral vector, the vector and its share of the
# frame or of one draw's Gaussian, Gram-Schmidt and compression temporaries (a
# frame has at most one quaternionic column per vector; tracemalloc: 241 B per
# amplitude for two pure states at n = 14); and the further draws of a stack.
SAMPLE_BYTES, FREE_LIST_BYTES, BATCH_BYTES, VECTOR_BYTES = 24, 128, 24, 144
# A stack holds as many draws of k quaternionic columns as fit in STACK_BYTES at
# VECTOR_BYTES per amplitude and column, and at least one, so its draws beyond
# the first hold at most STACK_BYTES: from n = 11 on at k = 2 a stack is one
# draw. Of 2**18 .. 2**22, 2**20 drew two pure states fastest at n = 8, 10, 11.
STACK_BYTES = 2**20


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
            + batches * (FREE_LIST_BYTES + BATCH_BYTES * (states**2 + cuts)) + STACK_BYTES)
    # what does not grow with d is rounded up per amplitude: 2**n is never computed
    check_bytes(f"sampling {states} states at {cuts} thresholds at n = {n}",
                VECTOR_BYTES * vectors + -(-held >> n), 2, n)
    if observable is None:
        return
    if observable.n != n:
        raise DomainError("observable size mismatch")
    if observable.phase_exp % 2:
        raise DomainError("observable must be Hermitian")
    if not in_sp_algebra(observable):
        raise DomainError("observable must lie in i*sp(d/2); the Gaussian-process "
                          "theorems do not cover other Paulis")


# The two state range checks, this one and ``errors.check_basis_index``,
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
                        batches: int = DEFAULT_BATCHES, vectors: int = 1) -> None:
    """Checks of ``concentration_tail`` on a state of ``vectors`` spectral vectors
    (one draw per batch suffices); the thresholds are a sequence of floats."""
    thresholds = [float(c) for c in thresholds]
    if not all(c > 0 and math.isfinite(c) for c in thresholds):
        raise DomainError("thresholds must be positive and finite")
    _check_sampling(n, n_samples, batches, vectors, cuts=len(thresholds), observable=observable)


def check_anticoncentration(n: int, n_samples: int, alpha_grid, x_index: int,
                            batches: int = DEFAULT_BATCHES) -> None:
    """Checks of ``anticoncentration_check``; the alphas are a sequence of floats."""
    alphas = [float(a) for a in alpha_grid]
    check_basis_index(n, x_index)
    _check_sampling(n, n_samples, batches, 1, cuts=len(alphas))
    if not all(0 <= a <= 1 for a in alphas):
        raise DomainError("alpha values must lie in [0, 1]")


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
    """A stack of Q -> the stack of Q^dag P Q = conj(Q^T conj(P Q)), with every
    P Q from one ``PauliString.apply`` and conjugated in place."""
    def compress(q):
        pq = observable.apply(q.swapaxes(0, 1)).swapaxes(0, 1)
        return (q.swapaxes(1, 2) @ np.conjugate(pq, out=pq)).conj()

    return compress


def _sample(d: int, frame: tuple, compress, n_samples: int, batches: int,
            rng: RngStream) -> np.ndarray:
    """Values (draws x states) of sum_w w c^dag M c over each state's
    spectrum, for ``frame = _frame_coefficients(states)`` and M the 2k x 2k
    compression of the observable to a draw Q of k quaternionic columns;
    ``compress`` takes a stack of draws to the stack of their M. Batch b
    draws its rows, in stacks within ``STACK_BYTES``, from child stream b of
    ``rng``, so an int seed or a bare Generator is refused before any draw."""
    if not isinstance(rng, RngStream):
        raise DomainError(f"a sampled run needs an RngStream, got {type(rng).__name__}: "
                          "batch b draws from its child stream b")
    k, coefficients, weights = frame
    conj = coefficients.conj()
    stack = max(1, STACK_BYTES // (VECTOR_BYTES * k * d))
    values = np.empty((n_samples, len(weights)))
    for b, rows in enumerate(_batch_rows(n_samples, batches)):
        gen = rng.child(b).generator()
        for start in range(rows.start, rows.stop, stack):
            m = compress(sample_sp_columns(d, k, gen, min(stack, rows.stop - start)))
            forms = np.einsum("ri,sij,rj->sr", conj, m, coefficients).real
            values[start:start + len(m)] = forms @ weights.T
    return values


class GPSummary:
    """``run_gp_experiment``'s sampled ``values`` (draws x states) and their
    statistics: the means and sample covariances with batch standard errors,
    the theory and exact covariances, and the fourth-moment ratios."""

    def __init__(self, n: int, sample_count: int, state_labels: tuple, observable: str,
                 mean_vector: np.ndarray, mean_se: np.ndarray, covariance: np.ndarray,
                 covariance_se: np.ndarray, theory_name: str, theory_covariance: np.ndarray,
                 exact_covariance: np.ndarray, fourth_moment_ratio: np.ndarray,
                 values: np.ndarray):
        self.n, self.sample_count, self.state_labels = n, sample_count, state_labels
        self.observable, self.values = observable, values
        self.mean_vector, self.mean_se = mean_vector, mean_se
        self.covariance, self.covariance_se = covariance, covariance_se
        self.theory_name, self.theory_covariance = theory_name, theory_covariance
        self.exact_covariance, self.fourth_moment_ratio = exact_covariance, fourth_moment_ratio


def run_gp_experiment(
    states,
    observable: PauliString,
    n_samples: int,
    rng: RngStream,
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


def wick_fourth_moments(values: np.ndarray) -> tuple:
    """(empirical E[C_j^2 C_j'^2], Gaussian pairing prediction) matrices."""
    cov = np.cov(values, rowvar=False).reshape(values.shape[1], values.shape[1])
    sq = values**2
    emp = (sq[:, :, None] * sq[:, None, :]).mean(axis=0)
    theory = np.outer(np.diag(cov), np.diag(cov)) + 2.0 * cov**2
    return emp, theory


# ---------------------------------------------------------------------------
# concentration

class TailTable:
    """``concentration_tail``'s table, one entry per threshold."""

    def __init__(self, thresholds: np.ndarray, empirical: np.ndarray,
                 empirical_se: np.ndarray, gaussian: np.ndarray, bound_t2: np.ndarray,
                 bound_t4: np.ndarray, sigma_squared: float):
        self.thresholds, self.empirical, self.empirical_se = thresholds, empirical, empirical_se
        self.gaussian, self.bound_t2, self.bound_t4 = gaussian, bound_t2, bound_t4
        self.sigma_squared = sigma_squared


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
    rng: RngStream,
    batches: int = DEFAULT_BATCHES,
) -> TailTable:
    """Empirical Pr(|C| >= c) with the Gaussian erfc reference and the
    t = 2, 4 moment bounds."""
    check_concentration(state.n, n_samples, thresholds, observable, batches, state.weights.size)
    thresholds = np.asarray(thresholds, dtype=float)
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

class AnticoncentrationTable:
    """``anticoncentration_check``'s table, one entry per alpha, and its z."""

    def __init__(self, n: int, x_index: int, alphas: np.ndarray, empirical: np.ndarray,
                 empirical_se: np.ndarray, bound: np.ndarray, z_estimate: float, z_se: float,
                 z_haar: float):
        self.n, self.x_index, self.alphas = n, x_index, alphas
        self.empirical, self.empirical_se, self.bound = empirical, empirical_se, bound
        self.z_estimate, self.z_se, self.z_haar = z_estimate, z_se, z_haar


def anticoncentration_check(
    n: int,
    n_samples: int,
    alpha_grid,
    rng: RngStream,
    x_index: int = 0,
    batches: int = DEFAULT_BATCHES,
) -> AnticoncentrationTable:
    """Pr(p_S(x) >= alpha/d) over Haar-symplectic S against the (1-alpha)^2/2
    floor, plus the collision estimate z = d*mean(p^2) vs 2/(d+1)."""
    check_anticoncentration(n, n_samples, alpha_grid, x_index, batches)
    alphas = np.asarray(alpha_grid, dtype=float)
    d = 2**n
    # the state |0> has the frame E and c = e_0, and M = Q[x]^dag Q[x] has
    # M[0, 0] = |<x|S|0>|^2
    probs = _sample(d, _frame_coefficients([StateSpec.computational_basis(n, 0)]),
                    lambda q: q[:, x_index, :, None].conj() * q[:, x_index, None],
                    n_samples, batches, rng)[:, 0]
    emp, emp_se = _tail(probs, alphas / d, batches)
    # d is a power of two, so d p^2 scales exactly
    z = d * probs**2
    return AnticoncentrationTable(
        n=n,
        x_index=x_index,
        alphas=alphas,
        empirical=emp,
        empirical_se=emp_se,
        bound=(1.0 - alphas) ** 2 / 2.0,
        z_estimate=float(z.mean()),
        z_se=float(_batch_se(z, batches, np.mean)),
        z_haar=z_haar(n),
    )
