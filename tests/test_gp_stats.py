"""Gaussian-process statistics: overlaps, covariance references, tails.

Slow sampled checks run at n = 4 or less with a few thousand draws; the
assertions stay at 4-5 batch standard errors so the suite is deterministic
in practice for the pinned seeds.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import ks_2samp

from spcirc import gp_stats
from spcirc.circuit import pauli_apply
from spcirc.errors import CapacityError, DomainError
from spcirc.gp_stats import (
    StateSpec,
    _frame_coefficients,
    _pauli_compression,
    _sample,
    algebra_overlap,
    anticoncentration_check,
    concentration_tail,
    exact_covariance,
    moment_bound,
    overlaps,
    run_gp_experiment,
    select_theorem,
    wick_fourth_moments,
)
from spcirc.pauli import PauliString, members, strings, to_dense_kron
from spcirc.sampler import (
    FRAME_BLOCK,
    RngStream,
    omega,
    sample_sp,
    sample_sp_columns,
    symplectic_frame,
)


def fig_family(n):
    """Basis state plus two single-excitation superpositions; every pair
    overlaps and every twisted overlap vanishes."""
    return [
        StateSpec.computational_basis(n, 0),
        StateSpec.superposition_pair(n, 2),
        StateSpec.superposition_pair(n, 3),
    ]


def random_vector(n, gen):
    v = gen.normal(size=2**n) + 1j * gen.normal(size=2**n)
    return v / np.linalg.norm(v)


def random_pure(n, gen):
    return StateSpec(n, statevector=random_vector(n, gen))


def j_image(v):
    """J v = Omega conj(v), the antiunitary every symplectic unitary commutes with."""
    return omega(v.shape[0]) @ v.conj()


def random_density(n, gen):
    """Full-rank density matrix A A^dag / Tr[A A^dag] for a Gaussian A."""
    d = 2**n
    a = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def basis_density(n):
    """|0><0| on n qubits."""
    rho = np.zeros((2**n, 2**n))
    rho[0, 0] = 1.0
    return rho


def projection_overlap(ra, rb):
    """Oracle Tr_g[rho_a rho_b] = (1/d) sum_P Tr[P rho_a] Tr[P rho_b] over the
    d(d+1)/2 sp basis directions, from dense density matrices as given, not
    rebuilt from a spectrum: O(4^n d^2)."""
    d, n = len(ra), len(ra).bit_length() - 1
    total = 0.0
    for p in strings(n, members(n, "sp")):
        # Tr[P rho] = sum_ij P[i, j] rho[j, i], P from Kronecker products
        m = to_dense_kron(p)
        total += np.real(np.sum(m * ra.T)) * np.real(np.sum(m * rb.T))
    return total / d


def degenerate_family(n, gen):
    """psi_1, J psi_1 and a combination of the two: one quaternionic column."""
    psi = random_vector(n, gen)
    mix = (psi + 1j * j_image(psi)) / math.sqrt(2.0)
    return [StateSpec(n, statevector=v) for v in (psi, j_image(psi), mix)]


# -- overlaps -----------------------------------------------------------------

def test_basis_state_algebra_overlap_is_half():
    for n in (2, 3, 4):
        s = StateSpec.computational_basis(n, 0)
        assert algebra_overlap(s, s) == pytest.approx(0.5, abs=1e-12)
        assert projection_overlap(basis_density(n), basis_density(n)) == pytest.approx(
            0.5, abs=1e-12)


def test_overlap_routes_agree_on_random_pure_states():
    gen = np.random.default_rng(2024)
    n = 3
    for _ in range(6):
        u, w = random_vector(n, gen), random_vector(n, gen)
        a, b = StateSpec(n, statevector=u), StateSpec(n, statevector=w)
        fast = algebra_overlap(a, b)
        assert fast == pytest.approx(
            projection_overlap(np.outer(u, u.conj()), np.outer(w, w.conj())), abs=1e-10
        )
        # the same states given as density matrices hit the same number
        ad = StateSpec(n, density=a.density_matrix())
        bd = StateSpec(n, density=b.density_matrix())
        assert algebra_overlap(ad, bd) == pytest.approx(fast, abs=1e-10)
    # full-rank mixed states, against each other and against pure ones
    for n in (2, 3, 4):
        ra, rb, w = random_density(n, gen), random_density(n, gen), random_vector(n, gen)
        given = [ra, rb, np.outer(w, w.conj())]
        states = [StateSpec(n, density=ra), StateSpec(n, density=rb),
                  StateSpec(n, statevector=w)]
        assert states[0].weights.shape == (2**n,)
        assert np.abs(states[0].density_matrix() - ra).max() <= 1e-12
        for i, j in ((0, 0), (0, 1), (0, 2), (2, 1)):
            assert algebra_overlap(states[i], states[j]) == pytest.approx(
                projection_overlap(given[i], given[j]), abs=1e-10
            )


def test_maximally_mixed_has_zero_algebra_overlap():
    n = 3
    mixed = StateSpec(n, density=np.eye(2**n) / 2**n)
    assert algebra_overlap(mixed, mixed) == pytest.approx(0.0, abs=1e-12)


def test_twisted_overlap_frozen_values():
    b00 = StateSpec.computational_basis(2, 0)
    b01 = StateSpec.computational_basis(2, 1)
    b10 = StateSpec.computational_basis(2, 2)
    assert overlaps(b00, b01)[1] == pytest.approx(0.0, abs=1e-12)
    assert overlaps(b00, b10)[1] == pytest.approx(-1.0, abs=1e-12)
    assert algebra_overlap(b00, b10) == pytest.approx(-0.5, abs=1e-12)
    # dense route agrees with the pure-state shortcut
    d00 = StateSpec(2, density=b00.density_matrix())
    d10 = StateSpec(2, density=b10.density_matrix())
    assert overlaps(d00, d10)[1] == pytest.approx(-1.0, abs=1e-12)


def test_overlap_size_mismatch():
    a = StateSpec.computational_basis(2, 0)
    b = StateSpec.computational_basis(3, 0)
    for fn in (overlaps, algebra_overlap):
        with pytest.raises(DomainError):
            fn(a, b)


# -- covariance references -----------------------------------------------------

def test_exact_covariance_frozen_n4():
    states = [
        StateSpec.computational_basis(4, 0),
        StateSpec.superposition_pair(4, 2),
    ]
    cov = exact_covariance(states)
    want = np.array([[1 / 17, 1 / 34], [1 / 34, 1 / 17]])
    assert np.abs(cov - want).max() <= 1e-12


def test_select_theorem_branches():
    n = 4
    d = 2**n
    name, cov = select_theorem(fig_family(n))
    assert name == "overlapping-states"
    assert cov[0, 0] == pytest.approx(1.0 / d)
    assert cov[0, 1] == pytest.approx(0.5 / d)

    disjoint = [
        StateSpec.computational_basis(n, 0),
        StateSpec.computational_basis(n, 1),
    ]
    name, cov = select_theorem(disjoint)
    assert name == "vanishing-cross-overlaps"
    assert cov[0, 1] == 0.0
    assert cov[0, 0] == pytest.approx(1.0 / d)

    twisted = [
        StateSpec.computational_basis(n, 0),
        StateSpec.computational_basis(n, 1 << (n - 1)),
    ]
    name, cov = select_theorem(twisted)
    assert name == "general"
    assert cov[0, 1] == pytest.approx(2.0 * (-0.5) / d)


def sampled_values(states, obs, count, stream):
    """``count`` draws of C(rho_j) from the sampling loop, all in one batch:
    the draws of ``stream.child(0)``."""
    frame = _frame_coefficients(states)
    return _sample(2**obs.n, frame, _pauli_compression(obs), count, 1, stream)


# -- the column frame ---------------------------------------------------------------

def test_symplectic_frame_spans_the_states_and_extends_to_a_symplectic_unitary():
    gen = np.random.default_rng(41)
    n, d = 3, 8
    vecs = [random_vector(n, gen) for _ in range(3)]
    frame = symplectic_frame(vecs)
    assert frame.shape == (d, 6)
    assert np.abs(frame.conj().T @ frame - np.eye(6)).max() <= 1e-12
    assert np.abs(frame.T @ omega(d) @ frame - omega(6)).max() <= 1e-12
    proj = frame @ frame.conj().T
    for v in vecs:
        assert np.abs(proj @ v - v).max() <= 1e-12
        assert np.abs(proj @ j_image(v) - j_image(v)).max() <= 1e-12


def test_symplectic_frame_drops_dependent_vectors():
    gen = np.random.default_rng(42)
    states = degenerate_family(4, gen)
    k, _, weights = _frame_coefficients(states)
    assert k == 1
    assert [np.count_nonzero(row) for row in weights] == [1, 1, 1]
    # a full basis needs every column, in the canonical order
    basis = [StateSpec.computational_basis(2, x) for x in range(4)]
    k = _frame_coefficients(basis)[0]
    assert k == 2
    assert np.array_equal(
        symplectic_frame([s.vectors[:, 0] for s in basis]), np.eye(4)
    )


def test_symplectic_frame_drops_a_dependent_vector_in_a_later_block():
    # the dependent vector mixes a vector of its own block, one of the first
    # block and the J image of another, so both projections must remove it
    gen = np.random.default_rng(49)
    n, d, count = 7, 128, FRAME_BLOCK + 8
    vecs = [random_vector(n, gen) for _ in range(count)]
    dependent = FRAME_BLOCK + 3
    vecs[dependent] = 0.3 * vecs[FRAME_BLOCK + 1] - 0.5j * vecs[4] + 0.8 * j_image(vecs[20])
    frame = symplectic_frame(vecs)
    assert frame.shape == (d, 2 * (count - 1))
    assert np.abs(frame.conj().T @ frame - np.eye(2 * (count - 1))).max() <= 1e-12
    assert np.abs(frame.T @ omega(d) @ frame - omega(2 * (count - 1))).max() <= 1e-12
    proj = frame @ frame.conj().T
    for v in vecs:
        assert np.abs(proj @ v - v).max() <= 1e-12
        assert np.abs(proj @ j_image(v) - j_image(v)).max() <= 1e-12


def test_symplectic_frame_of_a_stack_is_the_frame_of_each_member():
    # every member drops its vector 3 (a mix of the J images of its vectors 0
    # and 1) and vector FRAME_BLOCK + 2 (a mix of one of its own block and one
    # of the first block)
    gen = np.random.default_rng(50)
    n, count = 7, FRAME_BLOCK + 4
    stack = np.array([[random_vector(n, gen) for _ in range(count)] for _ in range(3)])
    for member in stack:
        member[3] = 0.6j * j_image(member[0]) - 0.2 * j_image(member[1])
        member[FRAME_BLOCK + 2] = member[FRAME_BLOCK] + 2 * member[5]
    frames = symplectic_frame(stack)
    assert frames.shape == (3, 2**n, 2 * (count - 2))
    for member, frame in zip(stack, frames):
        assert np.abs(frame - symplectic_frame(member)).max() <= 1e-14


def test_symplectic_frame_refuses_a_stack_whose_members_drop_different_vectors():
    gen = np.random.default_rng(51)
    stack = np.array([[random_vector(3, gen) for _ in range(3)] for _ in range(2)])
    stack[1, 2] = j_image(stack[1, 0])
    with pytest.raises(DomainError, match="span different dimensions"):
        symplectic_frame(stack)


def test_degenerate_states_share_one_column():
    # C(J psi) = -C(psi) for every draw, since J commutes with S and
    # J^dag O J = -O for iO in sp(d/2)
    gen = np.random.default_rng(43)
    n = 4
    states = degenerate_family(n, gen)
    obs = PauliString.single(n, 2, "Y")
    values = sampled_values(states, obs, 50, RngStream(44))
    assert np.abs(values[:, 1] + values[:, 0]).max() <= 1e-12
    assert np.std(values[:, 0]) > 0.01


def test_column_draws_preserve_overlaps_and_twisted_overlaps():
    # S psi_a and S psi_b keep <psi_a, psi_b> and psi_a^T Omega psi_b, draw by
    # draw; the mixed state's eigenvectors lie in the span of the pure ones
    gen = np.random.default_rng(45)
    n, d = 4, 16
    pure = degenerate_family(n, gen)[:1] + [random_pure(n, gen) for _ in range(2)]
    rho = 0.6 * pure[0].density_matrix() + 0.4 * pure[1].density_matrix()
    states = pure + [StateSpec(n, density=rho)]
    k, coefficients, _ = _frame_coefficients(states)
    assert k == 3
    vecs = [v for s in states for v in s.vectors.T]
    coeffs = list(coefficients)
    assert len(vecs) == len(coeffs) == 5
    om = omega(d)
    draws = RngStream(46).generator()
    for _ in range(5):
        q = sample_sp_columns(d, k, draws)
        phis = [q @ c for c in coeffs]
        for a, b in ((a, b) for a in range(5) for b in range(5)):
            assert abs(np.vdot(phis[a], phis[b]) - np.vdot(vecs[a], vecs[b])) <= 1e-12
            assert abs(phis[a] @ om @ phis[b] - vecs[a] @ om @ vecs[b]) <= 1e-12


def test_mixed_state_value_is_linear_in_the_state():
    gen = np.random.default_rng(47)
    n = 3
    a, b = StateSpec.computational_basis(n, 0), random_pure(n, gen)
    rho = 0.7 * a.density_matrix() + 0.3 * b.density_matrix()
    states = [a, b, StateSpec(n, density=rho)]
    obs = PauliString.single(n, 2, "Y")
    values = sampled_values(states, obs, 40, RngStream(48))
    assert np.abs(values[:, 2] - (0.7 * values[:, 0] + 0.3 * values[:, 1])).max() <= 1e-12


def test_full_frame_reproduces_the_dense_draw():
    # with every basis state in the family the frame is the identity and the
    # column draw is the full Haar matrix, byte for byte the dense sampler's
    n, d = 3, 8
    states = [StateSpec.computational_basis(n, x) for x in range(d)]
    obs = PauliString.single(n, 2, "Y")
    values = sampled_values(states, obs, 5, RngStream(49))
    dense = RngStream(49).child(0).generator()
    for row in values:
        s = sample_sp(d, dense)
        want = [np.real(np.vdot(s[:, x], pauli_apply(obs, s[:, x]))) for x in range(d)]
        assert np.abs(row - want).max() <= 1e-12


def test_column_path_matches_dense_sampler_in_distribution():
    n, d = 6, 64
    gen = np.random.default_rng(50)
    states = [StateSpec.superposition_pair(n, 2), random_pure(n, gen)]
    obs = PauliString.single(n, 2, "Y")
    count = 1500
    column = run_gp_experiment(states, obs, count, RngStream(51, "ks")).values
    dense_gen = RngStream(52, "ks-dense").generator()
    dense = np.empty((count, len(states)))
    for i in range(count):
        s = sample_sp(d, dense_gen)
        for j, st in enumerate(states):
            phi = s @ st.vectors[:, 0]
            dense[i, j] = np.real(np.vdot(phi, pauli_apply(obs, phi)))
    for j in range(len(states)):
        assert ks_2samp(column[:, j], dense[:, j]).pvalue > 0.01
    # the joint law too: the correlation of the two states' values
    assert ks_2samp(column[:, 0] * column[:, 1], dense[:, 0] * dense[:, 1]).pvalue > 0.01


@pytest.mark.parametrize("n,count", [(8, 4000), (12, 2000)])
def test_gp_covariance_matches_finite_d_formula(n, count):
    states = [StateSpec.computational_basis(n, 0), StateSpec.superposition_pair(n, 2)]
    obs = PauliString.single(n, 2, "Y")
    run = run_gp_experiment(states, obs, count, RngStream(n, "gp-cov-test"))
    d = 2**n
    assert run.exact_covariance[0, 0] == pytest.approx(1.0 / (d + 1))
    assert np.all(np.abs(run.covariance - run.exact_covariance) <= 3.0 * run.covariance_se)


def test_gp_run_with_a_mixed_state_past_n8():
    # the exact covariance comes from the spectra at any n the sampler takes
    n, d = 9, 512
    gen = np.random.default_rng(53)
    u, v = random_vector(n, gen), random_vector(n, gen)
    v = v - np.vdot(u, v) * u
    v /= np.linalg.norm(v)
    rho = 0.75 * np.outer(u, u.conj()) + 0.25 * np.outer(v, v.conj())
    states = [StateSpec.computational_basis(n, 0), StateSpec(n, density=rho)]
    run = run_gp_experiment(states, PauliString.single(n, 2, "Y"), 40, RngStream(54))
    assert run.values.shape == (40, 2)
    om = omega(d)
    dense = [basis_density(n), rho]
    want = np.array([[np.trace(a @ b).real + np.trace(om @ a @ om @ b.T).real
                      for b in dense] for a in dense]) / (d + 1)
    assert np.abs(run.exact_covariance - want).max() <= 1e-12
    assert states[1].weights.shape == (2,)


# -- the sampled experiment ------------------------------------------------------

@pytest.fixture(scope="module")
def gp_run():
    states = fig_family(4)
    obs = PauliString.single(4, 2, "Y")
    return run_gp_experiment(states, obs, 2000, RngStream(7, "gp-test"))


def test_gp_mean_is_centered(gp_run):
    assert np.all(np.abs(gp_run.mean_vector) <= 4.0 * gp_run.mean_se + 1e-3)


def test_gp_covariance_matches_exact(gp_run):
    err = np.abs(gp_run.covariance - gp_run.exact_covariance)
    assert np.all(err <= 5.0 * gp_run.covariance_se + 2e-3)


def test_gp_theory_selection_and_shapes(gp_run):
    assert gp_run.theory_name == "overlapping-states"
    assert gp_run.theory_covariance.shape == (3, 3)
    assert gp_run.values.shape == (2000, 3)
    assert gp_run.state_labels == ("basis[0]", "pair[q2]", "pair[q3]")
    assert gp_run.observable == "IYII"


def test_gp_fourth_moment_near_gaussian(gp_run):
    assert np.all(gp_run.fourth_moment_ratio >= 0.8)
    assert np.all(gp_run.fourth_moment_ratio <= 1.2)


def test_gp_wick_pairings(gp_run):
    emp, theory = wick_fourth_moments(gp_run.values)
    scale = np.abs(theory).max()
    assert np.abs(emp - theory).max() <= 0.35 * scale


def test_gp_reproducible():
    """The same seed gives the same values and a different seed others."""
    states = fig_family(3)
    obs = PauliString.single(3, 2, "Y")
    a = run_gp_experiment(states, obs, 200, RngStream(11))
    b = run_gp_experiment(states, obs, 200, RngStream(11))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.covariance_se, b.covariance_se)
    c = run_gp_experiment(states, obs, 200, RngStream(12))
    assert not np.array_equal(a.values, c.values)


def test_gp_input_validation():
    states = fig_family(3)
    x_obs = PauliString.single(3, 2, "X")  # even rest-Y count: outside the algebra
    with pytest.raises(DomainError):
        run_gp_experiment(states, x_obs, 100, RngStream(0))
    skew = PauliString.from_label("iYII")
    with pytest.raises(DomainError):
        run_gp_experiment(states, skew, 100, RngStream(0))
    with pytest.raises(DomainError):
        run_gp_experiment(states, PauliString.single(4, 2, "Y"), 100, RngStream(0))
    with pytest.raises(DomainError):
        run_gp_experiment([], PauliString.single(3, 2, "Y"), 100, RngStream(0))
    with pytest.raises(DomainError):
        run_gp_experiment(states, PauliString.single(3, 2, "Y"), 5, RngStream(0))


def test_gp_capacity():
    """A byte bound, not a qubit cap: two pure states fit at n = 21 and not
    at n = 22, and a run refuses a vast sample count before its first draw."""
    gp_stats.check_gp(21, 40, PauliString.single(21, 2, "Y"), states=2)
    with pytest.raises(CapacityError):
        gp_stats.check_gp(22, 40, PauliString.single(22, 2, "Y"), states=2)
    with pytest.raises(CapacityError):
        run_gp_experiment(fig_family(3), PauliString.single(3, 2, "Y"), 10**9, RngStream(0))


@pytest.mark.parametrize("rng", [5, np.random.default_rng(0)], ids=["int", "generator"])
def test_sampled_runs_refuse_anything_but_a_stream(rng, monkeypatch):
    """Batch b draws from child stream b, which an int seed or a bare
    Generator does not give: each sampled run refuses both before any draw."""
    def draw(*args):
        raise AssertionError("drew before refusing the generator")

    monkeypatch.setattr(gp_stats, "sample_sp_columns", draw)
    state, obs = StateSpec.computational_basis(3, 0), PauliString.single(3, 2, "Y")
    for run in (lambda: run_gp_experiment([state], obs, 40, rng),
                lambda: concentration_tail(state, obs, 40, [0.5], rng),
                lambda: anticoncentration_check(3, 40, [0.5], rng)):
        with pytest.raises(DomainError, match="needs an RngStream"):
            run()


def test_wick_on_synthetic_gaussian():
    gen = np.random.default_rng(99)
    cov = np.array([[1.0, 0.3], [0.3, 0.5]])
    draws = gen.multivariate_normal(np.zeros(2), cov, size=20000)
    emp, theory = wick_fourth_moments(draws)
    want = np.outer(np.diag(cov), np.diag(cov)) + 2.0 * cov**2
    assert np.abs(theory - want).max() <= 0.1
    assert np.abs(emp - theory).max() <= 0.35


# -- concentration ------------------------------------------------------------------

def test_moment_bound_values():
    assert moment_bound(0.5, 4, 1.0, 2) == pytest.approx(0.25)
    assert moment_bound(0.5, 4, 1.0, 5) == pytest.approx(3 * 0.25**2)
    got = moment_bound(0.5, 16, np.array([0.25, 0.5]), 2)
    assert np.allclose(got, [1.0 / 16 / 0.0625, 1.0 / 16 / 0.25])
    with pytest.raises(DomainError):
        moment_bound(0.5, 4, 1.0, 1)
    # a threshold whose square overflows gives the limit 0, without a warning
    vast = moment_bound(0.5, 2**20, np.array([1e150, 1e308]), 4)
    assert np.array_equal(vast, [0.0, 0.0])


def test_concentration_vast_thresholds():
    """Huge thresholds give 0.0 in every column and no overflow warning
    (the pytest config turns RuntimeWarning into an error)."""
    state = StateSpec.computational_basis(4, 0)
    obs = PauliString.single(4, 2, "Y")
    table = concentration_tail(state, obs, 40, [0.5, 1e200, 1e308], RngStream(4))
    for column in (table.empirical, table.gaussian, table.bound_t2, table.bound_t4):
        assert np.array_equal(column[1:], [0.0, 0.0])
    assert table.gaussian[0] > 0 and table.bound_t2[0] > 0


def test_concentration_tail_table():
    n = 4
    d = 2**n
    state = StateSpec.computational_basis(n, 0)
    obs = PauliString.single(n, 2, "Y")
    sigma = math.sqrt(1.0 / d)  # 2 Tr_g / d with Tr_g = 1/2
    thresholds = np.linspace(0.5 * sigma, 5.0 * sigma, 12)
    table = concentration_tail(state, obs, 1200, thresholds, RngStream(23))
    assert table.sigma_squared == pytest.approx(sigma**2, abs=1e-12)
    assert np.all(np.diff(table.empirical) <= 1e-12)
    assert np.allclose(table.bound_t2, sigma**2 / thresholds**2, atol=1e-12)
    assert np.allclose(
        table.bound_t4, 3.0 * (sigma**2 / thresholds**2) ** 2, atol=1e-12
    )
    # Chebyshev bound must dominate the empirical tail on this grid
    assert np.all(table.empirical <= table.bound_t2 + 1e-12)
    # Gaussian reference equals the numerically integrated normal tail
    for c, g in zip(table.thresholds, table.gaussian):
        tail, _ = integrate.quad(
            lambda t: 2.0 / (sigma * math.sqrt(2 * math.pi))
            * math.exp(-(t**2) / (2 * sigma**2)),
            c,
            np.inf,
        )
        assert g == pytest.approx(tail, abs=1e-9)
    # empirical tail tracks the Gaussian reference within batching noise
    mid = slice(2, 8)
    assert np.all(
        np.abs(table.empirical[mid] - table.gaussian[mid])
        <= 5.0 * table.empirical_se[mid] + 0.02
    )


def test_gaussian_tail_matches_scipy_erfc():
    from scipy.special import erfc

    n = 4
    state = StateSpec.computational_basis(n, 0)
    thresholds = np.linspace(0.01, 1.5, 30)
    table = concentration_tail(state, PauliString.single(n, 2, "Y"), 40, thresholds,
                               RngStream(2))
    want = erfc(thresholds / math.sqrt(2.0 * table.sigma_squared))
    np.testing.assert_allclose(table.gaussian, want, rtol=1e-13, atol=0)


def test_concentration_tail_mixed_state_is_degenerate():
    n = 2
    mixed = StateSpec(n, density=np.eye(4) / 4)
    obs = PauliString.single(n, 2, "Y")
    with np.errstate(invalid="ignore"):
        table = concentration_tail(mixed, obs, 100, [0.1, 0.5], RngStream(1))
    assert table.sigma_squared == pytest.approx(0.0, abs=1e-12)
    assert np.all(table.empirical == 0.0)
    assert np.all(table.gaussian == 0.0)
    assert np.all(table.bound_t2 == 0.0)


def test_concentration_threshold_validation():
    state = StateSpec.computational_basis(2, 0)
    obs = PauliString.single(2, 2, "Y")
    with pytest.raises(DomainError):
        concentration_tail(state, obs, 100, [0.0, 0.5], RngStream(0))


def test_batch_rows_split_the_draws_in_order():
    """The first n_samples % batches batches take one draw more."""
    rows = list(gp_stats._batch_rows(10, 4))
    assert [(r.start, r.stop) for r in rows] == [(0, 3), (3, 6), (6, 8), (8, 10)]


@pytest.fixture
def sample_calls(monkeypatch):
    """The values each sampling loop call returns, in call order."""
    calls, sample = [], gp_stats._sample

    def record(*args):
        calls.append(sample(*args))
        return calls[-1]

    monkeypatch.setattr(gp_stats, "_sample", record)
    return calls


def test_concentration_samples_the_gp_values(sample_calls):
    state = StateSpec.superposition_pair(4, 2)
    obs = PauliString.single(4, 2, "Y")
    table = concentration_tail(state, obs, 60, [0.1, 0.3], RngStream(24), batches=6)
    gp = run_gp_experiment([state], obs, 60, RngStream(24), batches=6)
    assert np.array_equal(sample_calls[0], gp.values)
    hits = np.abs(gp.values[:, 0]) >= np.array([[0.1], [0.3]])
    assert np.array_equal(table.empirical, hits.mean(axis=1))


# -- anti-concentration -----------------------------------------------------------

def test_anticoncentration_table():
    n = 3
    d = 2**n
    table = anticoncentration_check(n, 2000, [0.0, 0.25, 0.5, 1.0], RngStream(31))
    assert table.z_haar == pytest.approx(2.0 / (d + 1))
    assert table.empirical[0] == 1.0  # every probability clears alpha = 0
    assert np.all(np.diff(table.empirical) <= 1e-12)
    assert np.allclose(table.bound, (1.0 - table.alphas) ** 2 / 2.0)
    assert np.all(table.empirical >= table.bound)
    assert abs(table.z_estimate - table.z_haar) <= 5.0 * table.z_se
    assert table.x_index == 0


def test_anticoncentration_reproducible():
    """The same seed gives the same table and a different seed another."""
    args = (4, 200, [0.0, 0.5, 1.0])
    a = anticoncentration_check(*args, RngStream(32), x_index=5)
    b = anticoncentration_check(*args, RngStream(32), x_index=5)
    for field in ("empirical", "empirical_se", "bound"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert (a.z_estimate, a.z_se) == (b.z_estimate, b.z_se)
    c = anticoncentration_check(*args, RngStream(33), x_index=5)
    assert c.z_estimate != a.z_estimate


def test_anticoncentration_reads_one_entry_of_each_draw(sample_calls):
    n, d, x = 4, 16, 5
    anticoncentration_check(n, 30, [0.5], RngStream(34), x_index=x, batches=3)
    assert sample_calls[0].shape == (30, 1)
    for b, chunk in enumerate(np.split(sample_calls[0], 3)):
        gen = RngStream(34).child(b).generator()
        want = [abs(sample_sp_columns(d, 1, gen)[x, 0]) ** 2 for _ in range(len(chunk))]
        assert np.abs(chunk[:, 0] - want).max() <= 1e-15


def test_anticoncentration_validation():
    with pytest.raises(DomainError):
        anticoncentration_check(3, 100, [1.5], RngStream(0))
    with pytest.raises(DomainError):
        anticoncentration_check(3, 100, [0.5], RngStream(0), x_index=8)
    with pytest.raises(CapacityError):
        anticoncentration_check(23, 100, [0.5], RngStream(0))


# -- state construction guards ----------------------------------------------------

def test_state_spec_validation():
    with pytest.raises(DomainError):
        StateSpec(2, statevector=np.ones(4))
    with pytest.raises(DomainError):
        StateSpec.computational_basis(2, 4)
    with pytest.raises(DomainError):
        StateSpec.superposition_pair(3, 4)
    with pytest.raises(DomainError):
        StateSpec(2, density=np.eye(4))  # trace 4
    rho = np.eye(4) / 4
    rho = rho.astype(complex)
    rho[0, 1] = 0.3
    with pytest.raises(DomainError):
        StateSpec(2, density=rho)  # not Hermitian
    bad = np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex)
    with pytest.raises(DomainError):
        StateSpec(2, density=bad)  # negative weight
    with pytest.raises(DomainError):
        StateSpec(2)
    with pytest.raises(DomainError):  # one description of the state, not two
        StateSpec(2, statevector=np.eye(4)[0], density=np.eye(4) / 4)
    # states compare by identity, so lists of them can be searched
    a, b = StateSpec.computational_basis(2, 0), StateSpec.computational_basis(2, 0)
    assert a == a and a != b
    assert [b, a].index(a) == 1


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_state_spec_refuses_non_finite_entries(value):
    """Refused before the norm, trace and eigenvalue checks: a NaN passes
    every ``> tol`` comparison, and ``eigh`` would raise LinAlgError."""
    v = np.eye(4, dtype=complex)[0]
    v[0] = value
    with pytest.raises(DomainError, match="non-finite"):
        StateSpec(2, statevector=v)
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = rho[1, 0] = value
    with pytest.raises(DomainError, match="non-finite"):
        StateSpec(2, density=rho)


def test_state_spec_keeps_its_own_read_only_arrays():
    """A later write to the caller's array leaves the state as it was
    validated: the spec keeps only its spectrum, read-only."""
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    pure = StateSpec(2, statevector=v)
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    mixed = StateSpec(2, density=rho)
    v[:] = 2.0
    rho[:] = 7.0
    assert np.linalg.norm(pure.vectors) == 1.0
    assert np.array_equal(pure.vectors[:, 0], np.eye(4)[0])
    assert np.array_equal(mixed.density_matrix(), np.diag([0.5, 0.5, 0.0, 0.0]))
    for held in (pure.weights, pure.vectors, mixed.weights, mixed.vectors):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 0.0
