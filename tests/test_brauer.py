"""Diagram algebra, Gram/Weingarten, and twirl against dense oracles.

Frozen expected values: the t = 2 Gram matrix [[d^2,d,-d],[d,d^2,d],[-d,d,d^2]],
its closed-form inverse, the asymptotic B matrix, and the closed forms of the
three t = 2 representatives (identity, SWAP, and the rank-one form
contraction Pi = d (I (x) Omega)|Phi+><Phi+|(I (x) Omega) with trace -d).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spcirc import brauer
from spcirc.brauer import (
    BrauerDiagram,
    check_gram,
    check_twirl,
    compose,
    double_factorial,
    enumerate_diagrams,
    gram,
    gram_entry,
    monte_carlo_twirl,
    represent,
    twirl,
)
from spcirc.errors import CapacityError, DomainError
from spcirc.sampler import RngStream, omega, sample_sp


def swap_matrix(d):
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def pi_s_matrix(d):
    # d (I (x) Omega) |Phi+><Phi+| (I (x) Omega); note Omega^T = -Omega, so
    # the two sandwich factors differ by a sign and the result has trace -d
    om = omega(d)
    bell = np.zeros(d * d)
    bell[:: d + 1] = 1.0 / np.sqrt(d)
    left = np.kron(np.eye(d), om) @ bell
    right = np.kron(np.eye(d), om).T @ bell
    return d * np.outer(left, right)


@st.composite
def permutation_diagrams(draw, t=3):
    perm = draw(st.permutations(range(1, t + 1)))
    return BrauerDiagram.from_permutation(tuple(perm))


@st.composite
def diagrams(draw, t=3):
    opts = enumerate_diagrams(t)
    return draw(st.sampled_from(opts))


# -- diagrams ------------------------------------------------------------------

def test_enumerate_counts():
    for t in (1, 2, 3, 4):
        assert len(enumerate_diagrams(t)) == double_factorial(2 * t - 1)
    with pytest.raises(CapacityError):
        enumerate_diagrams(6)


def test_t2_order_is_identity_swap_contraction():
    sigs = enumerate_diagrams(2)
    assert [str(s) for s in sigs] == ["(1,3)(2,4)", "(1,4)(2,3)", "(1,2)(3,4)"]
    assert sigs[0] == BrauerDiagram.identity(2)
    assert sigs[0].is_permutation() and sigs[1].is_permutation()
    assert not sigs[2].is_permutation()


def test_pairs_that_do_not_partition_the_items_are_refused():
    with pytest.raises(DomainError):
        BrauerDiagram.from_pairs(2, [(1, 2), (2, 3)])


def test_one_line_round_trip():
    for perm in [(1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3)]:
        assert BrauerDiagram.from_permutation(perm).one_line() == perm


# -- dense representation --------------------------------------------------------

def test_t2_representatives_closed_forms():
    for d in (2, 4):
        sigs = enumerate_diagrams(2)
        assert np.array_equal(represent(sigs[0], d), np.eye(d * d))
        assert np.array_equal(represent(sigs[1], d), swap_matrix(d))
        pi = represent(sigs[2], d)
        assert np.allclose(pi, pi_s_matrix(d), atol=1e-12)
        assert np.trace(pi) == pytest.approx(-d)
        assert np.allclose(pi @ pi, -d * pi, atol=1e-12)
        assert np.array_equal(swap_matrix(d) @ swap_matrix(d), np.eye(d * d))


def test_orthogonal_form_contraction():
    # o form: Pi = d |Phi+><Phi+|, trace +d
    d = 4
    pi = represent(enumerate_diagrams(2)[2], d, form="o")
    assert np.trace(pi) == pytest.approx(d)
    assert np.allclose(pi @ pi, d * pi, atol=1e-12)


def test_permutation_representation_is_factor_shuffle():
    d = 3
    sigma = BrauerDiagram.from_permutation((2, 3, 1))
    f = represent(sigma, d, form="o")
    rng = np.random.default_rng(0)
    a, b, c = (rng.standard_normal(d) for _ in range(3))
    # F moves tensor slot k to slot perm(k)
    lhs = f @ np.kron(a, np.kron(b, c))
    rhs = np.kron(c, np.kron(a, b))
    assert np.allclose(lhs, rhs)


def test_representation_commutes_with_tensor_powers():
    d = 4
    gen = RngStream(21, "brauer").generator()
    for t in (2, 3):
        for sig in enumerate_diagrams(t):
            f = represent(sig, d)
            for _ in range(3):
                s = sample_sp(d, gen)
                sk = s
                for _ in range(t - 1):
                    sk = np.kron(sk, s)
                assert np.abs(sk @ f - f @ sk).max() <= 1e-9


def test_mirror_is_dense_transpose():
    d = 4
    for t in (2, 3):
        for sig in enumerate_diagrams(t):
            assert np.allclose(
                represent(sig.mirror(), d), represent(sig, d).T, atol=1e-12
            )


def test_represent_capacity(checked_only):
    # 17 B per entry of the d^t x d^t matrix against 1 GiB: dim 18**3 = 5832
    # (past the old dim cap of 4096) fits, dim 20**3 = 8000 does not
    checked = checked_only(brauer)
    with pytest.raises(checked):
        represent(BrauerDiagram.identity(3), 18)
    with pytest.raises(CapacityError):
        represent(BrauerDiagram.identity(3), 20)


# -- composition -------------------------------------------------------------------

def test_compose_matches_matrix_product_for_permutations():
    d = 3
    rng = np.random.default_rng(3)
    for t in (2, 3, 4):
        sigs = [s for s in enumerate_diagrams(t) if s.is_permutation()]
        for _ in range(10):
            a, b = rng.choice(len(sigs), 2)
            a, b = sigs[a], sigs[b]
            prod, loops, _ = compose(a, b, -float(d))
            assert loops == 0
            assert np.array_equal(
                represent(prod, d, form="o"),
                represent(a, d, form="o") @ represent(b, d, form="o"),
            )


def test_compose_matches_matrix_product_for_the_orthogonal_form():
    # delta^loops F(a b) = F(a) F(b) for every pair; the symplectic form
    # agrees only up to a sign, e.g. F(SWAP) F(Pi_s) = -F(Pi_s)
    d = 3
    for t in (1, 2, 3):
        reps = {s: represent(s, d, form="o") for s in enumerate_diagrams(t)}
        for a in reps:
            for b in reps:
                prod, loops, _ = compose(a, b, float(d))
                assert np.allclose(d**loops * reps[prod], reps[a] @ reps[b])
    ident, swap, pi = enumerate_diagrams(2)
    assert np.array_equal(represent(swap, 4) @ represent(pi, 4), -represent(pi, 4))


@pytest.mark.parametrize("form", ["sp", "o"])
def test_compose_is_exact(form):
    # sign * delta^loops F(a b) = F(a) F(b) for every pair, with the sign the
    # symplectic form edges carry
    for t in (1, 2, 3):
        for d in (2, 4, 6):
            delta = -float(d) if form == "sp" else float(d)
            reps = {s: represent(s, d, form) for s in enumerate_diagrams(t)}
            for a in reps:
                for b in reps:
                    prod, loops, sign = compose(a, b, delta)
                    assert np.allclose(sign * delta**loops * reps[prod], reps[a] @ reps[b],
                                       rtol=0, atol=1e-12), (a, b, d)


def test_temperley_lieb_relations():
    ident, swap, pi = enumerate_diagrams(2)
    delta = -4.0
    out, k, _ = compose(swap, pi, delta)
    assert (out, k) == (pi, 0)
    out, k, _ = compose(pi, swap, delta)
    assert (out, k) == (pi, 0)
    out, k, sign = compose(pi, pi, delta)
    assert (out, k) == (pi, 1)
    assert sign * delta**k == delta
    out, k, _ = compose(swap, swap, delta)
    assert (out, k) == (ident, 0)


@given(diagrams(), diagrams(), diagrams())
def test_compose_associative(a, b, c):
    delta = -5.0
    ab, k1, _ = compose(a, b, delta)
    left, k2, _ = compose(ab, c, delta)
    bc, k3, _ = compose(b, c, delta)
    right, k4, _ = compose(a, bc, delta)
    assert left == right
    assert k1 + k2 == k3 + k4


@given(permutation_diagrams())
def test_identity_is_neutral(a):
    e = BrauerDiagram.identity(a.t)
    assert compose(e, a, -4.0)[:2] == (a, 0)
    assert compose(a, e, -4.0)[:2] == (a, 0)


# -- Gram and Weingarten --------------------------------------------------------------

def test_gram_t2_frozen():
    for d in (4, 8, 16):
        g = gram(2, d, "sp")
        expected = np.array(
            [[d * d, d, -d], [d, d * d, d], [-d, d, d * d]], dtype=float
        )
        assert np.array_equal(g.entries, expected)
        assert not g.pseudo
        assert g.delta == -d
    g_o = gram(2, 4, "o")
    assert np.array_equal(
        g_o.entries, np.array([[16, 4, 4], [4, 16, 4], [4, 4, 16]], dtype=float)
    )
    assert g_o.delta == 4


def test_gram_matches_dense_traces():
    for t, d, form in [(2, 4, "sp"), (2, 4, "o"), (3, 4, "sp"), (2, 8, "sp"), (4, 2, "sp"),
                       (3, 6, "sp")]:
        sigs = enumerate_diagrams(t)
        dense = [represent(s, d, form) for s in sigs]
        for i, mu in enumerate(sigs):
            for j, nu in enumerate(sigs):
                oracle = float(np.sum(dense[i] * dense[j]))
                assert gram_entry(mu, nu, d, form) == pytest.approx(
                    oracle, abs=1e-9
                ), (str(mu), str(nu))


def test_weingarten_t2_closed_form():
    for d in (4, 8, 16):
        w = gram(2, d, "sp").weingarten
        closed = np.array(
            [[d - 1, -1, 1], [-1, d - 1, -1], [1, -1, d - 1]], dtype=float
        ) / (d * (d + 1) * (d - 2))
        assert np.allclose(w, closed, atol=1e-13)


def test_gram_pseudo_inverse_at_small_d():
    g = gram(2, 2, "sp")
    assert g.pseudo
    assert abs(np.linalg.det(g.entries)) < 1e-9
    w = g.weingarten
    assert np.allclose(g.entries @ w @ g.entries, g.entries, atol=1e-9)
    assert np.allclose(w @ g.entries @ w, w, atol=1e-9)


@pytest.mark.parametrize("form", ["sp", "o"])
def test_pseudo_inverse_exactly_when_singular(form):
    # singular at d <= 2t - 2 for sp and at d < t for o
    for t in (1, 2, 3, 4):
        for d in range(2, 10, 2) if form == "sp" else range(1, 10):
            g = gram(t, d, form)
            assert g.pseudo == (np.linalg.matrix_rank(g.entries) < len(g.diagrams)), (t, d)


# -- twirl -----------------------------------------------------------------------------

def test_twirl_fixes_commutant_elements():
    d = 4
    sigs = enumerate_diagrams(2)
    for i, sig in enumerate(sigs):
        res = twirl(represent(sig, d).astype(complex), 2, d, "sp")
        vec = res.coefficients
        expected = np.zeros(3)
        expected[i] = 1.0
        assert np.allclose(vec.real, expected, atol=1e-10)
        assert np.abs(vec.imag).max() <= 1e-12
        assert res.residual <= 1e-10


def test_twirl_output_commutes_with_group():
    d = 4
    gen = RngStream(22, "brauer").generator()
    a = gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16))
    x = a + a.conj().T
    res = twirl(x, 2, d, "sp")
    y = res.matrix
    for _ in range(5):
        s = sample_sp(d, gen)
        sk = np.kron(s, s)
        assert np.abs(sk @ y - y @ sk).max() <= 1e-9
    # projection is idempotent
    res2 = twirl(y, 2, d, "sp")
    assert np.allclose(res2.coefficients, res.coefficients, atol=1e-10)
    assert res2.residual <= 1e-9


def test_twirl_residual_detects_outside_component():
    d = 4
    x = np.zeros((16, 16), dtype=complex)
    x[0, 1] = 1.0
    res = twirl(x, 2, d, "sp")
    assert res.residual > 0.5


def test_twirl_preserves_trace():
    d = 4
    gen = RngStream(23, "brauer").generator()
    a = gen.standard_normal((16, 16))
    x = (a + a.T).astype(complex)
    y = twirl(x, 2, d, "sp").matrix
    assert np.trace(y) == pytest.approx(np.trace(x).real, abs=1e-9)


@pytest.mark.parametrize("t,d,group", [(1, 4, "sp"), (2, 2, "sp"), (2, 4, "sp"),
                                         (2, 3, "o"), (3, 2, "o")])
def test_twirl_superoperator_applies_the_twirl(t, d, group):
    gen = RngStream(29, "brauer").generator()
    x = gen.standard_normal((d**t, d**t))
    s = brauer.twirl_superoperator(t, d, group)
    y = twirl(x.astype(complex), t, d, group).matrix
    assert np.abs((s @ x.ravel()).reshape(x.shape) - y).max() <= 1e-10


def test_twirl_input_validation():
    with pytest.raises(DomainError):
        twirl(np.eye(9, dtype=complex), 2, 4, "sp")
    with pytest.raises(DomainError):
        twirl(np.eye(16, dtype=complex), 2, 4, "nope")
    with pytest.raises(DomainError, match="NaN"):
        twirl(np.full((16, 16), np.nan), 2, 4, "o")


def test_twirl_of_vast_entries():
    """Up to float64 max / d^t the twirl is the scaled twirl of a small
    input, bit for bit; past it the input is refused, before any sum
    overflows (the pytest config turns RuntimeWarning into an error)."""
    x = RngStream(31, "brauer").generator().standard_normal((16, 16))
    small = twirl(x, 2, 4, "o")
    big = twirl(x * 2.0**990, 2, 4, "o")
    assert np.array_equal(big.coefficients, small.coefficients * 2.0**990)
    assert np.array_equal(big.matrix, small.matrix * 2.0**990)
    assert big.residual == small.residual * 2.0**990
    flat = twirl(np.full((16, 16), 1e300), 2, 4, "o")
    # every output is bounded by the Frobenius norm of the input, 1.6e301
    assert np.abs(flat.coefficients).max() <= 1.6e301 and flat.residual <= 1.6e301
    brauer.check_operator(np.full((16, 16), np.finfo(float).max / 16), 2, 4)
    for bad in (np.full((16, 16), 1e308), np.full((16, 16), -1e308)):
        with pytest.raises(DomainError, match="overflow"):
            brauer.check_operator(bad, 2, 4)
        with pytest.raises(DomainError, match="overflow"):
            twirl(bad, 2, 4, "o")


def test_twirl_table_byte_limit():
    # per entry: 8 B per diagram matrix and 34 B of temporaries
    check_twirl(4, 4, "sp")  # 105 matrices of 256 x 256: 57 MB
    check_twirl(2, 64, "o")  # 3 matrices of 4096 x 4096: 973 MB
    with pytest.raises(CapacityError):
        check_twirl(3, 16, "sp")  # 15 matrices of 4096 x 4096: 2.6 GB
    with pytest.raises(CapacityError):
        check_twirl(5, 4, "sp")  # 945 matrices of 1024 x 1024: 8.0 GB
    with pytest.raises(CapacityError):
        check_twirl(1, 8192, "o")  # one 8192 x 8192 matrix: 2.8 GB


def test_special_orthogonal_twirl_is_refused():
    # SO(2) fixes J = [[0, 1], [-1, 0]], which the O(2) twirl would send to 0
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(monte_carlo_twirl(j, 1, 2, "so", 5, RngStream(28, "mc").generator()), j)
    with pytest.raises(DomainError):
        check_twirl(1, 2, "so")
    with pytest.raises(DomainError):
        twirl(j.astype(complex), 1, 2, "so")


def test_gram_domain_checks():
    for t, d, form in [(0, 4, "sp"), (2, 0, "o"), (2, -3, "o"), (2, 3, "sp")]:
        with pytest.raises(DomainError):
            check_gram(t, d, form)
        with pytest.raises(DomainError):
            gram(t, d, form)
    with pytest.raises(CapacityError):
        check_gram(6, 4, "sp")
    with pytest.raises(DomainError):
        check_twirl(2, 4, "nope")
    # the orthogonal form is not a default for any other string
    for form in ("nope", "so", "u", "", "SP"):
        with pytest.raises(DomainError, match="unknown form"):
            check_gram(2, 4, form)
        with pytest.raises(DomainError, match="unknown form"):
            gram(2, 4, form)


def test_monte_carlo_twirl_converges():
    d = 4
    gen = RngStream(24, "brauer").generator()
    a = gen.standard_normal((16, 16)) + 1j * gen.standard_normal((16, 16))
    x = (a + a.conj().T) / 2
    exact = twirl(x, 2, d, "sp").matrix
    approx = monte_carlo_twirl(x, 2, d, "sp", 2000, RngStream(25, "mc").generator())
    assert np.abs(approx - exact).max() <= 0.12


@pytest.mark.parametrize("n_samples", [0, -3])
def test_monte_carlo_twirl_needs_a_sample(n_samples):
    # refused before the d**t x d**t accumulator, which at d = 10**6 could not be held
    with pytest.raises(DomainError, match="at least 1 sample"):
        monte_carlo_twirl(np.eye(4), 2, 10**6, "sp", n_samples, RngStream(25, "mc").generator())


def test_orthogonal_twirl_route():
    # twirling over O keeps the o-form contraction coefficients real and
    # reproduces a projector: same dual-route structure as sp
    d = 4
    gen = RngStream(26, "brauer").generator()
    a = gen.standard_normal((16, 16))
    x = (a + a.T).astype(complex)
    res = twirl(x, 2, d, "o")
    y = res.matrix
    approx = monte_carlo_twirl(x, 2, d, "o", 4000, RngStream(27, "mc").generator())
    assert np.abs(approx - y).max() <= 0.15
