"""Pauli-string algebra against dense matrix oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spcirc.errors import CapacityError, DomainError
from spcirc.pauli import (
    PauliString,
    commutator,
    commutes,
    enumerate_sp_basis,
    in_sp_algebra,
    is_symmetric,
    multiply,
    sp_dimension,
    to_dense,
    to_dense_kron,
)
from spcirc.sampler import omega


def all_strings(n, phases=(0,)):
    for x in range(2**n):
        for z in range(2**n):
            for p in phases:
                yield PauliString(n, x, z, p)


@st.composite
def pauli_strings(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    x = draw(st.integers(0, 2**n - 1))
    z = draw(st.integers(0, 2**n - 1))
    p = draw(st.integers(0, 3))
    return PauliString(n, x, z, p)


# -- encoding and labels -----------------------------------------------------

def test_label_round_trip_examples():
    for text in ["XIZY", "I", "Y", "ZZ", "-XX", "iYI", "-iZIX", "+iYY", "+X"]:
        p = PauliString.from_label(text)
        q = PauliString.from_label(p.to_label())
        assert p == q


def test_label_qubit_one_is_leftmost():
    p = PauliString.from_label("XI")
    assert p.factor(1) == "X" and p.factor(2) == "I"
    assert p.x_mask == 1 and p.z_mask == 0
    # dense masks flip to qubit 1 = MSB: source[0] is the dense x mask
    assert p.dense_action()[0][0] == 2


def test_bad_labels_rejected():
    for text in ["", "XQ", "ix", "+", "-i", "X I"]:
        with pytest.raises(DomainError):
            PauliString.from_label(text)


def test_mask_bounds_checked():
    with pytest.raises(DomainError):
        PauliString(1, 2, 0)
    with pytest.raises(DomainError):
        PauliString(0, 0, 0)
    with pytest.raises(DomainError):
        PauliString.single(2, 3, "X")


@given(pauli_strings())
def test_label_round_trip_property(p):
    assert PauliString.from_label(p.to_label()) == p


# -- dense realization --------------------------------------------------------

def test_dense_matches_kron_exhaustive_n2():
    for p in all_strings(2, phases=range(4)):
        assert np.array_equal(to_dense(p), to_dense_kron(p))


@given(pauli_strings(max_n=3))
def test_dense_matches_kron_property(p):
    assert np.allclose(to_dense(p), to_dense_kron(p), atol=0)


def test_gather_pair_reproduces_the_kronecker_matrix():
    """Row s of P holds phases[s] in column source[s], and nothing else."""
    gen = np.random.default_rng(6)
    strings = list(all_strings(2, phases=range(4))) + [
        PauliString(n, *map(int, gen.integers(0, 2**n, size=2)), int(gen.integers(4)))
        for n in (1, 3, 4, 5) for _ in range(12)]
    for p in strings:
        source, phases = p.dense_action()
        d = 2**p.n
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(d), source] = phases
        assert np.array_equal(m, to_dense_kron(p)), p


def test_dense_limit():
    with pytest.raises(CapacityError):
        to_dense(PauliString(13, 0, 0))


def test_hermitian_iff_even_phase():
    for p in all_strings(2, phases=range(4)):
        m = to_dense(p)
        assert np.allclose(m, m.conj().T) == (p.phase_exp % 2 == 0)


def test_symmetric_iff_even_y_count():
    for p in all_strings(2):
        m = to_dense(p)
        assert np.allclose(m, m.T) == is_symmetric(p)


# -- product and commutator ----------------------------------------------------

def test_multiply_matches_dense_exhaustive_n2():
    strings = list(all_strings(2, phases=(0, 1)))
    rng = np.random.default_rng(0)
    for _ in range(300):
        a, b = rng.choice(len(strings), 2)
        a, b = strings[a], strings[b]
        assert np.allclose(to_dense(multiply(a, b)), to_dense(a) @ to_dense(b))


@given(pauli_strings(max_n=3), pauli_strings(max_n=3))
def test_multiply_property(a, b):
    if a.n != b.n:
        with pytest.raises(DomainError):
            multiply(a, b)
        return
    assert np.allclose(to_dense(multiply(a, b)), to_dense(a) @ to_dense(b))


@given(pauli_strings(max_n=3), pauli_strings(max_n=3), pauli_strings(max_n=3))
def test_multiply_associative(a, b, c):
    if not (a.n == b.n == c.n):
        return
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_commutes_matches_dense():
    for a in all_strings(2):
        for b in all_strings(2):
            da, db = to_dense(a), to_dense(b)
            assert commutes(a, b) == np.allclose(da @ db, db @ da)


def test_commutator_direction():
    a = PauliString.from_label("XI")
    b = PauliString.from_label("ZI")
    c = commutator(a, b)
    # [X, Z] direction is Y; dense commutator is proportional to dense(c)
    assert c is not None and c.to_label() == "YI"
    da, db = to_dense(a), to_dense(b)
    comm = da @ db - db @ da
    dc = to_dense(c)
    ratio = comm[np.abs(dc) > 0.5] / dc[np.abs(dc) > 0.5]
    assert np.allclose(ratio, ratio[0]) and abs(ratio[0]) == pytest.approx(2.0)
    assert commutator(a, a) is None
    assert commutator(a, b) == commutator(b, a)


# -- symplectic algebra membership ----------------------------------------------

def dense_in_sp(p):
    om = omega(2**p.n)
    m = 1j * to_dense(p)
    return np.allclose(m.T @ om, -om @ m, atol=1e-12)


def test_omega_dense_is_canonical_block_form():
    for n in (1, 2, 3):
        assert np.array_equal(to_dense(PauliString(n, 1, 1, 1)).real, omega(2**n))


def test_in_sp_algebra_matches_dense_exhaustive():
    for n in (1, 2, 3):
        for p in all_strings(n):
            if p.is_identity():
                continue
            assert in_sp_algebra(p) == dense_in_sp(p), p.to_label()


def test_sp_member_count():
    for n in (1, 2, 3):
        count = sum(
            1 for p in all_strings(n) if not p.is_identity() and in_sp_algebra(p)
        )
        assert count == sp_dimension(n)


def test_enumerate_sp_basis():
    for n in (1, 2, 3, 4):
        basis = enumerate_sp_basis(n)
        assert len(basis) == sp_dimension(n)
        assert len({(p.x_mask, p.z_mask) for p in basis}) == len(basis)
        assert all(in_sp_algebra(p) for p in basis)
        assert all(p.phase_exp == 0 for p in basis)


def test_enumerate_sp_basis_limit():
    # the first n the byte rule refuses
    with pytest.raises(CapacityError):
        enumerate_sp_basis(12)


def test_iz_only_members_are_z_leading():
    # the {I,Z}-only sp members are exactly Z on qubit 1 times {I,Z} on the rest
    n = 3
    members = [
        p
        for p in enumerate_sp_basis(n)
        if all(p.factor(j) in "IZ" for j in range(1, n + 1))
    ]
    assert len(members) == 2 ** (n - 1)
    assert all(p.factor(1) == "Z" for p in members)
