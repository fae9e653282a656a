"""Pauli-string algebra against dense matrix oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spcirc.errors import CapacityError, DomainError
from spcirc.pauli import (
    FORMS,
    PauliString,
    commutator,
    commutes,
    in_sp_algebra,
    members,
    sp_dimension,
    strings,
    symplectic_form,
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
    # qubit 1 is the most significant dense bit: X on it takes e_0 to e_2
    assert np.array_equal(p.apply(np.eye(4)[:, 0]), np.eye(4)[:, 2])


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


def test_apply_to_the_identity_is_the_kronecker_matrix():
    """P applied to each basis vector is P's column, exactly. Every string and
    phase at n = 3 puts the folded first z axis and the negated later ones at
    every position."""
    gen = np.random.default_rng(6)
    strings = list(all_strings(2, phases=range(4))) + list(all_strings(3, phases=range(4))) + [
        PauliString(n, *map(int, gen.integers(0, 2**n, size=2)), int(gen.integers(4)))
        for n in (1, 3, 4, 5) for _ in range(12)]
    for p in strings:
        assert np.array_equal(p.apply(np.eye(2**p.n)), to_dense_kron(p)), p


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_apply_on_a_batch_equals_one_call_per_column(shape):
    gen = np.random.default_rng(7)
    for n in (1, 2, 3):
        batch = gen.standard_normal((2**n,) + shape) + 1j * gen.standard_normal((2**n,) + shape)
        flat = batch.reshape(2**n, -1)
        for p in all_strings(n, phases=range(4)):
            got = p.apply(batch, 0.5 - 2j).reshape(2**n, -1)
            for k in range(flat.shape[1]):
                column = np.ascontiguousarray(flat[:, k])
                assert np.array_equal(got[:, k], p.apply(column, 0.5 - 2j)), (p, k)


def test_apply_allocates_only_its_output():
    """The all-Y string reverses and signs every axis; beside its input,
    ``apply`` holds its output and at most 64 KiB."""
    n = 16
    v = np.ones(2**n, dtype=complex)
    p = PauliString(n, 2**n - 1, 2**n - 1)
    tracemalloc.start()
    try:
        p.apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= v.nbytes + 64 * 1024


def test_dense_limit():
    with pytest.raises(CapacityError):
        to_dense(PauliString(13, 0, 0))


def test_hermitian_iff_even_phase():
    for p in all_strings(2, phases=range(4)):
        m = to_dense(p)
        assert np.allclose(m, m.conj().T) == (p.phase_exp % 2 == 0)


def test_symmetric_iff_even_y_count():
    # P^T = P iff iP is not in so(d), the algebra of the "o" form
    for p in all_strings(2):
        m = to_dense(p)
        assert np.allclose(m, m.T) == (p.y_count % 2 == 0) == (not members(2, "o") >> p.key & 1)


# -- commutator ---------------------------------------------------------------

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

def dense_in_algebra(p, form):
    """M^T F = -F M for M = iP, with F = omega(d) for "sp" and F = I for "o"."""
    f = omega(2**p.n) if form == "sp" else np.eye(2**p.n)
    m = 1j * to_dense(p)
    return np.allclose(m.T @ f, -f @ m, atol=1e-12)


def test_omega_dense_is_canonical_block_form():
    for n in (1, 2, 3):
        assert np.array_equal(to_dense(symplectic_form(n)).real, omega(2**n))


def test_in_sp_algebra_matches_dense_exhaustive():
    # the per-object rule and the member set of both forms, on every Pauli
    for n in (1, 2, 3):
        paulis = list(all_strings(n))
        for form in FORMS:
            dense = [dense_in_algebra(p, form) for p in paulis]
            bits = members(n, form)
            assert [bits >> p.key & 1 == 1 for p in paulis] == dense, (n, form)
        assert [in_sp_algebra(p) for p in paulis] == [dense_in_algebra(p, "sp") for p in paulis]


def test_sp_member_count():
    for n in (1, 2, 3):
        count = sum(
            1 for p in all_strings(n) if not p.is_identity() and in_sp_algebra(p)
        )
        assert count == sp_dimension(n)


def test_sp_basis():
    # the sp members listed as strings, in ascending key order
    for n in (1, 2, 3, 4):
        basis = strings(n, members(n, "sp"))
        assert len(basis) == sp_dimension(n)
        assert [p.key for p in basis] == sorted({p.key for p in basis})
        assert all(in_sp_algebra(p) for p in basis)
        assert all(p.phase_exp == 0 for p in basis)
    assert strings(3, 0) == []


def test_strings_are_refused_before_any_is_built():
    # all 4**12 directions at 192 B each; the sp members are refused at n = 12 too
    for directions in ((1 << 4**12) - 1, members(12, "sp")):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="the strings of"):
                strings(12, directions)
            assert tracemalloc.get_traced_memory()[1] <= 64 * 1024
        finally:
            tracemalloc.stop()


def test_iz_only_members_are_z_leading():
    # the {I,Z}-only sp members are exactly Z on qubit 1 times {I,Z} on the rest
    n = 3
    iz = [
        p
        for p in strings(n, members(n, "sp"))
        if all(p.factor(j) in "IZ" for j in range(1, n + 1))
    ]
    assert len(iz) == 2 ** (n - 1)
    assert all(p.factor(1) == "Z" for p in iz)
