"""Haar samplers: exact group membership plus moment checks.

Distributional checks use fixed seeds and generous (5 sigma) statistical
tolerances; the t = 1 twirl identity E[S X S^dag] = Tr[X]/d I is the
dual-route oracle for Haar uniformity on every group sampled here.
"""

import numpy as np
import pytest

from spcirc.errors import DomainError
from spcirc.sampler import (
    RngStream,
    brick_layer,
    is_in_sp_algebra_dense,
    is_symplectic,
    is_unitary,
    omega,
    sample_block,
    sample_orthogonal,
    sample_sp,
    sample_sp_columns,
    sample_unitary,
    symplectic_defect,
)


def test_brick_layer_is_two_halves_that_cover_each_bond_once():
    """One layer is two half layers of ((q, q + 1), group) gates: the gates
    of a half are disjoint, the halves share no bond and together hold each
    bond once, odd bonds first, and SP(2) sits exactly on (1, 2)."""
    for n in range(2, 10):
        halves = brick_layer(n)
        assert isinstance(halves, tuple) and len(halves) == 2
        for half in halves:
            qubits = [q for pair, _ in half for q in pair]
            assert len(qubits) == len(set(qubits)), (n, half)
        pairs = [pair for pair, _ in halves[0] + halves[1]]
        assert pairs == [(q, q + 1) for q in (*range(1, n, 2), *range(2, n, 2))]
        groups = {pair: group for pair, group in halves[0] + halves[1]}
        assert [pair for pair, group in groups.items() if group == "sp2"] == [(1, 2)]
        assert set(groups.values()) <= {"sp2", "o4"}
    assert brick_layer(2) == ((((1, 2), "sp2"),), ())


def test_omega_square():
    for d in (2, 4, 8):
        om = omega(d)
        assert np.array_equal(om @ om, -np.eye(d))
        assert np.array_equal(om.T, -om)
    with pytest.raises(DomainError):
        omega(3)


def test_sample_sp_membership():
    gen = RngStream(7, "unit").generator()
    for d in (2, 4, 8, 16):
        for _ in range(5):
            s = sample_sp(d, gen)
            assert s.shape == (d, d)
            assert is_unitary(s)
            assert is_symplectic(s)
            assert symplectic_defect(s) <= 1e-10


@pytest.mark.parametrize("d,k", [(2, 1), (4, 1), (4, 2), (16, 3), (256, 2), (256, 128)])
def test_sample_sp_columns_is_a_symplectic_isometry(d, k):
    gen = RngStream(15, "columns").generator()
    for _ in range(3):
        q = sample_sp_columns(d, k, gen)
        assert q.shape == (d, 2 * k)
        assert np.abs(q.conj().T @ q - np.eye(2 * k)).max() <= 1e-12
        assert np.abs(q.T @ omega(d) @ q - omega(2 * k)).max() <= 1e-12


def mezzadri_columns(d, k, gen):
    """The first k quaternionic columns by Mezzadri's recipe on the same four
    (d/2, k) Gaussian blocks: the interleaved 2 x 2 complex image of each
    quaternion, numpy's QR, the R-diagonal gauge, and the perfect shuffle to
    the block form omega(d)."""
    qa, qb, qc, qd = (gen.standard_normal((d // 2, k)) for _ in range(4))
    a = np.empty((d, 2 * k), dtype=complex)
    a[0::2, 0::2] = qa + 1j * qb
    a[0::2, 1::2] = qc + 1j * qd
    a[1::2, 0::2] = -qc + 1j * qd
    a[1::2, 1::2] = qa - 1j * qb
    q, r = np.linalg.qr(a)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))

    def shuffle(size):  # new index j takes old 2j, new j + size/2 takes old 2j + 1
        return np.concatenate((np.arange(0, size, 2), np.arange(1, size, 2)))

    return q[np.ix_(shuffle(d), shuffle(2 * k))]


# (128, 40) and (256, 128) cross a block of symplectic_frame; a count draws a
# stack, each member of which is the matching one of as many single draws
@pytest.mark.parametrize("d,k,count", [
    pytest.param(d, k, count, id=f"{d}-{k}" + (f"-stack{count}" if count else ""))
    for d, k in [(2, 1), (4, 2), (16, 3), (256, 2), (128, 40), (256, 128)]
    for count in (None, 10 if k < 4 else 2)])
def test_sample_sp_columns_is_the_gauged_qr_of_the_quaternionic_gaussian(d, k, count):
    for seed in range(3):
        gen = RngStream(seed, "mezzadri").generator()
        want = np.array([mezzadri_columns(d, k, gen) for _ in range(count or 1)])
        got = sample_sp_columns(d, k, RngStream(seed, "mezzadri").generator(), count)
        assert got.shape == (want if count else want[0]).shape
        assert np.abs(got - want).max() <= 1e-13


def test_a_stack_reads_the_stream_of_as_many_single_draws():
    stacked, single = RngStream(19, "columns").generator(), RngStream(19, "columns").generator()
    sample_sp_columns(16, 3, stacked, 4)
    for _ in range(4):
        sample_sp_columns(16, 3, single)
    assert stacked.standard_normal() == single.standard_normal()


def test_sample_sp_is_the_full_column_draw():
    for d in (4, 16):
        a = sample_sp(d, RngStream(16, "columns").generator())
        b = sample_sp_columns(d, d // 2, RngStream(16, "columns").generator())
        assert np.array_equal(a, b)


def test_sample_sp_columns_first_moment_vanishes():
    # without the R-diagonal gauge, Re Q[0, 0] would keep one sign
    d, k, count = 16, 2, 4000
    gen = RngStream(18, "columns").generator()
    acc = np.zeros((d, 2 * k), dtype=complex)
    for _ in range(count):
        acc += sample_sp_columns(d, k, gen)
    assert np.abs(acc / count).max() <= 5 / np.sqrt(d * count)


def test_sample_sp_columns_validation():
    gen = RngStream(17, "columns").generator()
    for d, k in ((4, 0), (4, 3), (5, 1), (0, 1)):
        with pytest.raises(DomainError):
            sample_sp_columns(d, k, gen)


@pytest.mark.parametrize("count", [0, -1])
def test_sample_sp_columns_refuses_an_empty_stack(count):
    with pytest.raises(DomainError, match="positive count"):
        sample_sp_columns(4, 1, RngStream(17, "columns").generator(), count)


def test_sample_orthogonal_membership():
    gen = RngStream(8, "unit").generator()
    dets = []
    for _ in range(20):
        o = sample_orthogonal(4, gen)
        assert np.allclose(o @ o.T, np.eye(4), atol=1e-10)
        dets.append(np.linalg.det(o))
    dets = np.round(dets)
    assert set(dets) == {-1.0, 1.0}
    for _ in range(10):
        so = sample_orthogonal(4, gen, special=True)
        assert np.linalg.det(so) == pytest.approx(1.0, abs=1e-10)


def test_sample_unitary_membership():
    gen = RngStream(9, "unit").generator()
    for d in (2, 5):
        u = sample_unitary(d, gen)
        assert is_unitary(u)


def test_generic_unitary_not_symplectic():
    gen = RngStream(10, "unit").generator()
    defects = [symplectic_defect(sample_unitary(4, gen)) for _ in range(10)]
    assert min(defects) > 0.1


def test_first_moment_vanishes():
    d, count = 4, 4000
    gen = RngStream(11, "unit").generator()
    acc = np.zeros((d, d), dtype=complex)
    for _ in range(count):
        acc += sample_sp(d, gen)
    mean = acc / count
    # entry variance is O(1/d); 5 sigma
    assert np.abs(mean).max() <= 5 / np.sqrt(d * count)


@pytest.mark.parametrize(
    "draw",
    [
        lambda d, g: sample_sp(d, g),
        lambda d, g: sample_unitary(d, g),
        lambda d, g: sample_orthogonal(d, g).astype(complex),
    ],
    ids=["sp", "u", "o"],
)
def test_t1_twirl_is_depolarizing(draw):
    # E[S X S^dag] = Tr[X]/d * I for any irreducible-on-C^d group
    d, count = 4, 3000
    gen = RngStream(12, "unit").generator()
    x = np.arange(d * d, dtype=float).reshape(d, d) / d
    acc = np.zeros((d, d), dtype=complex)
    for _ in range(count):
        s = draw(d, gen)
        acc += s @ x @ s.conj().T
    mean = acc / count
    target = np.trace(x) / d * np.eye(d)
    assert np.abs(mean - target).max() <= 5 * np.abs(x).max() / np.sqrt(count)


def test_symplectic_average_preserves_form_pairing():
    # S Omega S^T = Omega exactly, sample by sample
    d = 4
    gen = RngStream(13, "unit").generator()
    om = omega(d)
    for _ in range(10):
        s = sample_sp(d, gen)
        assert np.abs(s.T @ om @ s - om).max() <= 1e-12


def test_is_in_sp_algebra_dense():
    d = 4
    om = omega(d)
    gen = RngStream(14, "unit").generator()
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    m = a - a.conj().T
    # project onto the algebra: (M + Omega M^T Omega)/2 solves M^T Omega = -Omega M
    proj = (m + om @ m.T @ om) / 2
    assert is_in_sp_algebra_dense(proj)
    assert not is_in_sp_algebra_dense(m)


def test_rng_stream_reproducible():
    a = RngStream(5, "x").generator().standard_normal(8)
    b = RngStream(5, "x").generator().standard_normal(8)
    c = RngStream(5, "y").generator().standard_normal(8)
    d = RngStream(6, "x").generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_stream_children_independent():
    base = RngStream(5, "batch")
    k0 = base.child(0).generator().standard_normal(4)
    k0_again = base.child(0).generator().standard_normal(4)
    k1 = base.child(1).generator().standard_normal(4)
    assert np.array_equal(k0, k0_again)
    assert not np.array_equal(k0, k1)


@pytest.mark.parametrize("seed,stream_id", [
    (0, 2.7), (0, True), (0, -3), (0, (1, 2.0)), (-1, 0), (1.5, 0),
], ids=["float-id", "bool-id", "negative-id", "float-in-tuple", "negative-seed", "float-seed"])
def test_rng_stream_refuses_an_id_that_would_alias_another_stream(seed, stream_id):
    # int() would map 2.7 to 2 and True to 1; numpy alone would refuse -1 only on a draw
    with pytest.raises(DomainError, match="non-negative integer"):
        RngStream(seed, stream_id)


def test_rng_stream_accepts_numpy_integers_and_keeps_its_id_as_a_tuple():
    a = RngStream(np.int64(3), (np.int32(2), "a"))
    assert a.stream_id == (2, "a") and RngStream(3, "a").stream_id == ("a",)
    assert a.child("b") == RngStream(3, (2, "a", "b"))
    assert np.array_equal(a.generator().standard_normal(4),
                          RngStream(3, (2, "a")).generator().standard_normal(4))


def test_a_seed_is_not_a_stream():
    """A sampler draws from the Generator it is given; handed the seed
    itself, it refuses rather than replay the seed's first draws each call."""
    seed = RngStream(1, "x")
    with pytest.raises(AttributeError, match="standard_normal"):
        sample_block("o4", seed)
    gen = seed.generator()
    assert not np.array_equal(sample_block("o4", gen), sample_block("o4", gen))


def test_the_numpy_stream_is_pinned():
    """The words and normals of one seed, as numpy 2.4 draws them: a numpy
    that changes PCG64, SeedSequence or the normal sampler fails here once,
    by name, rather than re-rolling every statistical test at once."""
    gen = RngStream(0, "pin").generator()
    assert isinstance(gen.bit_generator, np.random.PCG64)
    words = [int(w) for w in gen.bit_generator.random_raw(4)]
    normals = RngStream(0, "pin").generator().standard_normal(4)
    why = f"numpy {np.__version__} changed the stream of RngStream(0, 'pin')"
    assert words == [0x6a7d7a322017b2f0, 0x4754ac5725ce9d75,
                     0xc4a9ec207e0723f0, 0x7b298869194737aa], why
    assert np.allclose(normals, [0.887051206401129, -0.334758492711894,
                                 -0.3943694733797945, -1.5602588493425145],
                       rtol=1e-15, atol=0), why
