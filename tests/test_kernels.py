"""Kernels against slow oracles: dense matrices, einsum and a plain-Python
closure round."""

import numpy as np
import pytest
from scipy.linalg import expm

from spcirc import kernels
from spcirc.lie_closure import prop2_generators, so_chain_generators, theorem1_generators
from spcirc.pauli import PauliString, to_dense


def random_state(n, seed):
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
    return v / np.linalg.norm(v)


def random_batch(n, shape, seed):
    gen = np.random.default_rng(seed)
    return gen.standard_normal((2**n,) + shape) + 1j * gen.standard_normal((2**n,) + shape)


def columns(batch):
    """Each vector of a batch along axis 0, as its own contiguous array."""
    flat = batch.reshape(batch.shape[0], -1)
    return [np.ascontiguousarray(flat[:, k]) for k in range(flat.shape[1])]


def embed_gate(gate, n, pos_a, pos_b):
    """Dense 2**n unitary with `gate` on bit positions (pos_a, pos_b)."""
    d = 2**n
    u = np.zeros((d, d), dtype=complex)
    rest = [p for p in range(n - 1, -1, -1) if p not in (pos_a, pos_b)]
    for col in range(d):
        ba = (col >> pos_a) & 1
        bb = (col >> pos_b) & 1
        base = col & ~((1 << pos_a) | (1 << pos_b))
        for out in range(4):
            row = base | ((out >> 1) << pos_a) | ((out & 1) << pos_b)
            u[row, col] = gate[out, 2 * ba + bb]
    del rest
    return u


# -- oracle agreement ---------------------------------------------------------

def test_apply_gate_matches_dense_embedding():
    gen = np.random.default_rng(41)
    gate = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    for n, pa, pb in [(2, 1, 0), (3, 2, 0), (4, 1, 3), (4, 0, 2)]:
        psi = random_state(n, 42 + n)
        expected = embed_gate(gate, n, pa, pb) @ psi
        got = psi.copy()
        kernels.apply_gate_2q(got, gate, pa, pb)
        assert np.allclose(got, expected, atol=1e-12), (n, pa, pb)


def test_pauli_rotation_matches_expm():
    theta = 0.37
    for label in ["XYZ", "ZZI", "IIY", "YIY", "ZIZ"]:
        p = PauliString.from_label(label)
        psi = random_state(3, 7)
        expected = expm(1j * theta * to_dense(p)) @ psi
        got = kernels.pauli_rotation(psi.copy(), *p.dense_action(), theta)
        assert np.allclose(got, expected, atol=1e-12), label


# -- the batch axis: axes after the first are independent vectors ------------

@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_apply_gate_on_a_batch_equals_single_vector_calls(shape):
    gen = np.random.default_rng(44)
    gate = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    # (n-1, n-2) leaves the gate's axes in front and (n-2, n-1) swaps them
    for n, pa, pb in [(2, 1, 0), (2, 0, 1), (4, 3, 2), (4, 2, 3), (4, 0, 3), (5, 1, 3)]:
        batch = random_batch(n, shape, 45 + n)
        singles = columns(batch)
        kernels.apply_gate_2q(batch, gate, pa, pb)
        for k, (vec, got) in enumerate(zip(singles, columns(batch))):
            kernels.apply_gate_2q(vec, gate, pa, pb)
            # to rounding: the gemm may sum in another order at another width
            assert np.allclose(got, vec, rtol=1e-14, atol=1e-14), (n, pa, pb, k)


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_pauli_rotation_on_a_batch_equals_single_vector_calls(shape):
    theta = -1.1
    for label in ["XYZI", "ZZIZ", "IIYI", "-YIXY", "IIII"]:
        source, phases = PauliString.from_label(label).dense_action()
        batch = random_batch(4, shape, 46)
        singles = columns(batch)
        assert kernels.pauli_rotation(batch, source, phases, theta) is batch
        for k, (vec, got) in enumerate(zip(singles, columns(batch))):
            kernels.pauli_rotation(vec, source, phases, theta)
            assert np.array_equal(got, vec), (label, k)


def test_apply_gate_refuses_an_array_it_cannot_write_in_place():
    batch = random_batch(3, (2,), 47)
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.apply_gate_2q(batch[:, 0], np.eye(4, dtype=complex), 1, 0)


def test_transfer_apply_matches_einsum():
    """The contracted axis stays in place: (L, din, R) -> (L, dout, R)."""
    gen = np.random.default_rng(43)
    L, din, dout = 3, 6, 5
    T = gen.standard_normal((dout, din))
    for R in (1, 4):
        v = gen.standard_normal(L * din * R)
        expected = np.einsum("oi,lir->lor", T, v.reshape(L, din, R)).reshape(-1)
        assert np.allclose(kernels.transfer_apply(v, T, L, din, R), expected, atol=1e-12)


def closure_round_reference(new, n, basis, seen):
    """Frontier-major double loop over (x, z) masks: each anticommuting pair
    whose commutator direction is unseen is recorded and marked seen on the
    spot."""
    found = []
    for ki in new.tolist():
        for kj in basis.tolist():
            xi, zi, xj, zj = ki >> n, ki & (2**n - 1), kj >> n, kj & (2**n - 1)
            if (bin(xi & zj).count("1") + bin(zi & xj).count("1")) & 1:
                key = ((xi ^ xj) << n) | (zi ^ zj)
                if not seen[key]:
                    seen[key] = True
                    found.append(key)
    return found


def assert_round_matches_reference(new, n, basis, seen):
    ref_seen = seen.copy()
    expected = closure_round_reference(new, n, basis, ref_seen)
    found = kernels.closure_round(new, n, basis, seen)
    assert found.dtype == np.int64
    assert found.tolist() == expected
    assert np.array_equal(seen, ref_seen)
    return found


def keys(gens):
    return np.array([(p.x_mask << p.n) | p.z_mask for p in gens], dtype=np.int64)


def rounds_against_reference(g, grow_basis):
    """Run closure rounds from g's generators until one finds nothing, each
    round checked against the reference. The frontier meets the generators,
    as ``closure`` runs it, or with ``grow_basis`` every direction found so
    far. Returns the round count, the commutator directions hit more than
    once within a round, and the directions found in all."""
    n = g.n
    basis = new = keys(g.generators)
    seen = np.zeros(4**n, dtype=bool)
    seen[basis] = True
    rounds = repeated = 0
    while new.size:
        pairs = [ki ^ kj for ki in new.tolist() for kj in basis.tolist()
                 if bin(ki & (((kj & (2**n - 1)) << n) | (kj >> n))).count("1") & 1]
        repeated += len(pairs) - len(set(pairs))
        new = assert_round_matches_reference(new, n, basis, seen)
        if grow_basis:
            basis = np.concatenate([basis, new])
        rounds += 1
    return rounds, repeated, int(seen.sum())


def test_closure_round_matches_python_loop_on_theorem1_rounds():
    for n, grow_basis in [(3, True), (4, True), (3, False), (4, False), (5, False), (6, False)]:
        rounds, repeated, dim = rounds_against_reference(theorem1_generators(n), grow_basis)
        assert rounds >= 2 and repeated > 0, (n, rounds, repeated)
        assert dim == 2**n * (2**n + 1) // 2


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("make,dim", [
    (prop2_generators, lambda d: d * d - 1),
    (so_chain_generators, lambda d: d * (d - 1) // 2),
], ids=["prop2", "so-chain"])
def test_closure_round_matches_python_loop_on_family_rounds(make, dim, n):
    rounds, repeated, found = rounds_against_reference(make(n), grow_basis=False)
    assert rounds >= 2 and repeated > 0, (rounds, repeated)
    assert found == dim(2**n)


def test_closure_round_matches_python_loop_at_twelve_qubits():
    """Keys use all 24 bits: random frontier directions, some with qubit 1
    (bit 11) set in both x and z, against the theorem1 generators, with part
    of the commutators already seen."""
    n = 12
    gen = np.random.default_rng(12)
    gens = keys(theorem1_generators(n).generators)
    new_x, new_z = gen.integers(0, 2**n, size=(2, 300), dtype=np.int64)
    new_x[::3] |= 1 << 11
    new_z[::3] |= 1 << 11
    new = (new_x << n) | new_z
    seen = np.zeros(4**n, dtype=bool)
    seen[gens] = True
    pair_keys = new[:, None] ^ gens
    seen[gen.choice(pair_keys.ravel(), size=pair_keys.size // 3)] = True
    found = assert_round_matches_reference(new, n, gens, seen)
    both = (1 << (n + 11)) | (1 << 11)
    assert found.size > 1000 and ((found & both) == both).any()


def test_closure_round_returns_int64_empties():
    n = 3
    gens = keys(theorem1_generators(n).generators)
    none = np.empty(0, dtype=np.int64)
    seen = np.zeros(4**n, dtype=bool)
    for new, basis in [(none, gens), (gens, none)]:
        found = kernels.closure_round(new, n, basis, seen)
        assert found.size == 0 and found.dtype == np.int64
    assert not seen.any()


def test_closure_round_keeps_first_of_repeats_within_one_frontier_entry():
    n = 2
    # a basis that lists Z1 twice: X1 meets it twice in one frontier entry
    basis = np.array([0b10_00, 0b00_10, 0b00_10, 0b01_01], dtype=np.int64)
    new = np.array([0b10_00, 0b01_00], dtype=np.int64)
    seen = np.zeros(4**n, dtype=bool)
    seen[basis] = True
    found = assert_round_matches_reference(new, n, basis, seen)
    assert found.size == 2


def test_closure_round_is_chunk_size_independent(monkeypatch):
    # chunks of one and of a few frontier rows: dedup across chunks goes
    # through ``seen``, so every round must still match the reference
    n = 4
    gens = keys(theorem1_generators(n).generators)
    for chunk_pairs in (1, 3 * gens.size + 1):
        monkeypatch.setattr(kernels, "CHUNK_PAIRS", chunk_pairs)
        seen = np.zeros(4**n, dtype=bool)
        seen[gens] = True
        new, total = gens, gens.size
        while new.size:
            new = assert_round_matches_reference(new, n, gens, seen)
            total += new.size
        assert total == 2**n * (2**n + 1) // 2
