"""Kernels against slow oracles: dense matrices, einsum and a plain-Python
closure round."""

import numpy as np
from scipy.linalg import expm

from spcirc import kernels
from spcirc.lie_closure import theorem1_generators
from spcirc.pauli import PauliString, to_dense


def random_state(n, seed):
    gen = np.random.default_rng(seed)
    v = gen.standard_normal(2**n) + 1j * gen.standard_normal(2**n)
    return v / np.linalg.norm(v)


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
        xd, zd = p.dense_masks()
        base = 1j ** ((p.phase_exp + p.y_count) % 4)
        psi = random_state(3, 7)
        expected = expm(1j * theta * to_dense(p)) @ psi
        got = kernels.pauli_rotation(psi.copy(), xd, zd, complex(base), theta)
        assert np.allclose(got, expected, atol=1e-12), label


def test_transfer_apply_matches_einsum():
    gen = np.random.default_rng(43)
    L, din, dout, R = 3, 6, 5, 4
    v = gen.standard_normal(L * din * R)
    T = gen.standard_normal((dout, din))
    expected = np.einsum("oi,lir->lor", T, v.reshape(L, din, R)).reshape(-1)
    assert np.allclose(kernels.transfer_apply(v, T, L, din, R), expected, atol=1e-12)


def closure_round_reference(new_x, new_z, all_x, all_z, seen, n):
    """Frontier-major double loop: each anticommuting pair whose commutator
    direction is unseen is recorded and marked seen on the spot."""
    found = []
    for xi, zi in zip(new_x.tolist(), new_z.tolist()):
        for xj, zj in zip(all_x.tolist(), all_z.tolist()):
            if (bin(xi & zj).count("1") + bin(zi & xj).count("1")) & 1:
                x3, z3 = xi ^ xj, zi ^ zj
                key = (x3 << n) | z3
                if not seen[key]:
                    seen[key] = True
                    found.append((x3, z3))
    return found


def assert_round_matches_reference(new_x, new_z, all_x, all_z, seen, n):
    ref_seen = seen.copy()
    expected = closure_round_reference(new_x, new_z, all_x, all_z, ref_seen, n)
    found_x, found_z = kernels.closure_round(new_x, new_z, all_x, all_z, seen, n)
    assert found_x.dtype == found_z.dtype == np.int64
    assert list(zip(found_x.tolist(), found_z.tolist())) == expected
    assert np.array_equal(seen, ref_seen)
    return found_x, found_z


def test_closure_round_matches_python_loop_on_theorem1_rounds():
    for n in (3, 4):
        gens = theorem1_generators(n).generators
        all_x = np.array([p.x_mask for p in gens], dtype=np.int64)
        all_z = np.array([p.z_mask for p in gens], dtype=np.int64)
        seen = np.zeros(4**n, dtype=bool)
        seen[(all_x << n) | all_z] = True
        new_x, new_z = all_x, all_z
        rounds = repeated = 0
        while new_x.size:
            # commutator directions hit more than once within this round
            pairs = [((xi ^ xj) << n) | (zi ^ zj)
                     for xi, zi in zip(new_x.tolist(), new_z.tolist())
                     for xj, zj in zip(all_x.tolist(), all_z.tolist())
                     if (bin(xi & zj).count("1") + bin(zi & xj).count("1")) & 1]
            repeated += len(pairs) - len(set(pairs))
            new_x, new_z = assert_round_matches_reference(
                new_x, new_z, all_x, all_z, seen, n
            )
            all_x = np.concatenate([all_x, new_x])
            all_z = np.concatenate([all_z, new_z])
            rounds += 1
        assert rounds >= 2 and repeated > 0, (n, rounds, repeated)
        assert all_x.size == 2**n * (2**n + 1) // 2


def test_closure_round_keeps_first_of_repeats_within_one_frontier_entry():
    n = 2
    # a basis that lists Z1 twice: X1 meets it twice in one frontier entry
    all_x = np.array([0b10, 0b00, 0b00, 0b01], dtype=np.int64)
    all_z = np.array([0b00, 0b10, 0b10, 0b01], dtype=np.int64)
    new_x = np.array([0b10, 0b01], dtype=np.int64)
    new_z = np.array([0b00, 0b00], dtype=np.int64)
    seen = np.zeros(4**n, dtype=bool)
    seen[(all_x << n) | all_z] = True
    found_x, _ = assert_round_matches_reference(new_x, new_z, all_x, all_z, seen, n)
    assert found_x.size == 2
