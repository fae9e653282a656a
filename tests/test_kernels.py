"""Kernels against slow oracles: dense matrices, einsum and a plain-Python
closure round."""

import numpy as np
import pytest

from spcirc import kernels, lie_closure, pauli
from spcirc.lie_closure import prop2_generators, so_chain_generators, theorem1_generators


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


def random_gate(k, gen):
    return gen.standard_normal((2**k, 2**k)) + 1j * gen.standard_normal((2**k, 2**k))


def embed_gate(gate, n, positions):
    """Dense 2**n unitary with `gate` on the bit positions, the first the
    most significant bit of the gate's index."""
    k = len(positions)
    u = np.zeros((2**n, 2**n), dtype=complex)
    rest = ~sum(1 << p for p in positions)
    for col in range(2**n):
        bits = sum(((col >> p) & 1) << (k - 1 - m) for m, p in enumerate(positions))
        for out in range(2**k):
            row = (col & rest) | sum(((out >> (k - 1 - m)) & 1) << p
                                     for m, p in enumerate(positions))
            u[row, col] = gate[out, bits]
    return u


# (n, positions) for k = 1, 2 and 3 legs, adjacent and not, ascending and
# descending: (n-1, ..., n-k) leaves the legs in front and any other order moves them
GATE_CASES = [
    (2, (1,)), (3, (0,)), (4, (2,)),
    (2, (1, 0)), (2, (0, 1)), (3, (2, 0)), (4, (3, 2)), (4, (2, 3)), (4, (1, 3)),
    (4, (0, 2)), (4, (0, 3)), (5, (1, 3)),
    (3, (2, 1, 0)), (3, (0, 1, 2)), (4, (1, 0, 2)), (5, (4, 1, 2)), (5, (0, 2, 4)),
    (6, (5, 3, 0)),
]


# -- oracle agreement ---------------------------------------------------------

def test_apply_gate_matches_dense_embedding():
    gen = np.random.default_rng(41)
    for n, positions in GATE_CASES:
        gate = random_gate(len(positions), gen)
        psi = random_state(n, 42 + n)
        expected = embed_gate(gate, n, positions) @ psi
        got = psi.copy()
        kernels.apply_gate(got, gate, positions)
        assert np.allclose(got, expected, atol=1e-12), (n, positions)


def test_apply_gate_on_eight_legs_matches_einsum():
    """The dense second-moment oracle's case: a float64 256 x 256 gate on
    eight legs, two per group of bits, each pair descending."""
    gen = np.random.default_rng(48)
    n, positions = 10, (9, 8, 6, 5, 4, 3, 1, 0)
    gate = gen.standard_normal((256, 256))
    psi = gen.standard_normal(2**n)
    axes = [n - 1 - p for p in positions]
    outs = list(range(n, n + 8))
    result = [outs[axes.index(a)] if a in axes else a for a in range(n)]
    expected = np.einsum(gate.reshape((2,) * 16), outs + axes,
                         psi.reshape((2,) * n), list(range(n)), result).reshape(-1)
    got = psi.copy()
    kernels.apply_gate(got, gate, positions)
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


# -- the batch axis: axes after the first are independent vectors ------------

@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_apply_gate_on_a_batch_equals_single_vector_calls(shape):
    gen = np.random.default_rng(44)
    for n, positions in GATE_CASES:
        gate = random_gate(len(positions), gen)
        batch = random_batch(n, shape, 45 + n)
        singles = columns(batch)
        kernels.apply_gate(batch, gate, positions)
        for k, (vec, got) in enumerate(zip(singles, columns(batch))):
            kernels.apply_gate(vec, gate, positions)
            # to rounding: the gemm may sum in another order at another width
            assert np.allclose(got, vec, rtol=1e-14, atol=1e-14), (n, positions, k)


def test_apply_gate_refuses_an_array_it_cannot_write_in_place():
    for n, positions in GATE_CASES:
        batch = random_batch(n, (2,), 47)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernels.apply_gate(batch[:, 0], np.eye(2 ** len(positions), dtype=complex), positions)


def test_apply_gate_refuses_a_repeated_position():
    psi = random_state(3, 49)
    with pytest.raises(ValueError, match="repeated"):
        kernels.apply_gate(psi, np.eye(8, dtype=complex), (2, 0, 2))
    assert np.array_equal(psi, random_state(3, 49))


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
    """Double loop over (x, z) masks with set semantics: the commutator
    directions of the anticommuting (frontier, basis) pairs that are not in
    ``seen``."""
    found = set()
    for ki in new:
        for kj in basis:
            xi, zi, xj, zj = ki >> n, ki & (2**n - 1), kj >> n, kj & (2**n - 1)
            if (bin(xi & zj).count("1") + bin(zi & xj).count("1")) & 1:
                key = ((xi ^ xj) << n) | (zi ^ zj)
                if key not in seen:
                    found.add(key)
    return found


def as_set(keys):
    """Keys as one integer with bit k set for key k (through a bit string, so
    that a large key costs no shift of a large integer)."""
    keys = set(keys)
    bits = ["0"] * (max(keys, default=0) + 1)
    for k in keys:
        bits[-1 - k] = "1"
    return int("".join(bits), 2)


def members(directions):
    return {k for k, bit in enumerate(reversed(bin(directions)[2:])) if bit == "1"}


def assert_round_matches_reference(new, n, basis, seen):
    """One kernel round on the sets of these keys against the reference;
    returns the fresh keys."""
    expected = closure_round_reference(new, n, basis, seen)
    found = kernels.closure_round(kernels.Directions(as_set(new)), n,
                                  lie_closure.closure_basis(n, basis), as_set(seen))
    assert isinstance(found, kernels.Directions) and found.size == len(expected)
    assert members(found) == expected
    return expected


def keys(gens):
    return [(p.x_mask << p.n) | p.z_mask for p in gens]


def rounds_against_reference(g, grow_basis):
    """Run closure rounds from g's generators until one finds nothing, each
    round checked against the reference, and ``seen`` grown by each round's
    directions. The frontier meets the generators, as ``closure`` runs it, or
    with ``grow_basis`` every direction found so far. Returns the round count,
    the commutator directions hit more than once within a round, and the
    directions found in all."""
    n = g.n
    basis = new = keys(g.generators)
    seen = set(basis)
    rounds = repeated = 0
    while new:
        pairs = [ki ^ kj for ki in new for kj in basis
                 if bin(ki & (((kj & (2**n - 1)) << n) | (kj >> n))).count("1") & 1]
        repeated += len(pairs) - len(set(pairs))
        new = sorted(assert_round_matches_reference(new, n, basis, seen))
        seen |= set(new)
        if grow_basis:
            basis = basis + new
        rounds += 1
    return rounds, repeated, len(seen)


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
    new = ((new_x << n) | new_z).tolist()
    pair_keys = (np.array(new)[:, None] ^ np.array(gens)).ravel()
    seen = set(gens) | set(gen.choice(pair_keys, size=pair_keys.size // 3).tolist())
    found = assert_round_matches_reference(new, n, gens, seen)
    both = (1 << (n + 11)) | (1 << 11)
    assert len(found) > 1000 and any(k & both == both for k in found)


def test_closure_round_returns_empty_sets():
    n = 3
    gens = keys(theorem1_generators(n).generators)
    for new, basis in [([], gens), (gens, [])]:
        found = assert_round_matches_reference(new, n, basis, set())
        assert found == set()


def test_closure_round_finds_a_repeated_commutator_once():
    n = 2
    # a basis that lists Z1 twice: X1 meets it twice in one frontier entry
    basis = [0b10_00, 0b00_10, 0b00_10, 0b01_01]
    found = assert_round_matches_reference([0b10_00, 0b01_00], n, basis, set(basis))
    assert len(found) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_key_bits_and_set_sizes(n):
    for b in range(2 * n):
        assert pauli.key_bit(n, b) == as_set(k for k in range(4**n) if k >> b & 1)
    assert kernels.Directions(as_set([1, 2, 3])).size == 3
    assert lie_closure.closure_basis(n, [1, 2, 3]).size == 3
