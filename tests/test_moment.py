"""Second-moment label propagator against frozen, per-block and dense oracles.

The 6x6 sp2 transfer matrix below is a frozen external reference value; the
test asserts the first-principles derivation reproduces it entry-by-entry in
the documented lexicographic label order (II, IS, IB, SI, SS, SB), row a =
expansion of the twirled input label a.
"""

import numpy as np
import pytest

from spcirc import circuit
from spcirc.errors import CapacityError, DomainError
from spcirc.moment import (
    ALPHA_FIRST,
    ALPHA_RAW,
    ALPHA_REST,
    LABEL_OPS,
    LabelVector,
    block_transfer,
    check_depth,
    check_propagation,
    collision_probability,
    collision_trace,
    contraction_values,
    dense_collision,
    dense_second_moment,
    depth_to_anticoncentrate,
    derive_transfer,
    fit_log_depth,
    initial_label_vector,
    label_gram,
    monte_carlo_collision,
    propagate,
    z_haar,
)
from spcirc.sampler import RngStream

# frozen reference: sp2 block transfer on labels (II, IS, IB, SI, SS, SB)
TAU_SP2 = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [0, 1 / 4, 3 / 20, 1 / 10, 1 / 4, -3 / 20],
        [0, 3 / 20, 1 / 4, -1 / 10, 3 / 20, -1 / 4],
        [0, 3 / 20, -3 / 20, 3 / 10, 3 / 20, 3 / 20],
        [0, 3 / 5, 0, 3 / 5, 3 / 5, 0],
        [0, 0, -3 / 5, 3 / 5, 0, 3 / 5],
    ]
)


def bell_projector_pair():
    b = np.zeros((4, 4))
    b[0, 0] = b[0, 3] = b[3, 0] = b[3, 3] = 1.0
    return b  # 2 |phi+><phi+| on the two copies of one qubit


# -- label operators -----------------------------------------------------------

def test_label_operators_closed_forms():
    swap4 = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap4[i * 2 + j, j * 2 + i] = 1.0
    assert np.allclose((np.eye(4) + LABEL_OPS["S"]) / 2, swap4, atol=1e-12)
    assert np.allclose((np.eye(4) + LABEL_OPS["B"]) / 2, bell_projector_pair(), atol=1e-12)
    raw = LABEL_OPS["raw"]
    assert raw[0, 0] == 1.0 and np.count_nonzero(raw) == 1


def test_label_gram_frozen():
    g2 = label_gram(("I", "S"))
    assert np.allclose(g2, np.diag([4.0, 12.0]), atol=1e-12)
    g3 = label_gram(("I", "S", "B"))
    assert np.allclose(
        g3, np.array([[4, 0, 0], [0, 12, 4], [0, 4, 12]], dtype=float), atol=1e-12
    )


def test_contraction_values_from_dense():
    assert np.allclose(contraction_values(ALPHA_REST), [2.0, 2.0, 2.0])
    assert np.allclose(contraction_values(("raw",)), [1.0])


# -- the sp2 and o4 transfers ----------------------------------------------------

def test_sp2_transfer_matches_frozen_tau():
    t = derive_transfer("sp2")
    assert t.basis_order == ("II", "IS", "IB", "SI", "SS", "SB")
    assert np.abs(t.entries - TAU_SP2).max() <= 1e-12


def test_sp2_transfer_idempotent():
    m = derive_transfer("sp2").entries
    assert np.abs(m @ m - m).max() <= 1e-12


def test_o4_transfer_projector():
    t = derive_transfer("o4")
    assert t.entries.shape == (9, 9)
    assert t.basis_order[0] == "II"
    m = t.entries
    assert np.abs(m @ m - m).max() <= 1e-12
    # all-identity input is a fixed point
    e = np.zeros(9)
    e[0] = 1.0
    assert np.allclose(e @ m, e, atol=1e-12)


def test_sp2_identity_fixed_point():
    m = derive_transfer("sp2").entries
    e = np.zeros(6)
    e[0] = 1.0
    assert np.allclose(e @ m, e, atol=1e-12)


# -- propagation ---------------------------------------------------------------------

def test_initial_vector_collision_is_one():
    for n in (2, 3, 5):
        assert collision_probability(initial_label_vector(n)) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        initial_label_vector(1)
    # the two propagation buffers fit the byte limit up to n = 16
    check_propagation(16)
    with pytest.raises(CapacityError):
        initial_label_vector(17)


def test_n2_single_layer_hits_haar_value():
    v = propagate(initial_label_vector(2), 1)
    assert collision_probability(v) == pytest.approx(0.4, abs=1e-12)
    assert z_haar(2) == pytest.approx(0.4)


def test_z_decreases_towards_haar():
    n = 4
    zs = collision_trace(n, 8)
    zh = z_haar(n)
    assert zs[0] == pytest.approx(1.0)
    assert all(zs[i + 1] <= zs[i] + 1e-12 for i in range(len(zs) - 1))
    assert zs[-1] >= zh - 1e-12


def test_fixed_point_is_haar_value():
    for n in (3, 4):
        v = propagate(initial_label_vector(n), 60)
        assert collision_probability(v) == pytest.approx(z_haar(n), abs=1e-10)


def apply_block_reference(v, bond, group):
    """One block on bond (bond, bond + 1), 1-based, as a stacked matmul over
    the qubits left and right of the bond: the propagator's step before the
    half layers became one gemm per block."""
    in_a, in_b = v.alphabets[bond - 1], v.alphabets[bond]
    row = block_transfer(group, in_a, in_b)
    dims = v.dims()
    left = int(np.prod(dims[: bond - 1], dtype=np.int64))
    right = int(np.prod(dims[bond + 1 :], dtype=np.int64))
    out = np.matmul(row.T, v.coeffs.reshape(left, len(in_a) * len(in_b), right))
    out_a = ALPHA_FIRST if group == "sp2" else ALPHA_REST
    alphabets = v.alphabets[: bond - 1] + (out_a, ALPHA_REST) + v.alphabets[bond + 1 :]
    return LabelVector(v.n, alphabets, out.reshape(-1), layers=v.layers)


@pytest.mark.parametrize("n", range(2, 11))
def test_propagate_matches_per_block_reference(n):
    """Every layer up to 20, including odd n and n = 2, where the half layers
    fold the qubits no block touches into a neighbouring block."""
    ref = LabelVector(n, (ALPHA_RAW,) * n, np.ones(1))
    v = initial_label_vector(n)
    for layer in range(1, 21):
        for bond, group in circuit.brick_layer(n):
            ref = apply_block_reference(ref, bond, group)
        v = propagate(v, 1)
        assert v.layers == layer
        assert v.alphabets == ref.alphabets
        scale = np.abs(ref.coeffs).max()
        assert np.abs(v.coeffs - ref.coeffs).max() <= 1e-12 * scale, (n, layer)


def collision_reference(v):
    """z contracted one qubit at a time from qubit 1, one tensordot each: the
    reverse order of ``collision_probability``, which starts at qubit n."""
    t = v.coeffs.reshape(v.dims())
    for alpha in v.alphabets:
        t = np.tensordot(contraction_values(alpha), t, axes=([0], [0]))
    return float(t)


@pytest.mark.parametrize("n", range(2, 11))
def test_collision_matches_per_qubit_contraction(n):
    v = initial_label_vector(n)
    for layer in range(21):
        if layer:
            v = propagate(v, 1)
        ref = collision_reference(v)
        assert abs(collision_probability(v) - ref) <= 1e-13 * abs(ref), (n, layer)


def test_propagate_layer_count_bookkeeping():
    v = propagate(initial_label_vector(3), 2)
    assert v.layers == 2
    w = propagate(v, 1)
    assert w.layers == 3


# -- dense oracle cross-checks ----------------------------------------------------------

@pytest.mark.parametrize(
    "n,layers", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3), (6, 2)]
)
def test_propagated_z_matches_dense_second_moment(n, layers):
    m = dense_second_moment(n, layers)
    z_dense = dense_collision(m, n)
    z_prop = collision_probability(propagate(initial_label_vector(n), layers))
    assert z_dense == pytest.approx(z_prop, abs=1e-10)


def test_dense_zero_layers():
    m = dense_second_moment(3, 0)
    assert dense_collision(m, 3) == pytest.approx(1.0)


def test_monte_carlo_agrees():
    n, layers = 3, 2
    z = collision_probability(propagate(initial_label_vector(n), layers))
    est, se = monte_carlo_collision(n, layers, 1500, RngStream(51, "mc"))
    assert abs(est - z) <= 5 * se
    assert se < 0.05


# -- anti-concentration depth -------------------------------------------------------------

def test_depth_n2_is_one_layer():
    res = depth_to_anticoncentrate(2, epsilon=0.01)
    assert res.n_l_star == 1
    assert res.z_trace[0] == pytest.approx(1.0)


def test_depth_unreached_within_budget():
    res = depth_to_anticoncentrate(6, epsilon=0.01, max_layers=1)
    assert res.n_l_star is None


def test_depth_epsilon_validation():
    with pytest.raises(DomainError):
        depth_to_anticoncentrate(3, epsilon=0.0)


@pytest.mark.parametrize("max_layers", [0, -1])
def test_depth_max_layers_validation(max_layers):
    with pytest.raises(DomainError, match="max_layers"):
        check_depth(3, 0.01, max_layers)
    with pytest.raises(DomainError, match="max_layers"):
        depth_to_anticoncentrate(3, epsilon=0.01, max_layers=max_layers)


def test_fit_log_depth_recovers_exact_data():
    ns = np.array([2, 4, 8, 16])
    depths = 3.0 * np.log(ns) + 1.5
    fit = fit_log_depth(ns, depths)
    assert fit.a == pytest.approx(3.0)
    assert fit.b == pytest.approx(1.5)
    assert fit.r_squared == pytest.approx(1.0)
    with pytest.raises(DomainError):
        fit_log_depth([3], [1.0])
