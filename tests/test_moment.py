"""Second-moment label propagator against frozen, per-block and dense oracles.

The 6x6 sp2 transfer matrix below is a frozen external reference value; the
test asserts the first-principles derivation reproduces it entry-by-entry in
the documented lexicographic label order (II, IS, IB, SI, SS, SB), row a =
expansion of the twirled input label a.
"""

import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

import spcirc
from spcirc import brauer, circuit, kernels, moment
from spcirc.errors import CapacityError, DomainError
from spcirc.moment import (
    ALPHA_RAW,
    FACTORS,
    LABEL_ALPHABETS,
    LABEL_OPS,
    LabelVector,
    block_alphabet,
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
    qubit_operator,
    z_haar,
)
from spcirc.kernels import transfer_apply
from spcirc.sampler import BLOCK_GROUPS, RngStream

_, ALPHA_REST = LABEL_ALPHABETS["sp2"]

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
    # three float64 copies of the largest tensor fit the byte limit up to n = 31
    check_propagation(31)
    with pytest.raises(CapacityError):
        initial_label_vector(32)


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


def apply_block_reference(ref, bond, group):
    """One block on bond (bond, bond + 1), 1-based, on a per-qubit label
    vector ``ref`` = (alphabets, coeffs): a stacked matmul over the qubits
    left and right of the bond with the label-basis block transfer."""
    alphabets, coeffs = ref
    in_a, in_b = alphabets[bond - 1], alphabets[bond]
    row = block_transfer(group, product(in_a, in_b), product(*LABEL_ALPHABETS[group]))
    dims = [len(a) for a in alphabets]
    left = int(np.prod(dims[: bond - 1], dtype=np.int64))
    right = int(np.prod(dims[bond + 1 :], dtype=np.int64))
    out = np.matmul(row.T, coeffs.reshape(left, len(in_a) * len(in_b), right))
    alphabets = alphabets[: bond - 1] + LABEL_ALPHABETS[group] + alphabets[bond + 1 :]
    return alphabets, out.reshape(-1)


def label_reference(n, layers):
    """The per-qubit label propagation after each of ``layers`` layers."""
    ref = ((ALPHA_RAW,) * n, np.ones(1))
    for _ in range(layers):
        for bond, group in circuit.brick_layer(n):
            ref = apply_block_reference(ref, bond, group)
        yield ref


def label_expansion(name, alphabet):
    """Coefficients of the one-qubit operator ``name`` over the labels of
    ``alphabet``; the operator must lie in their span."""
    basis = np.stack([LABEL_OPS[a].ravel() for a in alphabet], axis=1)
    op = qubit_operator(name).ravel()
    c = np.linalg.solve(basis.T @ basis, basis.T @ op)
    assert np.abs(basis @ c - op).max() <= 1e-12, (name, alphabet)
    return c


def expand_to_labels(v, label_alphabets):
    """The tensor ``v`` over per-qubit labels: each axis value, a product of
    one-qubit operators, is replaced by the product of their label
    expansions, and the axes are contracted one by one from the last."""
    t = v.coeffs.reshape(v.dims())
    qubit = v.n
    for axis in reversed(range(len(v.alphabets))):
        alphabet = v.alphabets[axis]
        width = len(alphabet[0])
        qubit -= width
        alphas = label_alphabets[qubit : qubit + width]
        rows = []
        for entry in alphabet:
            row = np.ones(1)
            for name, alpha in zip(entry, alphas):
                row = np.kron(row, label_expansion(name, alpha))
            rows.append(row)
        t = np.tensordot(t, np.array(rows), axes=([axis], [0]))
        t = np.moveaxis(t, -1, axis)  # the label axis takes the axis's place
    return t.reshape(-1)


@pytest.mark.parametrize("n", range(2, 11))
def test_propagate_matches_per_block_reference(n):
    """Every layer up to 20, including odd n and n = 2, against the
    per-qubit label propagation: the diagram-basis tensor, expanded into
    per-qubit labels, equals the label vector."""
    v = initial_label_vector(n)
    for layer, (alphabets, coeffs) in enumerate(label_reference(n, 20), start=1):
        v = propagate(v, 1)
        assert v.layers == layer
        got = expand_to_labels(v, alphabets)
        scale = np.abs(coeffs).max()
        assert np.abs(got - coeffs).max() <= 1e-12 * scale, (n, layer)


def collision_reference(alphabets, coeffs):
    """z of a per-qubit label vector contracted one qubit at a time from
    qubit 1, one tensordot each: the reverse order of
    ``collision_probability``, which starts at the last axis."""
    t = coeffs.reshape([len(a) for a in alphabets])
    for alpha in alphabets:
        t = np.tensordot(contraction_values(alpha), t, axes=([0], [0]))
    return float(t)


@pytest.mark.parametrize("n", range(2, 11))
def test_collision_matches_per_qubit_contraction(n):
    v = initial_label_vector(n)
    refs = label_reference(n, 20)
    ref = collision_reference((ALPHA_RAW,) * n, np.ones(1))
    for layer in range(21):
        if layer:
            v = propagate(v, 1)
            ref = collision_reference(*next(refs))
        assert abs(collision_probability(v) - ref) <= 1e-13 * abs(ref), (n, layer)


def test_largest_tensor_is_the_checked_size(monkeypatch):
    """No block step holds more than 3^(floor(n/2) + 1) coefficients, the
    size ``check_propagation`` counts, and from n = 3 some step does."""
    steps = []

    def record(x, t, left, din, right):
        steps.append(left * max(din, t.shape[0]) * right)
        return transfer_apply(x, t, left, din, right)

    monkeypatch.setattr(kernels, "transfer_apply", record)
    for n in range(2, 13):
        steps.clear()
        propagate(initial_label_vector(n), 4)
        assert max(steps) <= 3 ** (n // 2 + 1), n
        assert max(steps) == 3 ** (n // 2 + 1) or n == 2, n


def test_diagram_factors_rebuild_the_diagrams():
    """Each diagram's one-qubit factors, kron'd and reordered copy-major,
    give ``brauer.represent`` of the diagram back."""
    for group, form in (("sp2", "sp"), ("o4", "o")):
        for entry, sigma in zip(block_alphabet(group), brauer.enumerate_diagrams(2)):
            op = np.kron(qubit_operator(entry[0]), qubit_operator(entry[1]))
            op = op.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
            assert np.abs(op - brauer.represent(sigma, 4, form)).max() <= 1e-12


def test_block_weights_fix_the_diagrams():
    """The twirl is a projection: a block's own diagrams are fixed points."""
    for group in ("sp2", "o4"):
        w = block_transfer(group, block_alphabet(group))
        assert np.abs(w - np.eye(3)).max() <= 1e-12


def copy_major(a, b):
    """The product of one-qubit operators ``a`` (first qubit) and ``b`` as a
    16 x 16 copy-major two-copy operator of the block's two qubits."""
    op = np.kron(qubit_operator(a), qubit_operator(b))
    return op.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


@pytest.mark.parametrize("group", ["sp2", "o4"])
def test_block_transfer_matches_the_gram_inverse_twirl(group):
    """Every W-table row against ``brauer.twirl``, which projects through
    the inverse Gram matrix of the diagrams rather than through the
    superoperator's normal equations."""
    names = list(LABEL_OPS) + list(FACTORS)
    for a, b in product(names, names):
        w = block_transfer(group, [(a, b)])
        c = brauer.twirl(copy_major(a, b), 2, 4, BLOCK_GROUPS[group]).coefficients
        assert np.abs(w[0] - c).max() <= 1e-12, (group, a, b)


def test_the_cache_stops_growing():
    """Past n = 6 a depth sweep meets no block step, transfer or z
    contraction that the sweeps over n = 2..6 have not cached."""
    for n in range(2, 7):
        depth_to_anticoncentrate(n)
    keys = set(moment._TRANSFER_CACHE)
    for n in range(7, 25):
        depth_to_anticoncentrate(n)
    assert set(moment._TRANSFER_CACHE) - keys == set()


def test_import_computes_nothing():
    """Importing the module builds no diagram and fills no cache; the
    wrapped ``brauer.represent`` does see the calls made on first use."""
    code = (
        "import sys\n"
        "from spcirc import brauer\n"
        "assert 'spcirc.moment' not in sys.modules\n"
        "calls = []\n"
        "represent = brauer.represent\n"
        "brauer.represent = lambda *a, **k: calls.append(a) or represent(*a, **k)\n"
        "from spcirc import moment\n"
        "assert calls == [] and moment._TRANSFER_CACHE == {}, (calls, moment._TRANSFER_CACHE)\n"
        "moment.qubit_operator('pair.sp')\n"
        "assert len(calls) == 1, calls\n"
    )
    src = os.path.dirname(os.path.dirname(spcirc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr


def test_label_vector_checks_its_axes():
    with pytest.raises(DomainError, match="cover"):
        LabelVector(3, ((("raw",),),) * 2, np.ones(1))
    with pytest.raises(DomainError, match="length"):
        LabelVector(2, (block_alphabet("o4"),), np.ones(2))
    with pytest.raises(DomainError):
        qubit_operator("u9.id.0")


def test_label_basis_input_propagates():
    """A vector over per-qubit labels is a valid input as well: its layers
    match the label propagation expanded back."""
    (alphabets, coeffs), = label_reference(4, 1)
    v = LabelVector(4, tuple(tuple((a,) for a in alpha) for alpha in alphabets), coeffs)
    refs = list(label_reference(4, 3))
    w = propagate(v, 2)
    alphabets, coeffs = refs[-1]
    assert np.abs(expand_to_labels(w, alphabets) - coeffs).max() <= 1e-12


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


def test_depth_past_the_label_engine():
    """n_L* for n = 17..20, where the per-qubit label vector would not fit
    the byte limit."""
    stars = [depth_to_anticoncentrate(n, epsilon=0.01).n_l_star for n in range(17, 21)]
    assert stars == [18, 18, 18, 18]


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


def test_layer_counts_past_maxsize_are_refused_by_name():
    with pytest.raises(DomainError, match="sys.maxsize"):
        check_depth(3, 0.01, sys.maxsize + 1)
    with pytest.raises(DomainError, match="sys.maxsize"):
        check_propagation(3, sys.maxsize + 1)
    check_propagation(3, sys.maxsize)


def test_depth_refuses_an_epsilon_below_the_resolution():
    """epsilon/2 must exceed max_layers * n * 2**-52, so the bound moves
    with the layer budget and with n."""
    check_depth(10, 0.01, 500)
    check_depth(10, 1e-13, 20)  # 20 * 10 * 2**-52 = 4.4e-14
    for n, epsilon, max_layers in [(10, 1e-14, 500), (10, 1e-13, 25), (12, 1e-12, 200)]:
        with pytest.raises(DomainError, match="resolution"):
            check_depth(n, epsilon, max_layers)


def test_fit_log_depth_recovers_exact_data():
    ns = np.array([2, 4, 8, 16])
    depths = 3.0 * np.log(ns) + 1.5
    fit = fit_log_depth(ns, depths)
    assert fit.a == pytest.approx(3.0)
    assert fit.b == pytest.approx(1.5)
    assert fit.r_squared == pytest.approx(1.0)
    with pytest.raises(DomainError):
        fit_log_depth([3], [1.0])
