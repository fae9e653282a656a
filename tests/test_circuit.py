"""Circuit builders and the dense simulator against expm/kron oracles."""

import dataclasses
import json

import numpy as np
import pytest
from scipy.linalg import expm

from spcirc.circuit import (
    CircuitSpec,
    HaarBlock,
    Rotation,
    _rotate,
    apply,
    build_bricklayer,
    check_statevector,
    circuit_from_json,
    circuit_to_json,
    concat,
    initial_state,
    pauli_apply,
    pauli_expectation,
    rotation_block,
    to_unitary,
)
from spcirc.errors import CapacityError, DomainError
from spcirc.lie_closure import prop2_generators, theorem1_generators
from spcirc.pauli import PauliString, to_dense, to_dense_kron
from spcirc.sampler import (
    BLOCK_GROUPS,
    RngStream,
    is_symplectic,
    is_unitary,
    omega,
    sample_block,
    symplectic_defect,
)


def rot(label, theta):
    return Rotation(PauliString.from_label(label), theta)


def dense_rotation(label, theta, n):
    return expm(1j * theta * to_dense_kron(PauliString.from_label(label)))


def random_batch(n, shape, gen):
    return gen.standard_normal((2**n,) + shape) + 1j * gen.standard_normal((2**n,) + shape)


# -- conventions ------------------------------------------------------------

def test_y_rotation_convention():
    # exp(i theta Y)|0> = cos(theta)|0> - sin(theta)|1>
    theta = 0.3
    out = apply(CircuitSpec(1, (rot("Y", theta),)), initial_state(1))
    assert out[0] == pytest.approx(np.cos(theta))
    assert out[1] == pytest.approx(-np.sin(theta))


def test_z1_rotation_phases():
    # qubit 1 is the MSB: Z1 gives e^{i theta} on |00>,|01>, e^{-i theta} on the rest
    theta = 0.7
    circ = CircuitSpec(2, (rot("ZI", theta),))
    u = to_unitary(circ)
    expected = np.diag(np.exp(1j * theta * np.array([1, 1, -1, -1])))
    assert np.allclose(u, expected, atol=1e-12)


@pytest.mark.parametrize("label", ["XI", "IY", "YY", "ZX", "-ZZ"])
def test_rotation_matches_expm(label):
    theta = 0.42
    circ = CircuitSpec(2, (rot(label, theta),))
    assert np.allclose(to_unitary(circ), dense_rotation(label, theta, 2), atol=1e-12)


def test_rotation_on_a_state_matches_expm():
    """Fixed labels, then seeded strings of every mask pattern: flips on runs
    of neighbouring axes, signs on x and non-x axes, both Hermitian phases."""
    gen = np.random.default_rng(36)
    strings = [PauliString.from_label(label) for label in ["XYZ", "ZZI", "IIY", "YIY", "ZIZ"]]
    for _ in range(60):
        n = int(gen.integers(1, 6))
        strings.append(PauliString(n, int(gen.integers(2**n)), int(gen.integers(2**n)),
                                   2 * int(gen.integers(2))))
    for p in strings:
        theta = gen.uniform(-np.pi, np.pi)
        psi = random_batch(p.n, (), gen)
        psi /= np.linalg.norm(psi)
        expected = expm(1j * theta * to_dense_kron(p)) @ psi
        got = apply(CircuitSpec(p.n, [Rotation(p, theta)]), psi)
        assert np.allclose(got, expected, atol=1e-13), p


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_rotation_on_a_batch_equals_single_vector_calls(shape):
    theta = -1.1
    gen = np.random.default_rng(46)
    for label in ["XYZI", "ZZIZ", "IIYI", "-YIXY", "IIII"]:
        p = PauliString.from_label(label)
        batch = random_batch(4, shape, gen)
        flat = batch.reshape(16, -1)
        singles = [np.ascontiguousarray(flat[:, k]) for k in range(flat.shape[1])]
        _rotate(batch, p, theta)
        for k, vec in enumerate(singles):
            _rotate(vec, p, theta)
            assert np.array_equal(flat[:, k], vec), (label, k)


def test_rotation_requires_hermitian_generator():
    with pytest.raises(DomainError):
        CircuitSpec(2, (rot("iXI", 0.1),))


def test_apply_equals_unitary_action():
    gen = RngStream(31, "circuit").generator()
    circ = build_bricklayer(3, 2, RngStream(32, "circuit").generator())
    psi = gen.standard_normal(8) + 1j * gen.standard_normal(8)
    psi /= np.linalg.norm(psi)
    u = to_unitary(circ)
    out = apply(circ, psi)
    assert np.allclose(out, u @ psi, atol=1e-11)


def test_apply_copies_the_amplitudes_and_refuses_other_shapes():
    circ = CircuitSpec(2, (rot("XY", 0.4),))
    psi = np.array([0.0, 1.0, 0.0, 0.0])
    out = apply(circ, psi)
    assert out.dtype == complex and out.shape == (4,)
    assert np.array_equal(psi, [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(out, to_unitary(circ)[:, 1], atol=1e-12)
    for bad in (np.zeros(8, dtype=complex), np.zeros((4, 1), dtype=complex)):
        with pytest.raises(DomainError, match=r"\(4,\)"):
            apply(circ, bad)
    with pytest.raises(DomainError):
        pauli_expectation(initial_state(3), PauliString.from_label("ZI"))


def unitary_by_columns(circ):
    """The per-column definition: column k is the circuit applied to |k>."""
    return np.column_stack([apply(circ, initial_state(circ.n, k))
                            for k in range(2**circ.n)])


def test_one_pass_unitary_matches_the_column_definition():
    gen = RngStream(33, "circuit").generator()
    for n in range(1, 7):
        gates = [rot("".join(gen.choice(list("IXYZ"), size=n)), float(gen.uniform(-3, 3)))
                 for _ in range(2 * n)]
        if n >= 2:  # blocks on neighbours and on qubits apart, either way round
            for group in ("sp2", "o4", "sp2"):
                i, j = map(int, gen.choice(np.arange(1, n + 1), size=2, replace=False))
                gates.append(HaarBlock((i, j), group, sample_block(group, gen)))
            gates += build_bricklayer(n, 1, gen).gates
        circ = CircuitSpec(n, gates)
        assert np.allclose(to_unitary(circ), unitary_by_columns(circ), rtol=0, atol=1e-12), n


def test_norm_preserved():
    circ = rotation_block(theorem1_generators(3),
                          np.linspace(0.1, 0.9, len(theorem1_generators(3).generators)))
    out = apply(circ, initial_state(3, 5))
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


# -- builders ------------------------------------------------------------------

def test_theorem1_block_is_symplectic():
    for n in (2, 3, 4):
        k = len(theorem1_generators(n).generators)
        assert k == 3 * n - 2
        thetas = np.linspace(0.2, 1.1, k)
        u = to_unitary(rotation_block(theorem1_generators(n), thetas))
        assert is_unitary(u)
        assert is_symplectic(u)


def test_stacked_theorem1_blocks_stay_symplectic():
    n = 3
    gen = RngStream(33, "circuit").generator()
    blocks = [
        rotation_block(theorem1_generators(n),
                       gen.uniform(0, 2 * np.pi, len(theorem1_generators(n).generators)))
        for _ in range(6)
    ]
    u = to_unitary(concat(blocks))
    assert is_symplectic(u)


def test_prop2_block_breaks_symplecticity_at_n3():
    # generators acting away from qubit 1 leave the symplectic algebra
    gen = RngStream(34, "circuit").generator()
    violations = 0
    for _ in range(20):
        blocks = [
            rotation_block(prop2_generators(3), gen.uniform(0, 2 * np.pi, 7)) for _ in range(3)
        ]
        if symplectic_defect(to_unitary(concat(blocks))) > 0.1:
            violations += 1
    assert violations == 20


def test_prop2_block_is_symplectic_at_n2():
    # at n = 2 every prop2 generator is an sp member, so these circuits are
    # exactly symplectic no matter the angles
    gen = RngStream(35, "circuit").generator()
    for _ in range(5):
        blocks = [
            rotation_block(prop2_generators(2), gen.uniform(0, 2 * np.pi, 4)) for _ in range(4)
        ]
        assert symplectic_defect(to_unitary(concat(blocks))) <= 1e-10


def test_bricklayer_structure_and_symplecticity():
    for n, layers in [(2, 1), (3, 2), (4, 2), (5, 1)]:
        circ = build_bricklayer(n, layers, RngStream(36, (n, layers)).generator())
        bonds_per_layer = (n + 1) // 2 - 1 + n // 2  # odd start + even start
        assert len(circ.gates) == layers * bonds_per_layer
        for g in circ.gates:
            assert isinstance(g, HaarBlock)
            assert g.group == ("sp2" if g.qubits[0] == 1 else "o4")
        u = to_unitary(circ)
        assert is_unitary(u)
        assert is_symplectic(u)


def test_haar_block_groups():
    sp_block = build_bricklayer(2, 1, RngStream(37, "b").generator())
    assert sp_block.gates[0].group == "sp2"
    assert is_symplectic(to_unitary(sp_block))
    # an o4 block away from qubit 1 is real orthogonal on its factor
    circ = build_bricklayer(3, 1, RngStream(38, "b").generator())
    o_gate = [g for g in circ.gates if g.group == "o4"]
    assert o_gate and np.allclose(o_gate[0].matrix.imag, 0, atol=1e-12)
    m = o_gate[0].matrix.real
    assert np.allclose(m @ m.T, np.eye(4), atol=1e-10)


# -- validation and capacity ------------------------------------------------------

def test_gate_validation():
    with pytest.raises(DomainError):
        CircuitSpec(2, (HaarBlock((1, 3), "sp2", np.eye(4)),))
    with pytest.raises(DomainError):
        CircuitSpec(2, (HaarBlock((1, 1), "sp2", np.eye(4)),))
    with pytest.raises(DomainError):
        CircuitSpec(2, (HaarBlock((1, 2), "su4", np.eye(4)),))
    # a block without its 4x4 draw is refused when the circuit is built
    for matrix in (None, np.eye(2)):
        with pytest.raises(DomainError, match="shape"):
            CircuitSpec(12, [HaarBlock((1, 2), "o4", matrix)])
    with pytest.raises(DomainError):
        CircuitSpec(2, (rot("XIX", 0.1),))
    with pytest.raises(DomainError):
        CircuitSpec(0, ())


def test_a_block_that_is_not_unitary_is_refused_when_the_circuit_is_built():
    gen = RngStream(46, "circuit").generator()
    drawn = sample_block("o4", gen)
    stretched = drawn.copy()
    stretched[:, 0] *= 1 + 1e-8
    nan = drawn.copy()
    nan[2, 3] = np.nan
    for matrix in (2 * np.eye(4), stretched, nan):
        with pytest.raises(DomainError, match=r"block on qubits \(2, 3\) is not unitary"):
            CircuitSpec(3, [rot("XYZ", 0.2), HaarBlock((2, 3), "o4", matrix)])
    # rounding far below the 1e-12 bound passes
    close = drawn.copy()
    close[:, 1] *= 1 + 5e-15
    assert 0 < np.abs(close.conj().T @ close - np.eye(4)).max() <= 1e-12
    assert np.array_equal(CircuitSpec(3, [HaarBlock((2, 3), "o4", close)]).gates[0].matrix, close)


def test_mixed_circuits_of_every_block_group_are_unitary():
    gen = RngStream(47, "circuit").generator()
    for n in (2, 3, 5):
        gates = []
        for group in BLOCK_GROUPS:
            i, j = map(int, gen.choice(np.arange(1, n + 1), size=2, replace=False))
            gates.append(HaarBlock((i, j), group, sample_block(group, gen)))
            gates.append(rot("".join(gen.choice(list("IXYZ"), size=n)), float(gen.uniform(-3, 3))))
        u = to_unitary(CircuitSpec(n, gates))
        assert np.abs(u.conj().T @ u - np.eye(2**n)).max() <= 1e-12, n


def test_a_circuit_cannot_change_after_it_is_built():
    gates = [rot("XY", 0.4)]
    circ = CircuitSpec(2, gates)
    assert circ.gates == (gates[0],) and isinstance(circ.gates, tuple)
    gates.append(HaarBlock((1, 2), "sp2", 2 * np.eye(4)))  # the caller's list is not read again
    assert len(circ.gates) == 1
    for field, value in (("gates", gates), ("n", 3), ("seed", 1), ("layers", 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(circ, field, value)


def test_a_built_block_is_a_read_only_copy():
    """A block checked when its circuit is built cannot be changed afterwards:
    the circuit's matrix refuses writes, and the caller's array stays its own."""
    circ = build_bricklayer(3, 1, RngStream(47, "frozen").generator())
    with pytest.raises(ValueError, match="read-only"):
        circ.gates[0].matrix[:] = 2 * np.eye(4)
    drawn = sample_block("o4", RngStream(47, "drawn").generator())
    original = drawn.copy()
    circ = CircuitSpec(3, [HaarBlock((2, 3), "o4", drawn)])
    drawn[:] = 2 * np.eye(4)  # the caller's array is neither aliased nor frozen
    assert np.array_equal(circ.gates[0].matrix, original)
    assert circ.gates[0].matrix.dtype == complex
    psi = apply(circ, initial_state(3))
    assert abs(np.linalg.norm(psi) - 1) <= 1e-12


def test_capacity_limits():
    # 56 B per amplitude against 1 GiB: the statevector bound is n = 24
    check_statevector(24)
    with pytest.raises(CapacityError):
        check_statevector(25)
    with pytest.raises(CapacityError):
        to_unitary(CircuitSpec(13, ()))


def test_basis_state_bounds():
    with pytest.raises(DomainError):
        initial_state(2, 4)
    s = initial_state(2, 3)
    assert s[3] == 1.0


# -- JSON round trip ----------------------------------------------------------------

def test_json_round_trip_rotations_and_blocks():
    src = {
        "n": 3,
        "seed": 11,
        "gates": [
            {"type": "rot", "pauli": "IYX", "theta": 0.25},
            {"type": "haar", "qubits": [1, 2], "group": "sp2"},
            {"type": "rot", "pauli": "-ZII", "theta": 1.5},
            {"type": "haar", "qubits": [2, 3], "group": "o4"},
        ],
    }
    circ = circuit_from_json(json.dumps(src))
    assert circ.n == 3 and len(circ.gates) == 4
    text = circuit_to_json(circ)
    again = circuit_from_json(text)
    assert np.allclose(to_unitary(circ), to_unitary(again), atol=1e-12)


def test_json_round_trip_keeps_layers():
    """A seeded brick-layer document with ``layers`` reads back as itself."""
    gates = [{"type": "haar", "qubits": [1, 2], "group": "sp2"},
             {"type": "haar", "qubits": [2, 3], "group": "o4"}] * 2
    src = {"n": 3, "gates": gates, "seed": 9, "layers": 2}
    circ = circuit_from_json(json.dumps(src))
    assert circ.layers == 2 and circuit_to_json(circ) == src
    again = circuit_from_json(json.dumps(circuit_to_json(circ)))
    assert np.array_equal(to_unitary(circ), to_unitary(again))


def test_json_same_seed_same_unitary():
    src = json.dumps(
        {"n": 2, "seed": 4, "gates": [{"type": "haar", "qubits": [1, 2], "group": "sp2"}]}
    )
    u1 = to_unitary(circuit_from_json(src))
    u2 = to_unitary(circuit_from_json(src))
    assert np.array_equal(u1, u2)


def test_json_validation():
    with pytest.raises(DomainError):
        circuit_from_json(json.dumps({"n": 2, "gates": [], "bogus": 1}))
    with pytest.raises(DomainError):
        circuit_from_json(
            json.dumps(
                {"n": 2, "gates": [{"type": "haar", "qubits": [1, 2], "group": "sp2"}]}
            )
        )  # haar gates need a seed
    with pytest.raises(DomainError):
        circuit_from_json(
            json.dumps({"n": 2, "gates": [{"type": "rot", "pauli": "XX"}]})
        )
    # integers must be JSON integers: no 3.0, no bool; qubits are one pair
    haar = {"type": "haar", "qubits": [1, 2], "group": "sp2"}
    for doc in [
        {"n": 3.0, "gates": []},
        {"n": 2, "seed": 1.0, "gates": [haar]},
        {"n": 2, "seed": True, "gates": [haar]},
        {"n": 3, "seed": 1, "gates": [dict(haar, qubits=[1, 2, 3])]},
    ]:
        with pytest.raises(DomainError):
            circuit_from_json(json.dumps(doc))


def test_json_negative_seed_is_refused_by_name():
    # refused before numpy's SeedSequence sees it, with or without a Haar block
    haar = {"type": "haar", "qubits": [1, 2], "group": "sp2"}
    for gates in ([haar], []):
        with pytest.raises(DomainError, match="seed must be at least 0"):
            circuit_from_json({"n": 2, "gates": gates, "seed": -1})
    assert circuit_from_json({"n": 2, "gates": [haar], "seed": 0}).seed == 0


# -- Pauli action helpers -------------------------------------------------------------

def test_pauli_apply_matches_dense():
    gen = RngStream(39, "circuit").generator()
    for label in ["XYZ", "IIZ", "YII", "-iZXY", "III"]:
        p = PauliString.from_label(label)
        v = gen.standard_normal(8) + 1j * gen.standard_normal(8)
        assert np.allclose(pauli_apply(p, v), to_dense_kron(p) @ v, atol=1e-12)


def test_pauli_expectation():
    psi = initial_state(2, 0)
    assert pauli_expectation(psi, PauliString.from_label("ZI")) == pytest.approx(1.0)
    assert pauli_expectation(psi, PauliString.from_label("XI")) == pytest.approx(0.0)
    om = PauliString(2, 1, 1, 1)  # i Y1, the symplectic form
    assert np.allclose(omega(4), to_dense(om).real)
