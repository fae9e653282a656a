"""Circuit builders and the dense simulator against expm/kron oracles."""

import json

import numpy as np
import pytest
from scipy.linalg import expm

from spcirc.circuit import (
    CircuitSpec,
    HaarBlock,
    Rotation,
    StateVector,
    apply,
    build_bricklayer,
    build_prop2_block,
    build_theorem1_block,
    check_statevector,
    circuit_from_json,
    circuit_to_json,
    concat,
    initial_state,
    pauli_apply,
    pauli_expectation,
    theorem1_gate_count,
    to_unitary,
)
from spcirc.errors import CapacityError, DomainError
from spcirc.lie_closure import theorem1_generators
from spcirc.pauli import PauliString, to_dense
from spcirc.sampler import (
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
    return expm(1j * theta * to_dense(PauliString.from_label(label)))


# -- conventions ------------------------------------------------------------

def test_y_rotation_convention():
    # exp(i theta Y)|0> = cos(theta)|0> - sin(theta)|1>
    theta = 0.3
    out = apply(CircuitSpec(1, (rot("Y", theta),)), initial_state(1))
    assert out.amplitudes[0] == pytest.approx(np.cos(theta))
    assert out.amplitudes[1] == pytest.approx(-np.sin(theta))


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


def test_rotation_requires_hermitian_generator():
    with pytest.raises(DomainError):
        CircuitSpec(2, (rot("iXI", 0.1),))


def test_apply_equals_unitary_action():
    gen = RngStream(31, "circuit").generator()
    circ = build_bricklayer(3, 2, RngStream(32, "circuit"))
    psi = gen.standard_normal(8) + 1j * gen.standard_normal(8)
    psi /= np.linalg.norm(psi)
    u = to_unitary(circ)
    out = apply(circ, StateVector(3, psi))
    assert np.allclose(out.amplitudes, u @ psi, atol=1e-11)


def unitary_by_columns(circ):
    """The per-column definition: column k is the circuit applied to |k>."""
    return np.column_stack([apply(circ, initial_state(circ.n, k)).amplitudes
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
    circ = build_theorem1_block(3, np.linspace(0.1, 0.9, theorem1_gate_count(3)))
    out = apply(circ, initial_state(3, 5))
    assert out.norm() == pytest.approx(1.0, abs=1e-12)


# -- builders ------------------------------------------------------------------

def test_theorem1_block_is_symplectic():
    for n in (2, 3, 4):
        k = theorem1_gate_count(n)
        assert k == 3 * n - 2
        thetas = np.linspace(0.2, 1.1, k)
        u = to_unitary(build_theorem1_block(n, thetas))
        assert is_unitary(u)
        assert is_symplectic(u)


def test_stacked_theorem1_blocks_stay_symplectic():
    n = 3
    gen = RngStream(33, "circuit").generator()
    blocks = [
        build_theorem1_block(n, gen.uniform(0, 2 * np.pi, theorem1_gate_count(n)))
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
            build_prop2_block(3, gen.uniform(0, 2 * np.pi, 7)) for _ in range(3)
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
            build_prop2_block(2, gen.uniform(0, 2 * np.pi, 4)) for _ in range(4)
        ]
        assert symplectic_defect(to_unitary(concat(blocks))) <= 1e-10


def test_bricklayer_structure_and_symplecticity():
    for n, layers in [(2, 1), (3, 2), (4, 2), (5, 1)]:
        circ = build_bricklayer(n, layers, RngStream(36, (n, layers)))
        bonds_per_layer = (n + 1) // 2 - 1 + n // 2  # odd start + even start
        assert len(circ.gates) == layers * bonds_per_layer
        for g in circ.gates:
            assert isinstance(g, HaarBlock)
            assert g.group == ("sp2" if g.qubits[0] == 1 else "o4")
        u = to_unitary(circ)
        assert is_unitary(u)
        assert is_symplectic(u)


def test_haar_block_groups():
    sp_block = build_bricklayer(2, 1, RngStream(37, "b"))
    assert sp_block.gates[0].group == "sp2"
    assert is_symplectic(to_unitary(sp_block))
    # an o4 block away from qubit 1 is real orthogonal on its factor
    circ = build_bricklayer(3, 1, RngStream(38, "b"))
    o_gate = [g for g in circ.gates if g.group == "o4"]
    assert o_gate and np.allclose(o_gate[0].matrix.imag, 0, atol=1e-12)
    m = o_gate[0].matrix.real
    assert np.allclose(m @ m.T, np.eye(4), atol=1e-10)


# -- validation and capacity ------------------------------------------------------

def test_gate_validation():
    with pytest.raises(DomainError):
        CircuitSpec(2, (HaarBlock((1, 3), "sp2"),))
    with pytest.raises(DomainError):
        CircuitSpec(2, (HaarBlock((1, 1), "sp2"),))
    with pytest.raises(DomainError):
        CircuitSpec(2, (HaarBlock((1, 2), "su4"),))
    with pytest.raises(DomainError):
        CircuitSpec(2, (rot("XIX", 0.1),))
    with pytest.raises(DomainError):
        CircuitSpec(0, ())


def test_capacity_limits():
    # 80 B per amplitude against 1 GiB: the statevector bound is n = 23
    check_statevector(23)
    with pytest.raises(CapacityError):
        check_statevector(24)
    with pytest.raises(CapacityError):
        to_unitary(CircuitSpec(13, ()))


def test_basis_state_bounds():
    with pytest.raises(DomainError):
        initial_state(2, 4)
    s = initial_state(2, 3)
    assert s.amplitudes[3] == 1.0


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
        assert np.allclose(pauli_apply(p, v), to_dense(p) @ v, atol=1e-12)


def test_pauli_expectation():
    psi = initial_state(2, 0)
    assert pauli_expectation(psi, PauliString.from_label("ZI")) == pytest.approx(1.0)
    assert pauli_expectation(psi, PauliString.from_label("XI")) == pytest.approx(0.0)
    om = PauliString(2, 1, 1, 1)  # i Y1, the symplectic form
    assert np.allclose(omega(4), to_dense(om).real)
