"""Circuit families and dense statevector simulation.

Two families: parametrized Pauli-rotation circuits over a generator set
(each gate is exp(+i theta P)), and brick-layer circuits of Haar-random
2-qubit blocks where the bond containing qubit 1 carries an SP(2) block and
every other bond an O(4) block, which keeps the composite in SP(d/2).

Statevector layout follows kernels: qubit j (1-based, leftmost tensor
factor) sits at dense bit position n - j.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DomainError, check_bytes, has_type, read_fields, read_kind
from .lie_closure import GeneratorSet, prop2_generators, theorem1_generators
from .pauli import PauliString, check_dense
from .sampler import BLOCK_GROUPS, RngStream, as_generator, sample_block


@dataclass(frozen=True)
class Rotation:
    """One gate exp(+i theta * generator); the generator must be Hermitian."""

    generator: PauliString
    theta: float


@dataclass(frozen=True, eq=False)
class HaarBlock:
    """A 4x4 block on ``qubits`` = (i, j), 1-based, i the leftmost factor.

    ``matrix`` is the resolved Haar draw; None means not yet resolved
    (serialized circuits resolve from their seed in gate order).
    """

    qubits: tuple
    group: str
    matrix: np.ndarray | None = None


@dataclass
class CircuitSpec:
    n: int
    gates: list
    seed: int | None = None
    layers: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        for g in self.gates:
            if isinstance(g, Rotation):
                if g.generator.n != self.n:
                    raise DomainError(
                        f"rotation generator on {g.generator.n} qubits in an "
                        f"n = {self.n} circuit"
                    )
                if g.generator.phase_exp % 2:
                    raise DomainError(
                        f"rotation generator {g.generator} is not Hermitian"
                    )
                if not math.isfinite(g.theta):
                    raise DomainError(f"rotation angle {g.theta} is not finite")
            elif isinstance(g, HaarBlock):
                if g.group not in BLOCK_GROUPS:
                    raise DomainError(f"unknown block group {g.group!r}")
                i, j = g.qubits
                if not (1 <= i <= self.n and 1 <= j <= self.n and i != j):
                    raise DomainError(f"block qubits {g.qubits} out of range")
                if g.matrix is not None and g.matrix.shape != (4, 4):
                    raise DomainError(f"block matrix shape {g.matrix.shape}")
            else:
                raise DomainError(f"unknown gate {g!r}")

    def gate_count(self) -> int:
        return len(self.gates)


@dataclass
class StateVector:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.ascontiguousarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n,):
            raise DomainError(
                f"amplitude count {self.amplitudes.shape} != (2**{self.n},)"
            )

    @classmethod
    def basis(cls, n: int, index: int = 0) -> "StateVector":
        check_basis_index(n, index)
        amp = np.zeros(2**n, dtype=complex)
        amp[index] = 1.0
        return cls(n, amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def check_basis_index(n: int, index: int) -> None:
    """0 <= index < 2**n, decided by bit length."""
    if not (index >= 0 and int(index).bit_length() <= n):
        raise DomainError(f"basis index {index} out of range for n = {n}")


def initial_state(n: int, index: int = 0) -> StateVector:
    return StateVector.basis(n, index)


# ---------------------------------------------------------------------------
# builders

def rotation_block(gens: GeneratorSet, thetas) -> CircuitSpec:
    """One rotation per generator, in enumeration order."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (len(gens.generators),):
        raise DomainError(
            f"got {thetas.size} angles for {len(gens.generators)} generators"
        )
    gates = [Rotation(g, float(t)) for g, t in zip(gens.generators, thetas)]
    return CircuitSpec(gens.n, gates)


def theorem1_gate_count(n: int) -> int:
    return 3 * n - 2


def build_theorem1_block(n: int, thetas) -> CircuitSpec:
    """One block of the symplectic-universal chain family: 3n - 2 rotations,
    one independent angle each."""
    return rotation_block(theorem1_generators(n), thetas)


def build_prop2_block(n: int, thetas) -> CircuitSpec:
    """One block over the bond family (3n - 2 rotations). For n >= 3 the
    family is unitary-universal and generic angles leave the symplectic
    group; at n = 2 it generates sp(2) and every block is exactly symplectic."""
    return rotation_block(prop2_generators(n), thetas)


def concat(circuits) -> CircuitSpec:
    """Stack circuits back to front: the first list entry acts first."""
    circuits = list(circuits)
    if not circuits:
        raise DomainError("nothing to concatenate")
    n = circuits[0].n
    if any(c.n != n for c in circuits):
        raise DomainError("qubit count mismatch in concat")
    return CircuitSpec(n, [g for c in circuits for g in c.gates])


def brick_layer(n: int) -> list:
    """The (bond, group) blocks of one brick layer in gate order: odd bonds
    (1,2), (3,4), ... then even bonds (2,3), (4,5), ..., bond i joining qubits
    i and i + 1; the bond containing qubit 1 is SP(2), every other O(4)."""
    return [(i, "sp2" if i == 1 else "o4") for start in (1, 2) for i in range(start, n, 2)]


def build_bricklayer(n: int, layers: int, rng) -> CircuitSpec:
    """``layers`` brick layers of Haar 2-qubit blocks, drawn in gate order."""
    if n < 2:
        raise DomainError(f"brick-layer needs n >= 2, got {n}")
    if layers < 0:
        raise DomainError(f"negative layer count {layers}")
    gen = as_generator(rng)
    gates = [HaarBlock((i, i + 1), group, sample_block(group, gen))
             for _ in range(layers) for i, group in brick_layer(n)]
    return CircuitSpec(n, gates, layers=layers)


# ---------------------------------------------------------------------------
# simulation

def _apply_inplace(circ: CircuitSpec, amp: np.ndarray, check_norm: bool) -> None:
    n = circ.n
    for g in circ.gates:
        if isinstance(g, Rotation):
            kernels.pauli_rotation(amp, *g.generator.dense_action(), g.theta)
        else:
            if g.matrix is None:
                raise DomainError(
                    f"unresolved Haar block on {g.qubits}; build with an rng "
                    "or load from JSON with a seed"
                )
            i, j = g.qubits
            gate = np.ascontiguousarray(g.matrix, dtype=complex)
            kernels.apply_gate_2q(amp, gate, n - i, n - j)
        if check_norm and abs(np.linalg.norm(amp) - 1.0) > 1e-12:
            raise DomainError("statevector norm drifted past 1e-12")


def check_statevector(n: int) -> None:
    """Capacity check of ``apply``: per amplitude the input and working states
    and one gate's temporaries, 72 B by tracemalloc at n = 16."""
    check_bytes(f"the statevector at n = {n}", 80, 2, n)


def apply(circ: CircuitSpec, psi: StateVector) -> StateVector:
    if circ.n != psi.n:
        raise DomainError(f"circuit n = {circ.n} vs state n = {psi.n}")
    check_statevector(circ.n)
    amp = psi.amplitudes.copy()
    unit = abs(np.linalg.norm(amp) - 1.0) <= 1e-12
    _apply_inplace(circ, amp, check_norm=unit)
    return StateVector(circ.n, amp)


def to_unitary(circ: CircuitSpec) -> np.ndarray:
    """Dense (2^n, 2^n) matrix of the whole circuit, applied once to the identity."""
    check_dense(circ.n)
    u = np.eye(2**circ.n, dtype=complex)
    _apply_inplace(circ, u, check_norm=False)
    return u


def pauli_apply(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """Dense P|v> without materializing the matrix."""
    if vec.shape != (2**p.n,):
        raise DomainError(f"vector length {vec.shape} != 2**{p.n}")
    source, phases = p.dense_action()
    return phases * vec[source]


def pauli_expectation(psi: StateVector, p: PauliString) -> complex:
    """<psi|P|psi>; real when P is Hermitian."""
    if p.n != psi.n:
        raise DomainError(f"operator n = {p.n} vs state n = {psi.n}")
    return complex(np.vdot(psi.amplitudes, pauli_apply(p, psi.amplitudes)))


# ---------------------------------------------------------------------------
# JSON interface

_GATE_FIELDS = {
    "rot": {"type": str, "pauli": str, "theta": float},
    "haar": {"type": str, "qubits": list, "group": str},
}


def circuit_from_json(source) -> CircuitSpec:
    """Parse {n, gates, seed?, layers?}; Haar blocks are resolved from the seed
    in gate order, so the same document always yields the same circuit. Key
    and type errors are reported here; CircuitSpec and sample_block check the
    values."""
    data = json.loads(source) if isinstance(source, (str, bytes)) else source
    read_fields(data, "circuit document", {"n": int, "gates": list},
                {"seed": int, "layers": int})
    for field in ("seed", "layers"):
        if data.get(field, 0) < 0:
            raise DomainError(f"bad circuit document: {field} must be at least 0")
    for k, g in enumerate(data["gates"]):
        where = f"circuit document: gates[{k}]"
        kind = read_kind(g, where, "type", _GATE_FIELDS)
        read_fields(g, where, _GATE_FIELDS[kind])
        if kind == "haar" and not (
            len(g["qubits"]) == 2 and all(has_type(q, int) for q in g["qubits"])
        ):
            raise DomainError(f"bad {where}: qubits must be two integers")
    seed = data.get("seed")
    needs_seed = any(g["type"] == "haar" for g in data["gates"])
    if needs_seed and seed is None:
        raise DomainError("circuits with Haar blocks need a top-level seed")
    gen = RngStream(seed, "circuit").generator() if needs_seed else None
    gates = []
    for g in data["gates"]:
        if g["type"] == "rot":
            gates.append(Rotation(PauliString.from_label(g["pauli"]), float(g["theta"])))
        else:
            gates.append(HaarBlock(tuple(g["qubits"]), g["group"],
                                   sample_block(g["group"], gen)))
    return CircuitSpec(data["n"], gates, seed=seed, layers=data.get("layers"))


def circuit_to_json(circ: CircuitSpec) -> dict:
    gates = []
    has_haar = False
    for g in circ.gates:
        if isinstance(g, Rotation):
            gates.append(
                {"type": "rot", "pauli": str(g.generator), "theta": g.theta}
            )
        else:
            has_haar = True
            gates.append(
                {"type": "haar", "qubits": list(g.qubits), "group": g.group}
            )
    if has_haar and circ.seed is None:
        raise DomainError(
            "cannot serialize resolved Haar blocks without a seed; rebuild "
            "the circuit from a seeded JSON document"
        )
    doc = {"n": circ.n, "gates": gates}
    if circ.seed is not None:
        doc["seed"] = circ.seed
    if circ.layers is not None:
        doc["layers"] = circ.layers
    return doc
