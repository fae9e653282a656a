"""Circuit families and dense statevector simulation.

Two families: parametrized Pauli-rotation circuits over a generator set
(each gate is exp(+i theta P)), and brick layers of Haar-random 2-qubit
blocks (``sampler.brick_layer``), whose composite lies in SP(d/2).

Every Haar block holds its drawn 4x4 matrix: the builders and the JSON
reader draw each block before the CircuitSpec is made, which checks each
gate once (a block must be unitary to 1e-12) and keeps a read-only copy of
each block's matrix, so running it checks nothing and nothing can change it.

Statevector layout follows kernels: qubit j (1-based, leftmost tensor
factor) sits at dense bit position n - j. A rotation is
cos(theta) psi + i sin(theta) P psi with P psi from ``PauliString.apply``,
and a Haar block is ``kernels.apply_gate`` on its two bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import kernels
from .errors import (DomainError, check_basis_index, check_bytes, has_type, np, read_fields,
                     read_kind)
from .pauli import PauliString, check_dense
from .sampler import BLOCK_GROUPS, RngStream, brick_layer, sample_block


@dataclass(frozen=True)
class Rotation:
    """One gate exp(+i theta * generator); the generator must be Hermitian."""

    generator: PauliString
    theta: float


@dataclass(frozen=True, eq=False)
class HaarBlock:
    """A 4x4 block on ``qubits`` = (i, j), 1-based, i the leftmost factor.

    ``matrix`` is the block's Haar draw from ``group``, a read-only copy once
    a circuit holds it; serialized circuits draw it from their seed in gate order.
    """

    qubits: tuple
    group: str
    matrix: np.ndarray


@dataclass(frozen=True)
class CircuitSpec:
    n: int
    gates: tuple
    seed: int | None = None
    layers: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        gates = []
        for g in self.gates:
            if isinstance(g, Rotation):
                if g.generator.n != self.n:
                    raise DomainError(
                        f"rotation generator on {g.generator.n} qubits in an "
                        f"n = {self.n} circuit"
                    )
                if g.generator.phase_exp % 2:
                    raise DomainError(f"rotation generator {g.generator} is not Hermitian")
                if not math.isfinite(g.theta):
                    raise DomainError(f"rotation angle {g.theta} is not finite")
            elif isinstance(g, HaarBlock):
                if g.group not in BLOCK_GROUPS:
                    raise DomainError(f"unknown block group {g.group!r}")
                i, j = g.qubits
                if not (1 <= i <= self.n and 1 <= j <= self.n and i != j):
                    raise DomainError(f"block qubits {g.qubits} out of range")
                m = np.asarray(g.matrix)
                if m.shape != (4, 4):
                    raise DomainError(f"block matrix shape {m.shape}, not (4, 4)")
                if not np.abs(m.conj().T @ m - np.eye(4)).max() <= 1e-12:  # NaN fails too
                    raise DomainError(f"block on qubits {g.qubits} is not unitary to 1e-12")
                g = HaarBlock(g.qubits, g.group, m.astype(complex))  # the circuit's own copy
                g.matrix.flags.writeable = False
            else:
                raise DomainError(f"unknown gate {g!r}")
            gates.append(g)
        object.__setattr__(self, "gates", tuple(gates))


def initial_state(n: int, index: int = 0) -> np.ndarray:
    """The amplitudes of the computational basis state |index>."""
    check_basis_index(n, index)
    amp = np.zeros(2**n, dtype=complex)
    amp[index] = 1.0
    return amp


# ---------------------------------------------------------------------------
# builders

def rotation_block(gens, thetas) -> CircuitSpec:
    """One rotation per generator of the ``lie_closure.GeneratorSet`` ``gens``,
    in enumeration order, one independent angle each."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape != (len(gens.generators),):
        raise DomainError(
            f"got {thetas.size} angles for {len(gens.generators)} generators"
        )
    gates = [Rotation(g, float(t)) for g, t in zip(gens.generators, thetas)]
    return CircuitSpec(gens.n, gates)


def concat(circuits) -> CircuitSpec:
    """Stack circuits back to front: the first list entry acts first."""
    circuits = list(circuits)
    if not circuits:
        raise DomainError("nothing to concatenate")
    n = circuits[0].n
    if any(c.n != n for c in circuits):
        raise DomainError("qubit count mismatch in concat")
    return CircuitSpec(n, [g for c in circuits for g in c.gates])


def build_bricklayer(n: int, layers: int, rng: np.random.Generator) -> CircuitSpec:
    """``layers`` brick layers of Haar 2-qubit blocks, drawn in gate order."""
    if n < 2:
        raise DomainError(f"brick-layer needs n >= 2, got {n}")
    if layers < 0:
        raise DomainError(f"negative layer count {layers}")
    gates = [HaarBlock(qubits, group, sample_block(group, rng))
             for _ in range(layers) for half in brick_layer(n) for qubits, group in half]
    return CircuitSpec(n, gates, layers=layers)


# ---------------------------------------------------------------------------
# simulation

def _rotate(amp: np.ndarray, p: PauliString, theta: float) -> None:
    """In place exp(i theta P) amp for a Hermitian P, along axis 0 of amp.
    P amp lives only in this call, so it is freed before the next gate."""
    turned = p.apply(amp, 1j * np.sin(theta))
    amp *= np.cos(theta)
    amp += turned


def _apply_inplace(circ: CircuitSpec, amp: np.ndarray) -> None:
    """Run the gates in place on the C-contiguous amp, with no check of its own."""
    n = circ.n
    for g in circ.gates:
        if isinstance(g, Rotation):
            _rotate(amp, g.generator, g.theta)
        else:
            i, j = g.qubits
            kernels.apply_gate(amp, g.matrix, (n - i, n - j))


def check_statevector(n: int) -> None:
    """Capacity check of ``apply``: per amplitude the caller's input (16 B)
    and a working state and one rotation's P psi (16 B each) with a little
    slack. Beside the input, tracemalloc measures 36.1 B at n = 16 and
    32.3 B at n = 20: those two arrays and about 270 KiB of numpy's
    iteration buffers."""
    check_bytes(f"the statevector at n = {n}", 56, 2, n)


def apply(circ: CircuitSpec, psi: np.ndarray) -> np.ndarray:
    """The amplitudes of circ|psi> as a new complex array; psi is not written."""
    check_statevector(circ.n)
    amp = np.array(psi, dtype=complex)
    if amp.shape != (2**circ.n,):
        raise DomainError(f"amplitude shape {amp.shape} != ({2**circ.n},) for n = {circ.n}")
    _apply_inplace(circ, amp)
    return amp


def to_unitary(circ: CircuitSpec) -> np.ndarray:
    """Dense (2^n, 2^n) matrix of the whole circuit, applied once to the identity."""
    check_dense(circ.n)
    u = np.eye(2**circ.n, dtype=complex)
    _apply_inplace(circ, u)
    return u


def pauli_apply(p: PauliString, vec: np.ndarray) -> np.ndarray:
    """Dense P|v> without materializing the matrix."""
    if vec.shape != (2**p.n,):
        raise DomainError(f"vector length {vec.shape} != 2**{p.n}")
    return p.apply(vec)


def pauli_expectation(psi: np.ndarray, p: PauliString) -> complex:
    """<psi|P|psi> for the amplitudes psi; real when P is Hermitian."""
    return complex(np.vdot(psi, pauli_apply(p, psi)))


# ---------------------------------------------------------------------------
# JSON interface

_GATE_FIELDS = {
    "rot": {"type": str, "pauli": str, "theta": float},
    "haar": {"type": str, "qubits": list, "group": str},
}


def circuit_from_json(source) -> CircuitSpec:
    """Parse {n, gates, seed?, layers?}; Haar blocks are drawn from the seed
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
    gates = [{"type": "rot", "pauli": str(g.generator), "theta": g.theta}
             if isinstance(g, Rotation)
             else {"type": "haar", "qubits": list(g.qubits), "group": g.group}
             for g in circ.gates]
    if circ.seed is None and any(isinstance(g, HaarBlock) for g in circ.gates):
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
