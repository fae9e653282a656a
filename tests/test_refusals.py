"""Refusals of bad arguments that no other test reaches: one table of
(call, the DomainError message it raises), and the CLI options that only
make sense together."""

import re

import numpy as np
import pytest

from spcirc.brauer import BrauerDiagram, compose, monte_carlo_twirl, represent
from spcirc.circuit import CircuitSpec, build_bricklayer, circuit_to_json, concat, rotation_block
from spcirc.cli import main
from spcirc.errors import DomainError, read_fields, read_kind
from spcirc.gp_stats import StateSpec, run_gp_experiment
from spcirc.lie_closure import prop2_generators, so_chain_generators, theorem1_generators
from spcirc.moment import dense_second_moment, derive_transfer
from spcirc.pauli import PauliString, commutes, members
from spcirc.sampler import RngStream, is_in_sp_algebra_dense, sample_block, symplectic_defect


def gen():
    return RngStream(47, "refusals").generator()


REFUSALS = [
    ("CircuitSpec-gate", lambda: CircuitSpec(2, ["H"]), "unknown gate 'H'"),
    ("rotation_block", lambda: rotation_block(theorem1_generators(3), [0.1]),
     "got 1 angles for"),
    ("concat-empty", lambda: concat([]), "nothing to concatenate"),
    ("concat-n", lambda: concat([CircuitSpec(2, ()), CircuitSpec(3, ())]),
     "qubit count mismatch in concat"),
    ("build_bricklayer-n", lambda: build_bricklayer(1, 1, gen()),
     "brick-layer needs n >= 2, got 1"),
    ("build_bricklayer-layers", lambda: build_bricklayer(3, -1, gen()),
     "negative layer count -1"),
    ("circuit_to_json", lambda: circuit_to_json(build_bricklayer(2, 1, gen())),
     "cannot serialize resolved Haar blocks without a seed"),
    ("read_fields", lambda: read_fields([1], "doc", {"n": int}),
     "bad doc: expected an object, got list"),
    ("read_kind", lambda: read_kind({"type": "x"}, "doc", "type", {"rot": 1, "haar": 2}),
     "bad doc: 'type' must be one of rot, haar"),
    ("StateSpec-statevector", lambda: StateSpec(2, statevector=np.ones(3)),
     "statevector shape (3,)"),
    ("StateSpec-density", lambda: StateSpec(2, density=np.eye(2)), "density shape (2, 2)"),
    ("StateSpec-n", lambda: StateSpec(0, statevector=np.array([1.0])), "need n >= 1, got 0"),
    ("run_gp_experiment", lambda: run_gp_experiment(
        [StateSpec.computational_basis(2, 0), StateSpec.computational_basis(3, 0)],
        PauliString.from_label("IY"), 20, RngStream(47)), "states must share n"),
    ("prop2_generators", lambda: prop2_generators(1), "need n >= 2, got 1"),
    ("so_chain_generators", lambda: so_chain_generators(0), "need n >= 1, got 0"),
    ("derive_transfer", lambda: derive_transfer("u4"),
     "no label transfer for block group 'u4'"),
    ("dense_second_moment", lambda: dense_second_moment(1, 1), "need n >= 2, got 1"),
    ("PauliString.single-kind", lambda: PauliString.single(3, 1, "W"),
     "unknown Pauli kind 'W'"),
    ("PauliString.single-identity", lambda: PauliString.single(3, 1, "I"),
     "a single factor is X, Y or Z, not the identity I"),
    ("members-form", lambda: members(1, "u"), "unknown form 'u'"),
    ("commutes", lambda: commutes(PauliString.from_label("X"), PauliString.from_label("XX")),
     "size mismatch: 1 vs 2"),
    ("members-n", lambda: members(0, "sp"), "need n >= 1, got 0"),
    ("sample_block", lambda: sample_block("x9", gen()), "unknown block group 'x9'"),
    ("symplectic_defect", lambda: symplectic_defect(np.eye(3)),
     "symplectic predicate needs even dimension, got 3"),
    ("is_in_sp_algebra_dense", lambda: is_in_sp_algebra_dense(np.eye(3)),
     "symplectic predicate needs even dimension, got 3"),
    ("compose", lambda: compose(BrauerDiagram.identity(1), BrauerDiagram.identity(2), 2.0),
     "order mismatch: 1 vs 2"),
    ("represent", lambda: represent(BrauerDiagram.identity(1), 2, "x"), "unknown form 'x'"),
    ("monte_carlo_twirl", lambda: monte_carlo_twirl(np.eye(4), 1, 4, "x", 1, gen()),
     "unknown group 'x'"),
]


@pytest.mark.parametrize("call,message", [pytest.param(c, m, id=i) for i, c, m in REFUSALS])
def test_a_bad_argument_is_refused_with_its_message(call, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        call()


def test_one_line_is_none_for_a_diagram_that_is_no_permutation():
    assert BrauerDiagram.from_pairs(2, [(1, 2), (3, 4)]).one_line() is None
    assert BrauerDiagram.from_permutation((2, 1)).one_line() == (2, 1)


@pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
def test_a_generators_file_needs_the_custom_set(tmp_path, capsys, dry_run):
    """A named set would ignore the file, yet the envelope would echo its
    path; the dry run refuses it as the run does, with exit 1."""
    labels = tmp_path / "g.json"
    labels.write_text('["XI", "ZZ"]')
    argv = ["closure", "--set", "theorem1", "--n", "2", "--generators", str(labels), *dry_run]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--generators FILE goes with --set custom, and only with it" in captured.err
