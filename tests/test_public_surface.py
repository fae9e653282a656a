"""Every public name of ``spcirc`` has a reader.

A public name is a top-level function, class or constant of a module in
``src/spcirc`` whose name has no leading underscore, or such a method of a
public class. It counts as read when a node of the package outside its own
definition loads it. A module-level name ``m.name`` is read as a bare name in
``m``, as ``from .m import name``, as the attribute ``m.name``, or as a string
constant equal to ``name`` (``cli`` looks up generator sets and
``ClosureResult.dimension`` by name). So ``np.multiply`` reads no
``pauli.multiply``. A method is matched by bare name: it counts as read
wherever an attribute or a string constant of that name is loaded.

A public name that no package code reads is kept only as a key of
``ORACLES``, whose value says what reads it instead: a test that uses it as an
oracle, a release criterion, a README section, an open ROADMAP item or the
benchmark. A key that is no longer public, or that package code now reads,
fails too, so the list stays exact.

The package's classes are plain classes. Two are values, which compare,
hash and print by their fields and refuse assignment; the results that hold
arrays or large sets compare by identity.
"""

import ast
import pathlib
from collections import Counter

import pytest

import spcirc
from spcirc.gp_stats import StateSpec
from spcirc.lie_closure import closure, theorem1_generators
from spcirc.pauli import PauliString
from spcirc.sampler import RngStream

SRC = pathlib.Path(spcirc.__file__).parent

ORACLES = {
    # oracles of the release criteria (tests/test_acceptance.py) and the tests
    "brauer.BrauerDiagram.mirror": "test_brauer.py::test_mirror_is_dense_transpose",
    "brauer.monte_carlo_twirl": "criterion 4",
    "circuit.rotation_block": "criterion 6",
    "circuit.concat": "criterion 6",
    "circuit.to_unitary": "criterion 6",
    "circuit.circuit_to_json": "test_circuit.py::test_json_round_trip_rotations_and_blocks",
    "gp_stats.StateSpec.density_matrix": "test_gp_stats.py::test_twisted_overlap_frozen_values",
    "moment.qubit_operator": "test_moment.py::test_diagram_factors_rebuild_the_diagrams",
    "moment.derive_transfer": "criterion 5",
    "moment.collision_trace": "test_moment.py::test_z_decreases_towards_haar",
    "moment.dense_second_moment": "criterion 10",
    "moment.dense_collision": "criterion 10",
    "moment.monte_carlo_collision": "test_moment.py::test_monte_carlo_agrees",
    "pauli.commutator": "test_pauli.py::test_commutator_direction",
    "pauli.strings": "test_pauli.py::test_sp_basis",
    "pauli.to_dense": "test_pauli.py::test_commutes_matches_dense",
    "pauli.to_dense_kron": "test_pauli.py::test_dense_matches_kron_exhaustive_n2",
    "sampler.is_symplectic": "test_sampler.py::test_sample_sp_membership",
    "sampler.is_unitary": "test_sampler.py::test_sample_unitary_membership",
    "sampler.is_in_sp_algebra_dense": "test_sampler.py::test_is_in_sp_algebra_dense",
    # documented
    "brauer.compose": "README, Conventions",
    # open ROADMAP items
    "circuit.pauli_expectation": "ROADMAP item 2",
    "gp_stats.wick_fourth_moments": "ROADMAP item 6",
    # the benchmark
    "kernels.HAS_NUMBA": "perfbench/run.py",
}


def _reads(tree, module: str):
    """(where, name) of every load under ``tree`` in ``module``, with repeats.
    ``where`` is the module a module-level name is read from: ``module`` for a
    bare name, ``m`` for ``m.name`` and ``from .m import name``. Every
    attribute also yields (".", attr), which reads methods, and every string
    constant ("", value), which reads any name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield module, node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield ".", node.attr
            if isinstance(node.value, ast.Name):
                yield node.value.id, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module.rpartition(".")[2], alias.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield "", node.value


def _public(module: str, tree):
    """(qualified name, read key, definition node) of each public name; the
    key is (module, name) for a module-level name and (".", name) for a
    method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", (module, node.name), node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", (".", item.name), item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield f"{module}.{name.id}", (module, name.id), node


def unread(trees: dict) -> set:
    """Qualified public names of the modules ``trees`` (stem -> ast) that no
    node outside their own definition reads."""
    loads = Counter(read for module, tree in trees.items() for read in _reads(tree, module))

    def count(reads, key):
        return reads[key] + reads["", key[1]]

    return {
        qualified
        for module, tree in trees.items()
        for qualified, key, node in _public(module, tree)
        if count(loads, key) == count(Counter(_reads(node, module)), key)
    }


def test_every_public_name_has_a_reader():
    found = unread({path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")})
    assert found == set(ORACLES), (
        f"read by no package code and not in ORACLES: {sorted(found - set(ORACLES))}; "
        f"in ORACLES but no longer public or now read: {sorted(set(ORACLES) - found)}"
    )


def test_the_check_sees_each_kind_of_read():
    trees = {
        "a": ast.parse("def f(): pass\ndef g(): return g()\nX, Y, Z, W = 1, 2, 3, 4\n"
                       "V = Z\n"
                       "class C:\n    def m(self): pass\n    def k(self): pass\n"
                       "    def _h(self): pass\n"),
        "b": ast.parse("from .a import C, f\nfrom . import a\nvalue = getattr(C, 'Y')\n"
                       "C().m()\nprint(a.W, V)\nnp.g(np.X)\n"),
    }
    # g reads only itself, _h is private, V in b is not a's V, and np.g is not a.g
    assert unread(trees) == {"a.g", "a.X", "a.V", "a.C.k", "b.value"}


@pytest.mark.parametrize("make,other,fields", [
    pytest.param(lambda: PauliString(3, 5, 1, 6), PauliString(3, 5, 1, 3),
                 ("n", "x_mask", "z_mask", "phase_exp"), id="PauliString"),
    pytest.param(lambda: RngStream(7, ("gp", 2)), RngStream(7, ("gp", 3)),
                 ("seed", "stream_id"), id="RngStream"),
    pytest.param(lambda: closure(theorem1_generators(3)), None, None, id="ClosureResult"),
    pytest.param(lambda: StateSpec.computational_basis(2, 1), None, None, id="StateSpec"),
])
def test_values_compare_by_fields_and_results_by_identity(make, other, fields):
    a, b = make(), make()
    if fields is None:
        assert a == a and a != b
        return
    assert a is not b and a == b and hash(a) == hash(b) and a != other
    assert repr(a) == f"{type(a).__name__}({', '.join(f'{f}={getattr(a, f)!r}' for f in fields)})"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(other, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a == b
