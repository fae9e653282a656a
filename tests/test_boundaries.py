"""Module boundaries: no module of the package reads another module's
underscore name, so each module's private helpers can change freely."""

import ast
import pathlib

import spcirc

SRC = pathlib.Path(spcirc.__file__).parent


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def foreign_private_reads(tree) -> list:
    """``from .module import _name`` and ``module._name`` for a sibling module
    imported by ``from . import module``."""
    siblings, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = [alias.name for alias in node.names]
            if node.module is None:
                siblings.update(alias.asname or alias.name for alias in node.names)
            found += [f"{node.module}.{name}" for name in names if private(name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    found = {path.stem: foreign_private_reads(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == {}


def test_the_check_sees_both_kinds_of_read():
    tree = ast.parse("from . import brauer\nfrom .pauli import _X, Y\nbrauer._cache.clear()\n")
    assert foreign_private_reads(tree) == ["pauli._X", "brauer._cache"]
