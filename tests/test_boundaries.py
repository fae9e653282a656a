"""Module boundaries: no module of the package reads another module's
underscore name, so each module's private helpers can change freely, no
function keeps hidden state in a module-level container, and no module
imports what would start a process or load OpenSSL."""

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


# a run is one process: no subprocess; and no hashlib, whose OpenSSL costs
# megabytes of RSS at start-up (the build id is a zlib.crc32)
BANNED_IMPORTS = {"subprocess", "hashlib"}


def imported_modules(tree) -> set:
    """Top-level names of the modules ``import`` and ``from ... import`` read."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_subprocess_or_hashlib():
    found = {path.stem: imported_modules(ast.parse(path.read_text())) & BANNED_IMPORTS
             for path in sorted(SRC.glob("*.py"))}
    assert {stem: names for stem, names in found.items() if names} == {}


def test_the_import_check_sees_both_forms():
    tree = ast.parse("import os, subprocess as sp\nfrom hashlib import sha256\n"
                     "from . import pauli\n")
    assert imported_modules(tree) == {"os", "subprocess", "hashlib"}


# module.name -> why that module-level container may be written by a function
MODULE_STATE = {}
MUTATORS = {"append", "extend", "insert", "update", "setdefault", "add", "pop", "popitem",
            "clear", "remove", "discard"}


def root_name(node):
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_state_writes(tree) -> set:
    """Module-level names a function writes into: an item or attribute stored
    or deleted, a mutating method called, or a ``global`` statement. A name
    the function binds itself (and does not declare global) is its own."""
    module_names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        module_names |= {name.id for target in targets if target is not None
                         for name in ast.walk(target) if isinstance(name, ast.Name)}
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        declared = {name for node in ast.walk(func) if isinstance(node, ast.Global)
                    for name in node.names}
        own = {node.arg for node in ast.walk(func.args) if isinstance(node, ast.arg)}
        own |= {node.id for node in ast.walk(func)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        written = set(declared)
        for node in ast.walk(func):
            if (isinstance(node, (ast.Subscript, ast.Attribute))
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                written.add(root_name(node.value))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                written.add(root_name(node.func.value))
        found |= written - (own - declared)
    return found & module_names


def test_no_function_writes_module_state():
    found = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in module_state_writes(ast.parse(path.read_text()))}
    assert found == set(MODULE_STATE)


def test_the_check_sees_each_kind_of_write():
    tree = ast.parse(
        "_A, _B, _C, _D = {}, [], 0, {}\n"
        "def f(k, _D):\n"
        "    global _C\n"
        "    _A[k] = 1\n"
        "    _B.append(k)\n"
        "    _D[k] = 1\n"  # the argument, not the module's _D
        "    local = {}\n"
        "    local[k] = 1\n"
    )
    assert module_state_writes(tree) == {"_A", "_B", "_C"}
