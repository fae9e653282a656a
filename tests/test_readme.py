"""Every code reference of README.md resolves.

A reference is the start of a backticked token that reads ``module.attr…`` or
``spcirc.module…`` for a module of ``src/spcirc``: ``circuit.apply``,
``pauli.symplectic_form(n)`` or ``spcirc.moment``. The module is imported and
each further part resolved with ``getattr``, so a rename that leaves README
behind fails here. The ``per_layer`` metric names of BENCHMARK.json, such as
``kernels.closure_round.self_s``, read like references and are exempt.
"""

import importlib
import json
import pathlib
import re

import spcirc

ROOT = pathlib.Path(__file__).parent.parent
MODULES = {path.stem for path in pathlib.Path(spcirc.__file__).parent.glob("*.py")}
METRICS = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def readme_references() -> set:
    refs = set()
    for token in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        m = re.match(r"(spcirc\.)?(\w+)((?:\.\w+)*)", token)
        if m and m[2] in MODULES and (m[1] or m[3]) and m[0] not in METRICS:
            refs.add(m[0])
    return refs


def resolves(ref: str) -> bool:
    module, *attrs = ref.removeprefix("spcirc.").split(".")
    obj = importlib.import_module(f"spcirc.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_code_references_resolve():
    refs = readme_references()
    assert len(refs) >= 30  # the pattern still finds the README's references
    assert sorted(ref for ref in refs if not resolves(ref)) == []


def test_resolves_refuses_a_missing_name():
    assert resolves("circuit.apply") and resolves("spcirc.moment")
    assert not resolves("moment.FACTORS") and not resolves("pauli.multiply")
