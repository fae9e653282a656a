"""Error taxonomy shared by the library and the CLI.

DomainError maps to CLI exit code 1 (bad parameters, mismatched sizes),
CapacityError to exit code 2 (request exceeds a byte or count budget).
``read_fields`` and ``read_kind`` check the keys and value types of a JSON
input document, the one check the CLI's JSON inputs get before the domain
checks of the library.

This module also binds ``np``, the numpy every other module of the package
imports from here (``from .errors import np``).
"""

import importlib
import sys

# ``spcirc.cli`` registers numpy without executing it, so that a plan that
# reads no array never loads it. On Python 3.11 an ``import numpy`` statement
# reads the registered module's ``__spec__``, which executes numpy; a lookup
# in ``sys.modules`` reads no attribute, so numpy runs at its first use.
np = sys.modules.get("numpy") or importlib.import_module("numpy")

# Bytes one call may hold at once.
MEMORY_LIMIT = 2**30


class DomainError(ValueError):
    """Input outside the operation's domain (bad n, size mismatch, bad config)."""


class CapacityError(RuntimeError):
    """Request exceeds a configured memory/size budget."""


def check_bytes(what: str, nbytes: int, base: int = 1, exponent: int = 0) -> None:
    """CapacityError when ``what`` holds more than MEMORY_LIMIT bytes at once:
    nbytes * base**exponent. Bit lengths decide first, so a vast size costs
    O(1) and is reported as 2**k, never in digits."""
    low = nbytes.bit_length() - 1 + exponent * (base.bit_length() - 1)
    if low >= MEMORY_LIMIT.bit_length():  # the size is at least 2**low
        raise CapacityError(f"{what} needs at least 2**{low} bytes; the limit is {MEMORY_LIMIT}")
    size = nbytes * base**exponent  # low is small, so this is cheap
    if size > MEMORY_LIMIT:
        raise CapacityError(f"{what} needs {size} bytes; the limit is {MEMORY_LIMIT}")


def check_basis_index(n: int, index: int) -> None:
    """0 <= index < 2**n, decided by bit length, so it allocates nothing."""
    if not (index >= 0 and int(index).bit_length() <= n):
        raise DomainError(f"basis index {index} out of range for n = {n}")


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def has_type(value, kind: type) -> bool:
    """Whether a JSON value is of ``kind``: int is a JSON integer (not a bool,
    not 4.0), float any JSON number, and str, list and dict what they say."""
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def read_fields(doc, where: str, required: dict, optional: dict | None = None) -> dict:
    """Return ``doc`` after checking that it is a JSON object with every
    ``required`` key, no key outside ``required`` and ``optional``, and each
    value of the type its key maps to (see ``has_type``). A failure raises
    DomainError("bad <where>: ...")."""
    optional = optional or {}
    if not isinstance(doc, dict):
        raise DomainError(f"bad {where}: expected an object, got {type(doc).__name__}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise DomainError(f"bad {where}: missing {', '.join(map(repr, missing))}")
    for key, value in doc.items():
        kind = required.get(key, optional.get(key))
        if kind is None:
            raise DomainError(f"bad {where}: unknown key {key!r}")
        if not has_type(value, kind):
            raise DomainError(
                f"bad {where}: {key!r} must be {_TYPE_NAMES[kind]}, got {repr(value)[:40]}"
            )
    return doc


def read_kind(doc, where: str, key: str, kinds) -> str:
    """The string ``doc[key]`` of a JSON object, which must be one of ``kinds``;
    it names the fields ``read_fields`` then checks."""
    kind = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise DomainError(f"bad {where}: {key!r} must be one of {', '.join(kinds)}")
    return kind
