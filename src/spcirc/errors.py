"""Error taxonomy shared by the library and the CLI.

DomainError maps to CLI exit code 1 (bad parameters, mismatched sizes),
CapacityError to exit code 2 (request exceeds the configured dense budget),
ConsistencyError to exit code 3.
"""

# Bytes one dense table or output array may take.
MEMORY_LIMIT = 2**30


class DomainError(ValueError):
    """Input outside the operation's domain (bad n, size mismatch, bad config)."""


class CapacityError(RuntimeError):
    """Request exceeds a configured memory/size budget."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (e.g. a basis re-expansion residual);
    indicates a bug, not bad user input."""


def check_bytes(nbytes: int, what: str) -> None:
    """CapacityError when ``what`` would take more than MEMORY_LIMIT bytes."""
    if nbytes > MEMORY_LIMIT:
        raise CapacityError(f"{what} needs {nbytes} bytes; the limit is {MEMORY_LIMIT}")
