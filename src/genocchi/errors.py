"""Exception types shared across the package, and the exit statuses and
error lines the command line maps them to.

Precondition violations (bad arguments) raise plain ValueError; the classes
here mark conditions that indicate either a broken mathematical identity or
a refused computation.
"""

import sys

USAGE_ERROR = 2
RESOURCE_ERROR = 3
INTERNAL_ERROR = 4
BROKEN_PIPE = 141


class InexactDivisionError(ArithmeticError):
    """An exact polynomial division left a nonzero remainder.

    Every division performed by this package is backed by an identity that
    guarantees exactness, so this exception signals a broken identity and
    must never be silenced.
    """


class InternalInconsistencyError(RuntimeError):
    """A computed value contradicts a theorem the package relies on."""


class ResourceLimitError(RuntimeError):
    """The requested index exceeds the configured enumeration bound."""


def complain(line: str) -> None:
    """Write one line to standard error."""
    # None when the process starts with fd 2 closed: print would use stdout
    if sys.stderr is not None:
        print(line, file=sys.stderr)


def internal_error(exc: Exception) -> int:
    """Report a fault of the program itself in one line; its exit status."""
    complain(f"internal error: {type(exc).__name__}: {exc}")
    return INTERNAL_ERROR
