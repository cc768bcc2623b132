"""Error taxonomy shared across the package.

Four failure classes cover everything user-visible: bad call arguments,
violated mathematical preconditions, numerical blow-ups during a run, and
malformed input files.  The CLI maps these onto process exit codes.
"""

from __future__ import annotations


class FosboError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(FosboError, ValueError):
    """An argument is structurally wrong (bad shape, bad enum value, zero batch)."""


class PreconditionViolation(FosboError, ValueError):
    """A documented mathematical precondition does not hold."""


class NumericFailure(FosboError, ArithmeticError):
    """A computation produced non-finite values or diverged.

    ``context`` carries iterate information (outer step k, variable, ...)
    and, for solver runs, the partial trace collected before the abort.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = dict(context)


class ParseError(FosboError, ValueError):
    """An input file is malformed; ``offset`` is a byte offset where known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DataError(FosboError, ValueError):
    """Input data is structurally valid but unusable (empty, inconsistent grids,
    non-positive values where a log is required, ...)."""


class ConfigError(FosboError, ValueError):
    """An experiment configuration fails schema validation.

    ``path`` is a dotted location inside the config ("schedule.k0") so the
    user can find the offending entry.
    """

    def __init__(self, message: str, path: str = ""):
        if path:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path


# Process exit codes used by the command line interface.
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_DATA = 3
