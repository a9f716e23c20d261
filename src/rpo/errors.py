"""Exception hierarchy shared across the package, and the exit code of each.

The CLI maps failures onto exit codes: config problems exit 1, data
problems exit 2, numeric failures exit 3. ``FAILURES`` is the one table of
that mapping; the CLI and the per-seed error wrapping both read it.
"""

import numpy as np


class RpoError(Exception):
    """Base class for package-specific failures."""


class ConfigError(RpoError):
    """Invalid or unparseable run configuration."""


class DataError(RpoError):
    """Malformed input data, impossible split, or I/O problem."""


class NumericError(RpoError):
    """Numerical failure: non-finite loss, singular covariance, etc."""


EXIT_USAGE = 1  # usage or config error
EXIT_DATA = 2
EXIT_NUMERIC = 3

# One row per failure category: the category, the exception types that fall
# in it, and the CLI exit code. The first matching row wins, so the rows run
# from specific to general (ConfigError and NumericError are RpoErrors, and
# LinAlgError is a ValueError).
FAILURES = (
    (ConfigError, (ConfigError,), EXIT_USAGE),
    (NumericError, (NumericError, FloatingPointError, np.linalg.LinAlgError), EXIT_NUMERIC),
    (DataError, (RpoError, OSError, ValueError), EXIT_DATA),
)
HANDLED = tuple(t for _, types, _ in FAILURES for t in types)


def classify(exc: BaseException) -> tuple[type[RpoError], int]:
    """The failure category of ``exc`` and its exit code.

    A type outside the table is a plain ``RpoError``, exit 2.
    """
    for category, types, code in FAILURES:
        if isinstance(exc, types):
            return category, code
    return RpoError, EXIT_DATA
