"""Exception types shared across the package, and the check of a count field."""

import numbers


class ConfigurationError(ValueError):
    """Invalid user-supplied configuration (bad spec, bad parameters)."""


class ParseError(ValueError):
    """Malformed input file; the message names the offending line."""


class NumericError(ArithmeticError):
    """Numerical failure (e.g. a covariance that cannot be factorized).

    When raised from a fitting loop, ``trace`` holds the iteration records
    produced up to the failure.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


def check_count(name, value, low):
    """Raise ``ConfigurationError`` unless ``value`` is an integer (a Python
    or numpy one) of at least ``low``; used by every count field."""
    if not isinstance(value, numbers.Integral) or value < low:
        raise ConfigurationError(f"{name} must be >= {low} and an integer, got {value!r}")
