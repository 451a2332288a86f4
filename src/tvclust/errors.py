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
    """``value`` as a plain ``int``; raises ``ConfigurationError`` unless it
    is an integer (a Python or numpy one, not a bool) of at least ``low``.
    Every count field is stored through it, so a config's ``to_dict`` is
    JSON-ready."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ConfigurationError(f"{name} must be >= {low} and an integer, got {value!r}")
    return int(value)
