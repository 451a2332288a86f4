"""Exception types shared across the package, and the two scalar checks.

Every scalar field is stored through one of the two, so each kind of
scalar has one rule and one message:

* a count goes through ``check_count``: an integer (Python or numpy, not a
  bool) of at least a stated bound, stored as a plain ``int``;
* a real goes through ``check_real``: a real number (Python or numpy, not a
  bool) that is ``>= 0`` (``inf`` allowed), or ``> 0`` and finite when
  ``positive``, stored as a plain ``float``.  NaN fails both forms.
"""

import math
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


def check_real(name, value, positive=False):
    """``value`` as a plain ``float``; raises ``ConfigurationError`` unless it
    is a real number (a Python or numpy one, not a bool) that is ``>= 0``,
    ``inf`` included, or, when ``positive``, ``> 0`` and finite.  Every
    real-valued field is stored through it."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (0 < value < math.inf if positive else value >= 0)):
        rule = "positive and finite" if positive else ">= 0"
        raise ConfigurationError(f"{name} must be {rule}, got {value!r}")
    return float(value)
