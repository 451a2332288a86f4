"""Exception types shared across the package, the two scalar checks, and
the one reader of input files.

Every scalar field is stored through one of the two checks, so each kind
of scalar has one rule and one message:

* a count goes through ``check_count``: an integer (Python or numpy, not a
  bool) of at least a stated bound, stored as a plain ``int``;
* a real goes through ``check_real``: a real number (Python or numpy, not a
  bool) that is ``>= 0`` (``inf`` allowed), or ``> 0`` and finite when
  ``positive``, stored as a plain ``float``.  NaN fails both forms, and an
  integer too large for a float counts as the infinity of its sign
  (``as_float``), as ``1e400`` does.

Every input file (a data CSV, its labels, a model snapshot, a trace) is
decoded by ``read_text``, so all four take the same text and a file that
is not UTF-8 is a ``ParseError`` naming it.
"""

import math
import numbers
from pathlib import Path


class ConfigurationError(ValueError):
    """Invalid user-supplied configuration (bad spec, bad parameters)."""


class ParseError(ValueError):
    """Malformed input file; the message names the file, the offending line
    or both."""


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
    ``inf`` included, or, when ``positive``, ``> 0`` and finite, once
    ``as_float`` has made it a float.  Every real-valued field is stored
    through it."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    number = as_float(value) if real else math.nan
    if not (0 < number < math.inf if positive else number >= 0):
        rule = "positive and finite" if positive else ">= 0"
        raise ConfigurationError(f"{name} must be {rule}, got {value!r}")
    return number


def as_float(value):
    """``float(value)``, except that an integer too large for a float is
    the infinity of its sign, as the literal ``1e400`` is, so that each
    field's finiteness check names it."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def read_text(path):
    """The text of the file at ``path``, decoded as UTF-8 with a leading
    byte-order mark dropped: the one reader of every input file.  Bytes that
    are not UTF-8 raise ``ParseError`` naming the file and the first bad
    byte."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text.removeprefix("\ufeff")
