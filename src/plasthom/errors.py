"""Exception types shared across the package, and the checks of scalar inputs.

Each checker returns its value unchanged (no ``float()`` conversion, so
outputs render the value as given) or raises ``ConfigurationError`` naming
the input.  Booleans and strings always fail; numpy scalars pass.
"""

import math
import numbers

INT64_LIMIT = 2**63  # seeds and cell indices are cast to int64


class ConfigurationError(ValueError):
    """Invalid input data: bad dimensions, parameter ranges, or run configs."""


class NumericalError(RuntimeError):
    """A solver failed to converge or a numerical budget was exceeded.

    Carries optional diagnostics so callers can report where the failure
    happened (time step, residual, partial results).
    """

    def __init__(self, message, step=None, residual=None, partial=None):
        super().__init__(message)
        self.step = step
        self.residual = residual
        self.partial = partial


def finite_number(value, name):
    """A real number that converts to a finite float; NaN and the infinities fail."""
    try:
        finite = isinstance(value, numbers.Real) and not isinstance(value, bool) \
            and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return value


def positive_number(value, name):
    """A finite real number above zero."""
    if not finite_number(value, name) > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value


def positive_int(value, name):
    """An integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return value


def array_size(count, name):
    """An entry count of an 8-byte array whose size in bytes is below 2^63,
    which numpy can address; checked before the allocation, which numpy
    would refuse with a bare ValueError."""
    if not 8 * count < INT64_LIMIT:  # NaN fails too
        raise ConfigurationError(f"{name} asks for 2**60 or more array entries "
                                 "(2**63 or more bytes)")
    return count


def valid_seed(value, name):
    """An integer in [0, 2^63): the range of numpy's ``default_rng`` and of
    the int64 cast of the cell hash."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or not 0 <= value < INT64_LIMIT:
        raise ConfigurationError(f"{name} must be an integer in [0, 2**63), got {value!r}")
    return value
