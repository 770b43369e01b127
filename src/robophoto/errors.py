"""The three root exceptions (an error's root decides its exit code) and the one input-number check."""

import sys


class UsageError(ValueError):
    """A flag value the command cannot use (exit 2)."""


class DatasetError(ValueError):
    """A malformed input: records, crops, model, threshold, sample or scenario files (exit 3)."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite (exit 4)."""


_FLOAT_MAX = sys.float_info.max


def checked_number(value, error: type[Exception], what: str, integer: bool = False):
    """value as a float (as an int if integer) when it is an int or, unless integer, a float,
    within the float range. Anything else raises the caller's error class: a bool,
    a string, NaN, +-Infinity or an int too large for a float is no number."""
    kind = type(value)  # type(), not isinstance, keeps bool out
    if (kind is int or (kind is float and not integer)) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return value if integer or kind is float else float(value)
    raise error(f"{what} must be {'an integer' if integer else 'a finite number'}, got {value!r}")
