"""The three root exceptions (an error's root decides its exit code), the one
rule for JSON read from input and the one input-number check."""

import json
import sys
from typing import Sequence

import numpy as np


class UsageError(ValueError):
    """A flag value the command cannot use (exit 2)."""


class DatasetError(ValueError):
    """A malformed input: records, crops, model, threshold, sample or scenario files (exit 3)."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite (exit 4)."""


_raw_decode = json.JSONDecoder().raw_decode


def parsed_json(data, error: type[Exception], what: str, kind: type = dict):
    """The one JSON value, of type kind (dict or list), in data: str, or UTF-8 bytes with no BOM.
    Anything else raises the caller's error class: bytes not UTF-8, a BOM, text around the
    value other than JSON whitespace, nesting past the recursion limit, or another type."""
    try:  # strip, not decode(), which matches JSON whitespace with two regex calls: same verdict, faster
        text = (data if isinstance(data, str) else data.decode("utf-8")).strip(" \t\r\n")
        value, end = _raw_decode(text)
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise error(f"{what} is not JSON: {e}") from None
    if end < len(text) or not isinstance(value, kind):
        raise error(f"{what} must hold one JSON {'object' if kind is dict else 'array'} and nothing after it")
    return value


_FLOAT_MAX = sys.float_info.max
# the types a number may have, keyed by integer; type(), not isinstance, keeps bool out
_KINDS = {False: frozenset((int, float)), True: frozenset((int,))}


def _rejected(value, error: type[Exception], what: str, integer: bool) -> Exception:
    return error(f"{what} must be {'an integer' if integer else 'a finite number'}, got {value!r}")


def checked_number(value, error: type[Exception], what: str, integer: bool = False):
    """value as a float (as an int if integer) when it is an int or, unless integer, a float,
    within the float range. Anything else raises the caller's error class: a bool,
    a string, NaN, +-Infinity or an int too large for a float is no number."""
    kind = type(value)
    if kind in _KINDS[integer] and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return value if integer or kind is float else float(value)
    raise _rejected(value, error, what, integer)


def number_verdicts(values: Sequence, integer: bool = False) -> np.ndarray:
    """checked_number's verdict on each value, as a bool array, raising nothing: the
    types are looked up in one pass, then the range is compared on an object array,
    where an int is compared exactly, however large, and NaN compares False."""
    typed = np.fromiter(map(_KINDS[integer].__contains__, map(type, values)), bool, len(values))
    numbers = np.where(typed, np.fromiter(values, object, len(values)), 0)
    with np.errstate(invalid="ignore"):  # NaN
        return typed & (-_FLOAT_MAX <= numbers) & (numbers <= _FLOAT_MAX)


def checked_numbers(values: Sequence, error: type[Exception], names, integer: bool = False) -> Sequence:
    """checked_number over a row in one pass: the row as a list of floats (values itself
    if integer), or the caller's error naming the first value rejected (names[i] names values[i])."""
    if not (ok := number_verdicts(values, integer)).all():
        raise _rejected(values[ok.argmin()], error, names[ok.argmin()], integer)
    return values if integer else list(map(float, values))
