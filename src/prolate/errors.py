"""Exception types shared across the package, and the input-record checks that raise one."""

import math
import reprlib

import numpy as np


class ProlateError(Exception):
    """Base class for all package errors."""


class ParameterError(ProlateError, ValueError):
    """A parameter is outside its documented domain."""


class EigensolverError(ProlateError, RuntimeError):
    """The eigensolver failed to converge."""


class EmptyCutoffError(ProlateError, RuntimeError):
    """A spectral cutoff retained no modes."""


class DataCoverageError(ProlateError, RuntimeError):
    """Too much of the data domain is flagged missing for a reconstruction."""


class EmptyQuadratureError(ProlateError, RuntimeError):
    """A quadrature construction produced no nodes."""


class CacheError(ProlateError, RuntimeError):
    """A basis cache file is malformed or fails its checksum."""


def check_keys(record, keys, what: str) -> None:
    """Raise ParameterError unless `record` is a dict holding every key in `keys`."""
    if not isinstance(record, dict):
        raise ParameterError(f"{what} must be a JSON object, got {record!r}")
    missing = [key for key in keys if key not in record]
    if missing:
        raise ParameterError(f"{what} is missing {', '.join(map(repr, missing))}")


def finite_number(name: str, value: float, positive: bool) -> float:
    """`value`, once it is finite and > 0 (positive) or >= 0; else a ParameterError naming it."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        raise ParameterError(f"{name} must be a finite number {'> 0' if positive else '>= 0'}, "
                             f"got {float(value)!r}")
    return value


_NUMERIC_KINDS = {(): "a finite number", (2,): "a pair of finite numbers",
                  (None, None): "a 2D array of finite numbers"}


def numeric(record: dict, key: str, what: str, shape: tuple = ()):
    """record[key] as a float (shape ()) or a float array of `shape` (None: any length).

    Raise ParameterError naming the field unless the value is a number, or a
    nested list of numbers of that shape, and finite; JSON strings, booleans
    and null are not numbers, also as an item of a list ([true, 0.0]).
    """
    value = record[key]
    try:
        arr = np.asarray(value)
        ok = (arr.dtype.kind in "iuf" and arr.ndim == len(shape)
              and all(n is None or n == m for n, m in zip(shape, arr.shape))
              and bool(np.isfinite(arr).all())
              and not {bool, np.bool_} & set(map(type, np.asarray(value, dtype=object).flat)))
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise ParameterError(f"{what} {key!r} must be {_NUMERIC_KINDS[shape]}, "
                             f"got {reprlib.repr(value)}")
    return float(arr) if shape == () else arr.astype(float)
