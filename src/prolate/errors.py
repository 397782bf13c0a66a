"""Exception types shared across the package, and the input-record check that raises one."""


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
