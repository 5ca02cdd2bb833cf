"""Exception taxonomy.

Two families matter to callers: validation errors (bad user input, CLI exit
code 2) and numeric failures (internal cross-checks that disagree, exit code 3).
Everything derives from GaussShareError so library users can catch one type.

Each kind of library input has one reader here, and every public entry point
reads its caller's values through it: `_check_count` for counts and
indices, `_check_real` for real numbers (`_check_reals` for arrays of them,
such as Gaussian samples), `_check_symbols` for arrays of symbols over a
finite alphabet (bits are the alphabet of two) and `_check_members` for
participant sets.  A value of the wrong type is refused with the caller's
error class, never coerced.
"""

import operator

import numpy as np

__all__ = [
    "GaussShareError",
    "ValidationError",
    "NonPositiveDefinite",
    "TooManyParticipants",
    "EmptyGenerator",
    "ThresholdOutOfRange",
    "IndexOutOfRange",
    "DomainError",
    "NegativeRate",
    "EmptyGrid",
    "DegenerateVariance",
    "KTooLarge",
    "BudgetExceeded",
    "InvalidConfig",
    "NumericError",
]


class GaussShareError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GaussShareError):
    """Invalid input: shapes, ranges, config contents."""


class NonPositiveDefinite(ValidationError):
    """Covariance matrix is not symmetric positive definite."""


class TooManyParticipants(ValidationError):
    """Participant count above the subset-enumeration cap."""


class EmptyGenerator(ValidationError):
    """A generator set of an access structure is empty."""


class ThresholdOutOfRange(ValidationError):
    """Threshold t outside 1..l."""


class IndexOutOfRange(ValidationError):
    """A (t, i) pair or participant index outside the valid range."""


class DomainError(ValidationError):
    """A real-valued argument outside its mathematical domain."""


class NegativeRate(DomainError):
    """A rate argument that must be nonnegative is negative."""


class EmptyGrid(ValidationError):
    """A sweep grid with no points."""


class DegenerateVariance(ValidationError):
    """A variance that must be strictly positive is not."""


class KTooLarge(ValidationError):
    """Requested secret length exceeds the input entropy budget."""


class BudgetExceeded(ValidationError):
    """Exact enumeration refused: state space above the configured budget."""


class InvalidConfig(ValidationError):
    """A config document or ProtocolConfig that violates its invariants."""


class NumericError(GaussShareError):
    """Cross-checked computation paths disagree beyond tolerance."""


def _check_count(value, name: str, error: type[ValidationError]) -> int:
    """value as an int under operator.index's rules (int, np.int64, ...);
    bool, float, str and the rest raise error, never coerced."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


_REAL_TYPES = (int, float, np.integer, np.floating)


def _array(values, name: str, error: type[ValidationError]) -> np.ndarray:
    """np.asarray(values); a ragged nesting, which numpy refuses with a bare
    ValueError, raises error."""
    try:
        return np.asarray(values)
    except ValueError:
        raise error(f"{name} must be a regular array, got rows of different lengths") from None


def _check_real(value, name: str, error: type[ValidationError]) -> float:
    """value as a float when it is an int, float or numpy integer or
    floating scalar; bool, numpy bool, str, the rest and an int too large
    for a float raise error, never coerced."""
    if isinstance(value, _REAL_TYPES) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise error(f"{name} must be a number, got {value!r}")


def _check_reals(values, name: str, error: type[ValidationError]) -> np.ndarray:
    """values as a float array when numpy reads them as integers or floats;
    bools, strings and objects raise error.  An ndarray is read by one dtype
    check; anything else is also scanned once as an object array, since
    numpy promotes a bool among numbers to 1 or 1.0.  A ragged nesting
    raises error too."""
    array = _array(values, name, error)
    if array.dtype.kind not in "iuf":
        raise error(f"{name} must be numbers, got {array.dtype} values")
    if not isinstance(values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat
    ):
        raise error(f"{name} must be numbers, got a bool among them")
    return array.astype(float, copy=False)


def _check_symbols(
    values, n_letters: int, name: str, error: type[ValidationError]
) -> np.ndarray:
    """values as an int64 array of symbols in 0..n_letters-1 when numpy
    reads them as integers (an empty input of any dtype reads as empty);
    a scalar (a 0-d array), a ragged nesting, bools, floats, strings and
    objects raise error (one dtype check, no loop).  Narrower integers are
    widened, so that arithmetic on the symbols cannot wrap in their own dtype."""
    array = _array(values, f"{name} symbols", error)
    if not array.ndim:
        raise error(f"{name} symbols must be an array, got the scalar {values!r}")
    if not array.size:
        return np.zeros(array.shape, dtype=np.int64)
    if array.dtype.kind not in "iu":
        raise error(f"{name} symbols must be integers, got {array.dtype} values")
    if array.min() < 0 or array.max() >= n_letters:
        raise error(f"{name} symbols must lie in 0..{n_letters - 1}")
    return array.astype(np.int64, copy=False)


def _check_members(subset, l: int, name: str) -> tuple[int, ...]:
    """The distinct participant ids of subset in ascending order, each read
    by _check_count; an id outside 1..l raises IndexOutOfRange."""
    try:
        ids = iter(subset)
    except TypeError:
        raise IndexOutOfRange(f"{name} must be a set of ids, got {subset!r}") from None
    members = sorted({_check_count(p, name, IndexOutOfRange) for p in ids})
    if members and (members[0] < 1 or members[-1] > l):
        raise IndexOutOfRange(f"{name} must lie in 1..{l}")
    return tuple(members)
