"""Exception taxonomy.

Two families matter to callers: validation errors (bad user input, CLI exit
code 2) and numeric failures (internal cross-checks that disagree, exit code 3).
Everything derives from GaussShareError so library users can catch one type.
"""

import operator

import numpy as np


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
