"""Joint Gaussian source models and their normalized gain-vector form.

A dealer observes X ~ N(0, sigma2_x); participant subset S observes Y_S.
Any non-singular joint covariance of (X, Y_S) can be whitened so that
Y'_S = H_S X + W with W standard normal and independent of X:

    Sigma_W = Sigma_{Y_S} - Sigma_{Y_S X} Sigma_{Y_S X}^T / sigma2_x
    B B^T   = Sigma_W          (lower Cholesky)
    H_S     = B^{-1} Sigma_{Y_S X} / sigma2_x

The invertible map B^{-1} preserves mutual information, so
I(X; Y_S) = (1/2) log2(sigma2_x * |H_S|^2 + 1).  Only the squared norm
snr = H_S^T H_S survives downstream; H_S itself is unique up to orthogonal
transforms.  All logarithms here and in the rest of the package are base 2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .errors import DomainError, NonPositiveDefinite, NumericError
from .errors import _check_members, _check_real, _check_reals

__all__ = [
    "SourceSpec",
    "SubsetGain",
    "derive_gain_vector",
    "mutual_information",
    "subset_snr",
]

_CHOLESKY_PIVOT_REL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SourceSpec:
    """Joint Gaussian source: dealer X plus L participant observations.

    Two equivalent forms are accepted.  Covariance mode stores the full
    (L+1) x (L+1) covariance with the dealer at row/column 0.  Gains mode
    stores sigma2_x and the length-L gain vector directly (observations are
    Y_i = gains[i-1] * X + W_i with unit independent noise).

    Attributes
    ----------
    mode : "covariance" | "gains"
    covariance : ndarray or None
        Full covariance in covariance mode.
    sigma2_x : float
        Variance of the dealer's variable (covariance[0, 0] in covariance mode).
    gains : ndarray or None
        Per-participant gains in gains mode.
    """

    mode: Literal["covariance", "gains"]
    covariance: np.ndarray | None
    sigma2_x: float
    gains: np.ndarray | None

    @staticmethod
    def from_covariance(matrix) -> "SourceSpec":
        try:
            np.shape(matrix)
        except ValueError:  # rows of different lengths
            raise NonPositiveDefinite("covariance must be a square matrix") from None
        cov = _check_reals(matrix, "covariance", NonPositiveDefinite)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise NonPositiveDefinite("covariance must be a square matrix")
        if cov.shape[0] < 2:
            raise NonPositiveDefinite("need at least one participant beyond the dealer")
        if not np.allclose(cov, cov.T, rtol=1e-9, atol=0.0):
            raise NonPositiveDefinite("covariance must be symmetric")
        _checked_cholesky(cov)
        return SourceSpec(
            mode="covariance",
            covariance=_frozen_array(cov),
            sigma2_x=_normal_sigma2_x(float(cov[0, 0])),
            gains=None,
        )

    @staticmethod
    def from_gains(sigma2_x: float, gains) -> "SourceSpec":
        sigma2_x = _check_real(sigma2_x, "sigma2_x", DomainError)
        if not sigma2_x > 0:
            raise DomainError("sigma2_x must be positive")
        if not math.isfinite(sigma2_x):
            raise DomainError("sigma2_x must be finite")
        _normal_sigma2_x(sigma2_x)
        g = _check_reals(gains, "gains", DomainError)
        if g.ndim != 1 or g.size < 1:
            raise DomainError("gains must be a nonempty vector")
        if not np.all(np.isfinite(g)):
            raise DomainError("gains must be finite")
        # sigma2_x * snr of all participants, summed as subset_snr sums it: no
        # coalition's is larger, and the capacity formulas need it finite
        with np.errstate(over="ignore"):
            grand = sigma2_x * np.add.accumulate(g * g)[-1]
        if not np.isfinite(grand):
            raise DomainError("sigma2_x times the sum of squared gains must be finite")
        return SourceSpec(
            mode="gains", covariance=None, sigma2_x=sigma2_x, gains=_frozen_array(g)
        )

    @property
    def l(self) -> int:
        """Number of participants."""
        if self.mode == "gains":
            return int(self.gains.size)
        return int(self.covariance.shape[0] - 1)


@dataclass(frozen=True)
class SubsetGain:
    """Whitened observation model of one participant subset.

    Attributes
    ----------
    subset : tuple of int
        Sorted participant indices (1-based).
    gains : ndarray
        Gain vector after unit-noise normalization, one entry per member.
    snr : float
        Squared norm of `gains`; the effective SNR coefficient that alone
        determines every capacity quantity involving this subset.
    """

    subset: tuple[int, ...]
    gains: np.ndarray
    snr: float


def _normal_sigma2_x(value: float) -> float:
    """value, refused below the smallest normal float: saddle_check's grid
    starts at sigma2_x * 1e-8, which must not round to 0."""
    if value < sys.float_info.min:
        raise DomainError(
            f"sigma2_x must be at least {sys.float_info.min!r}, the smallest normal float"
        )
    return value


def _checked_cholesky(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with an explicit near-singularity pivot check."""
    try:
        b = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefinite(f"matrix is not positive definite: {exc}") from exc
    if matrix.size:
        floor = _CHOLESKY_PIVOT_REL * float(np.max(np.diagonal(matrix)))
        if float(np.min(np.diagonal(b)) ** 2) < floor:
            raise NonPositiveDefinite("matrix is numerically singular")
    return b


def derive_gain_vector(spec: SourceSpec, subset: Iterable[int]) -> SubsetGain:
    """Whiten a subset's observations into the unit-noise gain form.

    In gains mode this is a plain sub-vector lookup.  In covariance mode the
    noise covariance is factored (lower Cholesky) and inverted onto the
    cross-covariance; see the module docstring for the algebra.

    The empty subset is legal and yields snr = 0.
    """
    members = _check_members(subset, spec.l, "subset members")
    if spec.mode == "gains":
        h = spec.gains[[m - 1 for m in members]]
    elif not members:
        h = np.zeros(0)
    else:
        cov = spec.covariance
        idx = np.array(members, dtype=int)  # participant i sits at row i
        cross = cov[idx, 0]  # Sigma_{Y_S X}, shape (|S|,)
        sigma_y = cov[np.ix_(idx, idx)]
        noise_cov = sigma_y - np.outer(cross, cross) / spec.sigma2_x
        b = _checked_cholesky(noise_cov)
        h = np.linalg.solve(b, cross) / spec.sigma2_x
    snr = float(np.add.accumulate(h * h)[-1]) if members else 0.0
    return SubsetGain(subset=members, gains=_frozen_array(h), snr=snr)


def subset_snr(spec: SourceSpec, subset: Iterable[int]) -> float:
    """Effective SNR coefficient of a subset (squared gain-vector norm).

    This is the single shared definition used by every module, so that
    equality comparisons between independently computed extremal sets are
    exact rather than tolerance-based.  The squared gains are added left to
    right in ascending member order: a BLAS dot sums in an order set by the
    CPU kernel, and np.sum by its own accumulators, so printed capacities
    would vary with the machine.  access_structure's SNR table adds members
    in the same order and so equals this function bit for bit.
    """
    return derive_gain_vector(spec, subset).snr


def mutual_information(spec: SourceSpec, subset: Iterable[int]) -> float:
    """I(X; Y_S) in bits per symbol.

    Returns (1/2) log2(sigma2_x * snr + 1).  In covariance mode the log-det
    form (1/2) log2(det Sigma_{Y_S} * sigma2_x / det Sigma_{(X, Y_S)}) is also
    evaluated and must agree within 1e-9 relative; a mismatch means the
    whitening is broken, and raises NumericError rather than returning a
    silently wrong value.
    """
    members = _check_members(subset, spec.l, "subset members")
    scalar = 0.5 * math.log2(spec.sigma2_x * subset_snr(spec, members) + 1.0)
    if spec.mode == "covariance" and members:
        cov = spec.covariance
        rows = np.array((0,) + members, dtype=int)
        full = cov[np.ix_(rows, rows)]
        sub = cov[np.ix_(rows[1:], rows[1:])]
        sign_full, logdet_full = np.linalg.slogdet(full)
        sign_sub, logdet_sub = np.linalg.slogdet(sub)
        if sign_full <= 0 or sign_sub <= 0:
            raise NonPositiveDefinite("covariance sub-block has non-positive determinant")
        logdet = 0.5 * (logdet_sub + math.log(spec.sigma2_x) - logdet_full) / math.log(2.0)
        if abs(logdet - scalar) > 1e-9 * max(1.0, abs(scalar)):
            raise NumericError(
                f"log-det mutual information {logdet!r} disagrees with scalar form {scalar!r}"
            )
    return scalar
