"""Equiprobable scalar quantization of centered Gaussian variables."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateVariance, DomainError, _check_count, _check_real, _check_reals
from .normal import ndtri

__all__ = ["Quantizer", "build_quantizer"]


@dataclass(frozen=True)
class Quantizer:
    """Partition of the real line into bins of equal Gaussian probability.

    boundaries has n_bins - 1 strictly increasing thresholds; bin i collects
    (boundaries[i-1], boundaries[i]] with open ends at the extremes.  Every
    bin has probability exactly 1/n_bins under N(0, variance) because the
    thresholds are inverse-CDF images of the uniform grid i/n_bins.
    """

    variance: float
    n_bins: int
    boundaries: np.ndarray

    @property
    def bin_probabilities(self) -> np.ndarray:
        return np.full(self.n_bins, 1.0 / self.n_bins)

    def indices(self, x: np.ndarray) -> np.ndarray:
        """Bin index of each sample (0 .. n_bins-1); DomainError for a NaN or
        infinite sample, which no bin holds."""
        x = _check_reals(x, "samples", DomainError)
        if not np.isfinite(x).all():
            raise DomainError("samples must be finite")
        return np.searchsorted(self.boundaries, x, side="left")


def build_quantizer(variance: float, n_bins: int) -> Quantizer:
    """Equiprobable quantizer for a centered Gaussian of the given variance."""
    variance = _check_real(variance, "variance", DegenerateVariance)
    if not np.isfinite(variance) or variance <= 0.0:
        raise DegenerateVariance(f"variance must be positive and finite, got {variance}")
    n_bins = _check_count(n_bins, "n_bins", DomainError)
    if n_bins < 2:
        raise DomainError("need at least two quantization bins")
    boundaries = np.sqrt(variance) * _standard_boundaries(n_bins)
    return Quantizer(variance=variance, n_bins=n_bins, boundaries=boundaries)


@functools.lru_cache(maxsize=64)
def _standard_boundaries(n_bins: int) -> np.ndarray:
    """Read-only N(0, 1) quantiles of i / n_bins, i = 1 .. n_bins - 1."""
    boundaries = ndtri(np.arange(1, n_bins) / n_bins)
    boundaries.flags.writeable = False
    return boundaries
