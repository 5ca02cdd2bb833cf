"""Shannon entropy of a pmf array and the normalization guard.

A pmf is a nonnegative ndarray summing to one; its cells may span any number
of axes.  Entropies are in bits.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError

__all__ = ["check_normalized", "entropy"]


def entropy(pmf: np.ndarray) -> float:
    """Shannon entropy in bits; zero-mass cells contribute nothing.

    0.0 - sum rather than -sum, so a point mass gives +0.0, not -0.0."""
    p = np.asarray(pmf, dtype=float).ravel()
    p = p[p > 0.0]
    return 0.0 - float(np.sum(p * np.log2(p)))


def check_normalized(total: float) -> None:
    """Raise unless a pmf total is within 1e-9 of one (normalization guard)."""
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise DomainError(f"pmf sums to {total!r}, expected 1 within 1e-9")
