"""Entropy and mutual-information arithmetic on joint pmf tensors.

A joint pmf is a nonnegative ndarray summing to one; each axis is one random
variable.  All quantities are in bits.  Marginalization keeps axes in the
order the caller lists them, so composite variables keep a well-defined
flattened index.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import DomainError

__all__ = [
    "check_normalized",
    "conditional_entropy",
    "conditional_mutual_information",
    "entropy",
    "marginal",
    "min_positive_mass",
    "mutual_information",
    "support_size",
]


def entropy(pmf: np.ndarray) -> float:
    """Shannon entropy in bits; zero-mass cells contribute nothing.

    0.0 - sum rather than -sum, so a point mass gives +0.0, not -0.0."""
    p = np.asarray(pmf, dtype=float).ravel()
    p = p[p > 0.0]
    return 0.0 - float(np.sum(p * np.log2(p)))


def _check_axes(pmf: np.ndarray, axes: Sequence[int]) -> tuple[int, ...]:
    axes = tuple(int(a) for a in axes)
    if len(set(axes)) != len(axes):
        raise DomainError(f"duplicate axes {axes}")
    for a in axes:
        if not 0 <= a < pmf.ndim:
            raise DomainError(f"axis {a} out of range for a {pmf.ndim}-axis pmf")
    return axes


def marginal(pmf: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Marginal over the listed axes, returned in the listed order."""
    axes = _check_axes(pmf, axes)
    drop = tuple(a for a in range(pmf.ndim) if a not in axes)
    summed = pmf.sum(axis=drop) if drop else np.asarray(pmf)
    kept_sorted = sorted(axes)
    return np.transpose(summed, [kept_sorted.index(a) for a in axes])


def _disjoint(*groups: tuple[int, ...]) -> None:
    seen: set[int] = set()
    for g in groups:
        if seen & set(g):
            raise DomainError("variable groups must be disjoint")
        seen |= set(g)


def mutual_information(
    pmf: np.ndarray, axes_a: Sequence[int], axes_b: Sequence[int]
) -> float:
    """I(A; B) in bits; either group may be empty (then 0)."""
    a, b = _check_axes(pmf, axes_a), _check_axes(pmf, axes_b)
    _disjoint(a, b)
    if not a or not b:
        return 0.0
    return entropy(marginal(pmf, a)) + entropy(marginal(pmf, b)) - entropy(
        marginal(pmf, a + b)
    )


def conditional_entropy(
    pmf: np.ndarray, axes_target: Sequence[int], axes_given: Sequence[int]
) -> float:
    """H(T | G) in bits; empty G gives plain entropy."""
    t, g = _check_axes(pmf, axes_target), _check_axes(pmf, axes_given)
    _disjoint(t, g)
    if not g:
        return entropy(marginal(pmf, t))
    return entropy(marginal(pmf, t + g)) - entropy(marginal(pmf, g))


def conditional_mutual_information(
    pmf: np.ndarray,
    axes_a: Sequence[int],
    axes_b: Sequence[int],
    axes_given: Sequence[int],
) -> float:
    """I(A; B | G) = H(A,G) + H(B,G) - H(A,B,G) - H(G), in bits."""
    a = _check_axes(pmf, axes_a)
    b = _check_axes(pmf, axes_b)
    g = _check_axes(pmf, axes_given)
    _disjoint(a, b, g)
    if not a or not b:
        return 0.0
    h_ag = entropy(marginal(pmf, a + g))
    h_bg = entropy(marginal(pmf, b + g))
    h_abg = entropy(marginal(pmf, a + b + g))
    h_g = entropy(marginal(pmf, g)) if g else 0.0
    return h_ag + h_bg - h_abg - h_g


def min_positive_mass(pmf: np.ndarray, axes: Sequence[int] | None = None) -> float:
    """Smallest nonzero cell of the (marginal) pmf."""
    arr = marginal(pmf, axes) if axes is not None else np.asarray(pmf)
    positive = arr[arr > 0.0]
    if positive.size == 0:
        raise DomainError("pmf has no positive mass")
    return float(positive.min())


def support_size(pmf: np.ndarray, axes: Sequence[int] | None = None) -> int:
    """Number of cells with nonzero mass in the (marginal) pmf."""
    arr = marginal(pmf, axes) if axes is not None else np.asarray(pmf)
    return int(np.count_nonzero(arr > 0.0))


def check_normalized(total: float) -> None:
    """Raise unless a pmf total is within 1e-9 of one (normalization guard)."""
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise DomainError(f"pmf sums to {total!r}, expected 1 within 1e-9")
