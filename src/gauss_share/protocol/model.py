"""Discretized joint law of the dealer's source, auxiliary, and observations.

The continuous model is X ~ N(0, sigma2_x), Y_l = gains[l] * X + W_l with unit
noise, and a Gaussian auxiliary V.  Two auxiliary modes exist:

* identity (rp_target None): V = X, so the auxiliary alphabet is X's bins and
  p(v, x, ...) is diagonal in the first two axes;
* additive (rp_target > 0): V = X + E with E independent Gaussian noise whose
  variance is chosen so the conditional variance of X given V equals the
  capacity-optimal value at the target public rate.

Everything downstream consumes the joint pmf tensor over (V, X, Y_1..Y_L):
axis 0 is V, axis 1 is X, and participant p (1-based) sits on axis 1+p.  Each
variable is quantized into equiprobable bins.  Cells are computed by
Gauss-Legendre quadrature over each X bin in the u = CDF(x) coordinate, where
the integrand (a product of Gaussian rectangle probabilities conditioned on x)
is smooth; extremely steep gains make the conditional rectangle terms nearly
discontinuous inside a bin, which costs quadrature accuracy in the smallest
cells but never their strict positivity pattern.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri
from numpy.polynomial.legendre import leggauss

from ..access_structure import AccessStructure
from ..capacity import extremal_sets, optimal_conditional_variance
from ..errors import DegenerateVariance, DomainError
from ..source_model import SourceSpec
from . import info
from .quantize import Quantizer, build_quantizer

__all__ = [
    "DiscreteSourceModel",
    "build_quantized_source",
    "discretize_source",
    "sample_source",
]

AXIS_V = 0
AXIS_X = 1
_QUAD_NODES = 80  # Gauss-Legendre nodes per X bin of the pmf tensor


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """leggauss(_QUAD_NODES), computed once per process and read-only.

    leggauss solves an eigenproblem through LAPACK, which wakes the BLAS
    thread pool.  Its idle worker then spins for about as long as a whole
    protocol run.  Computing the rule once keeps that off every build.
    """
    nodes, weights = leggauss(_QUAD_NODES)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _y_axes(subset: tuple[int, ...]) -> tuple[int, ...]:
    # participant ids are 1-based, so participant p lives on tensor axis 1 + p
    return tuple(1 + p for p in subset)


@dataclass(frozen=True)
class DiscreteSourceModel:
    """Joint pmf tensor over (V, X, Y_1..Y_L) plus the quantizers behind it."""

    spec: SourceSpec
    pmf: np.ndarray
    v_quantizer: Quantizer
    x_quantizer: Quantizer
    y_quantizers: tuple[Quantizer, ...]
    sigma2_cond: float | None  # None in identity mode (V = X)
    aux_noise_var: float | None

    @property
    def identity_auxiliary(self) -> bool:
        return self.sigma2_cond is None

    @property
    def n_v(self) -> int:
        return self.pmf.shape[AXIS_V]

    @property
    def n_x(self) -> int:
        return self.pmf.shape[AXIS_X]

    @property
    def l(self) -> int:
        return self.pmf.ndim - 2

    def n_y(self, subset: tuple[int, ...]) -> int:
        return math.prod(self.pmf.shape[a] for a in _y_axes(subset))

    # -- single-letter marginals (flattened composite observation index) --

    def p_v(self) -> np.ndarray:
        return info.marginal(self.pmf, (AXIS_V,))

    def joint_xv(self) -> np.ndarray:
        """p(x, v) with X first: shape (n_x, n_v)."""
        return info.marginal(self.pmf, (AXIS_X, AXIS_V))

    def joint_vy(self, subset: tuple[int, ...]) -> np.ndarray:
        """p(v, y_subset) with the observation flattened: (n_v, n_y(subset))."""
        axes = (AXIS_V,) + _y_axes(subset)
        m = info.marginal(self.pmf, axes)
        return m.reshape(self.n_v, -1)

    def joint_xy(self, subset: tuple[int, ...]) -> np.ndarray:
        """p(x, y_subset) flattened: (n_x, n_y(subset))."""
        axes = (AXIS_X,) + _y_axes(subset)
        m = info.marginal(self.pmf, axes)
        return m.reshape(self.n_x, -1)

    # -- information quantities (bits) --

    def entropy_v(self) -> float:
        return info.entropy(self.p_v())

    def entropy_v_given_x(self) -> float:
        return info.conditional_entropy(self.pmf, (AXIS_V,), (AXIS_X,))

    def entropy_v_given_y(self, subset: tuple[int, ...]) -> float:
        return info.conditional_entropy(self.pmf, (AXIS_V,), _y_axes(subset))

    def entropy_x_given_yv(self, subset: tuple[int, ...]) -> float:
        return info.conditional_entropy(
            self.pmf, (AXIS_X,), _y_axes(subset) + (AXIS_V,)
        )

    def mi_v_y(self, subset: tuple[int, ...]) -> float:
        return info.mutual_information(self.pmf, (AXIS_V,), _y_axes(subset))

    def mi_x_v_given_y(self, subset: tuple[int, ...]) -> float:
        return info.conditional_mutual_information(
            self.pmf, (AXIS_X,), (AXIS_V,), _y_axes(subset)
        )

    # -- minimum positive masses for the concentration bounds --

    def mu_xy(self, subset: tuple[int, ...]) -> float:
        return info.min_positive_mass(self.pmf, (AXIS_X,) + _y_axes(subset))

    def mu_xv(self) -> float:
        return info.min_positive_mass(self.pmf, (AXIS_X, AXIS_V))

    def mu_vxy(self, subset: tuple[int, ...]) -> float:
        return info.min_positive_mass(self.pmf, (AXIS_V, AXIS_X) + _y_axes(subset))

    def mu_vy(self, subset: tuple[int, ...]) -> float:
        return info.min_positive_mass(self.pmf, (AXIS_V,) + _y_axes(subset))

    def support_vy(self, subset: tuple[int, ...]) -> int:
        return info.support_size(self.pmf, (AXIS_V,) + _y_axes(subset))


def _require_gains(spec: SourceSpec) -> np.ndarray:
    if spec.mode != "gains":
        raise DomainError("the protocol model needs a gains-form source")
    return spec.gains


def build_quantized_source(
    spec: SourceSpec,
    structure: AccessStructure,
    l_quant: int,
    rp_target: float | None = None,
) -> DiscreteSourceModel:
    """Quantize the joint Gaussian law into an exact-arithmetic pmf tensor.

    rp_target picks the auxiliary: None means V = X; a positive rate selects
    the additive Gaussian auxiliary whose conditional variance is
    capacity-optimal at that rate for this structure's weakest authorized set.
    """
    gains = _require_gains(spec)
    if structure.l != spec.l:
        raise DomainError("structure and source disagree on participant count")
    l_quant = int(l_quant)
    if l_quant < 2:
        raise DomainError("need at least two quantization bins")
    sx = spec.sigma2_x

    x_quant = build_quantizer(sx, l_quant)
    y_quants = tuple(
        build_quantizer(sx * g * g + 1.0, l_quant) for g in gains
    )

    if rp_target is None:
        sigma2_cond = None
        aux_noise_var = None
        v_quant = x_quant
    else:
        rp_target = float(rp_target)
        if not (rp_target > 0.0) or math.isinf(rp_target):
            raise DomainError("rp_target must be a positive finite rate or None")
        ext = extremal_sets(structure, spec)
        sigma2_cond = optimal_conditional_variance(spec, ext.snr_authorized, rp_target)
        if not sigma2_cond < sx:
            raise DegenerateVariance(
                "rp_target too small: the auxiliary would be independent of the source"
            )
        aux_noise_var = sigma2_cond * sx / (sx - sigma2_cond)
        v_quant = build_quantizer(sx + aux_noise_var, l_quant)

    # Gauss-Legendre nodes per X bin in u = CDF(x) coordinates, where the
    # X marginal is the uniform measure on (0, 1); one rule serves every bin
    # and every build.
    nodes, weights = _gauss_legendre()
    shape = (v_quant.n_bins, l_quant) + tuple(q.n_bins for q in y_quants)
    pmf = np.zeros(shape)

    def rectangle_probs(quant: Quantizer, centers: np.ndarray, scale: float) -> np.ndarray:
        """P[bin j | x] for each node: shape (n_nodes, n_bins)."""
        edges = np.concatenate([[-np.inf], quant.boundaries, [np.inf]])
        cdf = ndtr((edges[None, :] - centers[:, None]) / scale)
        return np.diff(cdf, axis=1)

    sqrt_sx = math.sqrt(sx)
    for i in range(l_quant):
        u = (i + (nodes + 1.0) / 2.0) / l_quant
        w = weights / (2.0 * l_quant)
        x_vals = sqrt_sx * ndtri(u)

        factors = []
        if sigma2_cond is None:
            cond_v = np.zeros((u.size, l_quant))
            cond_v[:, i] = 1.0
        else:
            cond_v = rectangle_probs(v_quant, x_vals, math.sqrt(aux_noise_var))
        factors.append(cond_v)
        for g, q in zip(gains, y_quants):
            factors.append(rectangle_probs(q, g * x_vals, 1.0))

        # weighted sum over nodes of the outer product of all factors
        cell = np.einsum("n,na->na", w, factors[0])
        for f in factors[1:]:
            cell = np.einsum("n...,nb->n...b", cell, f)
        pmf[:, i, ...] = cell.sum(axis=0)

    total = float(pmf.sum())
    info.check_normalized(total)
    pmf /= total
    return DiscreteSourceModel(
        spec=spec,
        pmf=pmf,
        v_quantizer=v_quant,
        x_quantizer=x_quant,
        y_quantizers=y_quants,
        sigma2_cond=sigma2_cond,
        aux_noise_var=aux_noise_var,
    )


def sample_source(
    spec: SourceSpec, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw continuous (x, y) with x shape (size,) and y shape (size, L)."""
    gains = _require_gains(spec)
    x = rng.normal(0.0, math.sqrt(spec.sigma2_x), size=size)
    y = x[:, None] * gains[None, :] + rng.standard_normal((size, gains.size))
    return x, y


def discretize_source(
    x_quantizer: Quantizer,
    y_quantizers: tuple[Quantizer, ...],
    x: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bin continuous samples: returns (x bins (size,), y bins (size, L))."""
    x_bins = x_quantizer.indices(x)
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != len(y_quantizers):
        raise DomainError("y must be (size, L) matching the quantizer list")
    y_bins = np.stack(
        [q.indices(y[:, j]) for j, q in enumerate(y_quantizers)], axis=1
    )
    return x_bins, y_bins
