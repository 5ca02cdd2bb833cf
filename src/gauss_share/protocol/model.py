"""Discretized joint law of the dealer's source, auxiliary, and observations.

The continuous model is X ~ N(0, sigma2_x), Y_l = gains[l] * X + W_l with unit
noise, and a Gaussian auxiliary V.  Two auxiliary modes exist:

* identity (rp_target None): V = X, so the auxiliary alphabet is X's bins and
  p(v, x, ...) is diagonal in the first two axes;
* additive (rp_target > 0): V = X + E with E independent Gaussian noise whose
  variance is chosen so the conditional variance of X given V equals the
  capacity-optimal value at the target public rate.

The observations are independent given X, so the model keeps one factor per
variable at each quadrature node of each X bin, and builds a coalition S's
law p(v, x, y_S) from them when it is first read, with S's observations
flattened into one axis, first member most significant.  Each variable is
quantized into equiprobable bins.  Cells are computed by Gauss-Legendre
quadrature over each X bin in the u = CDF(x) coordinate, where the integrand
is a product of Gaussian rectangle probabilities conditioned on x.  It is
not smooth everywhere: in a tail bin it behaves roughly like u^(g^2 sigma2_x)
at the open end, an endpoint singularity when g^2 sigma2_x < 1, and cells
there are off by up to a few 1e-6 relative (gain 0.5, sigma2_x 2).
Extremely steep gains make the conditional rectangle terms nearly
discontinuous inside a bin, which costs quadrature accuracy in the smallest
cells but never their strict positivity pattern.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri
from numpy.polynomial.legendre import leggauss

from ..access_structure import AccessStructure
from ..capacity import extremal_sets, optimal_conditional_variance
from ..errors import BudgetExceeded, DegenerateVariance, DomainError
from ..source_model import SourceSpec
from . import info
from .quantize import Quantizer, build_quantizer

__all__ = [
    "DiscreteSourceModel",
    "build_quantized_source",
    "discretize_source",
    "sample_source",
]

_QUAD_NODES = 80  # Gauss-Legendre nodes per X bin
_MODEL_CELL_BUDGET = 20_000_000  # float64 cells of the kept laws or one X bin's product


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


def _min_positive(p: np.ndarray) -> float:
    return float(p[p > 0.0].min())


@dataclass(frozen=True)
class DiscreteSourceModel:
    """Per-node conditional factors of (V, X, Y_1..Y_L) plus the quantizers.

    Every accessor reads joint(subset), whose axes are (V, X, Y_subset).
    """

    spec: SourceSpec
    node_v: np.ndarray  # (n_x, nodes, n_v): w_n * P[V = v | x_n] for X bin i
    node_y: np.ndarray  # (L, n_x, nodes, l_quant): P[Y_p = y | x_n]
    v_quantizer: Quantizer
    x_quantizer: Quantizer
    y_quantizers: tuple[Quantizer, ...]
    sigma2_cond: float | None  # None in identity mode (V = X)
    aux_noise_var: float | None
    _laws: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def identity_auxiliary(self) -> bool:
        return self.sigma2_cond is None

    @property
    def n_v(self) -> int:
        return self.node_v.shape[2]

    @property
    def n_x(self) -> int:
        return self.node_v.shape[0]

    @property
    def l(self) -> int:
        return self.node_y.shape[0]

    def n_y(self, subset: tuple[int, ...]) -> int:
        return self.node_y.shape[3] ** len(subset)

    def joint(self, subset: tuple[int, ...]) -> np.ndarray:
        """p(v, x, y_subset), read-only, shape (n_v, n_x, n_y(subset)).

        The observation index is flattened with the first member most
        significant, as `observations` numbers it.
        Built from the node factors on first read and kept; the laws kept
        before are dropped first when they and it would pass
        _MODEL_CELL_BUDGET cells.
        """
        key = tuple(subset)
        law = self._laws.get(key)
        if law is not None:
            return law
        if len(set(key)) != len(key) or not all(1 <= p <= self.l for p in key):
            raise DomainError(f"{key} is not a set of participants 1..{self.l}")
        shape = (self.n_v, self.n_x, self.n_y(key))
        if math.prod(shape) + sum(kept.size for kept in self._laws.values()) > _MODEL_CELL_BUDGET:
            self._laws.clear()
        law = np.zeros(shape)
        for i in range(self.n_x):
            # weighted sum over X bin i's nodes of the members' outer product
            cell = self.node_v[i]
            for p in key:
                cell = np.einsum("n...,nb->n...b", cell, self.node_y[p - 1, i])
            law[:, i, :] = cell.sum(axis=0).reshape(self.n_v, -1)
        total = float(law.sum())
        info.check_normalized(total)
        law /= total
        law.flags.writeable = False
        self._laws[key] = law
        return law

    def observations(self, y_bins: np.ndarray, subset: tuple[int, ...]) -> np.ndarray:
        """Each symbol's observation by the coalition, numbered as joint(subset)'s
        last axis, from the (size, L) observation bins y_bins."""
        flat = np.zeros(y_bins.shape[0], dtype=np.int64)
        for member in subset:
            flat = flat * self.node_y.shape[3] + y_bins[:, member - 1]
        return flat

    # -- single-letter marginals (flattened composite observation index) --

    def p_v(self) -> np.ndarray:
        return self.joint(()).sum(axis=(1, 2))

    def joint_xv(self) -> np.ndarray:
        """p(x, v) with X first: shape (n_x, n_v)."""
        return self.joint(())[:, :, 0].T

    def joint_vy(self, subset: tuple[int, ...]) -> np.ndarray:
        """p(v, y_subset) with the observation flattened: (n_v, n_y(subset))."""
        return self.joint(subset).sum(axis=1)

    def joint_xy(self, subset: tuple[int, ...]) -> np.ndarray:
        """p(x, y_subset) flattened: (n_x, n_y(subset))."""
        return self.joint(subset).sum(axis=0)

    # -- information quantities (bits) --

    def entropy_v(self) -> float:
        return info.entropy(self.p_v())

    def entropy_v_given_x(self) -> float:
        vx = self.joint(())
        return info.entropy(vx) - info.entropy(vx.sum(axis=0))

    def entropy_v_given_y(self, subset: tuple[int, ...]) -> float:
        vy = self.joint_vy(subset)
        return info.entropy(vy) - info.entropy(vy.sum(axis=0))

    def entropy_x_given_yv(self, subset: tuple[int, ...]) -> float:
        return info.entropy(self.joint(subset)) - info.entropy(self.joint_vy(subset))

    def mi_v_y(self, subset: tuple[int, ...]) -> float:
        vy = self.joint_vy(subset)
        return info.entropy(vy.sum(axis=1)) + info.entropy(vy.sum(axis=0)) - info.entropy(vy)

    def mi_x_v_given_y(self, subset: tuple[int, ...]) -> float:
        """I(X; V | Y) = H(X, Y) + H(V, Y) - H(V, X, Y) - H(Y)."""
        law = self.joint(subset)
        vy = law.sum(axis=1)
        return (info.entropy(law.sum(axis=0)) + info.entropy(vy)
                - info.entropy(law) - info.entropy(vy.sum(axis=0)))

    # -- minimum positive masses for the concentration bounds --

    def mu_xy(self, subset: tuple[int, ...]) -> float:
        return _min_positive(self.joint_xy(subset))

    def mu_xv(self) -> float:
        return _min_positive(self.joint(()))

    def mu_vxy(self, subset: tuple[int, ...]) -> float:
        return _min_positive(self.joint(subset))

    def mu_vy(self, subset: tuple[int, ...]) -> float:
        return _min_positive(self.joint_vy(subset))

    def support_vy(self, subset: tuple[int, ...]) -> int:
        return int(np.count_nonzero(self.joint_vy(subset) > 0.0))


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
    """Quantize the joint Gaussian law into per-node conditional factors.

    rp_target picks the auxiliary: None means V = X; a positive rate selects
    the additive Gaussian auxiliary whose conditional variance is
    capacity-optimal at that rate for this structure's weakest authorized set.
    Raises BudgetExceeded, before allocating, when the largest coalition's
    law (the grand coalition's, l_quant^(L+2) cells) or one X bin's node
    product for it (_QUAD_NODES * l_quant^(L+1) cells) passes
    _MODEL_CELL_BUDGET; and DegenerateVariance when rp_target is so small
    that V would be independent of X, or so large that the auxiliary noise
    variance rounds to 0.
    """
    gains = _require_gains(spec)
    if structure.l != spec.l:
        raise DomainError("structure and source disagree on participant count")
    l_quant = int(l_quant)
    if l_quant < 2:
        raise DomainError("need at least two quantization bins")
    cells = max(l_quant ** (spec.l + 2), _QUAD_NODES * l_quant ** (spec.l + 1))
    if cells > _MODEL_CELL_BUDGET:
        raise BudgetExceeded(f"l_quant {l_quant} with {spec.l} observers needs {cells} "
                             f"cells, above the model budget of {_MODEL_CELL_BUDGET}")
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
        if not aux_noise_var > 0.0:
            raise DegenerateVariance(
                "rp_target too large: the auxiliary would equal the source "
                "(rp_target null gives V = X)"
            )
        v_quant = build_quantizer(sx + aux_noise_var, l_quant)

    # Gauss-Legendre nodes per X bin in u = CDF(x) coordinates, where the
    # X marginal is the uniform measure on (0, 1); one rule serves every bin
    # and every build.
    nodes, weights = _gauss_legendre()
    w = weights / (2.0 * l_quant)
    node_v = np.zeros((l_quant, nodes.size, v_quant.n_bins))
    node_y = np.empty((spec.l, l_quant, nodes.size, l_quant))

    def rectangle_probs(quant: Quantizer, centers: np.ndarray, scale: float) -> np.ndarray:
        """P[bin j | x] for each node: shape (n_nodes, n_bins)."""
        edges = np.concatenate([[-np.inf], quant.boundaries, [np.inf]])
        cdf = ndtr((edges[None, :] - centers[:, None]) / scale)
        return np.diff(cdf, axis=1)

    sqrt_sx = math.sqrt(sx)
    for i in range(l_quant):
        u = (i + (nodes + 1.0) / 2.0) / l_quant
        x_vals = sqrt_sx * ndtri(u)
        if sigma2_cond is None:
            node_v[i, :, i] = w
        else:
            node_v[i] = w[:, None] * rectangle_probs(v_quant, x_vals, math.sqrt(aux_noise_var))
        for p, (g, q) in enumerate(zip(gains, y_quants)):
            node_y[p, i] = rectangle_probs(q, g * x_vals, 1.0)

    return DiscreteSourceModel(
        spec=spec,
        node_v=node_v,
        node_y=node_y,
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
