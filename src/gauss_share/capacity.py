"""Secret-sharing capacity of Gaussian sources over a rate-limited public channel.

Everything here reduces to two scalar functions of the conditional variance
s = sigma2_{X|V} of the dealer's variable given the Gaussian auxiliary:

    public_rate(s, o_a)      -- public bits/symbol consumed by the auxiliary
    secret_rate(s, o_a, o_u) -- secret bits/symbol it separates

with o_a, o_u the effective SNR coefficients of the weakest authorized and
strongest unauthorized coalitions.  The capacity at public rate rp is the
closed form obtained by substituting the optimal s (optimal_conditional_variance);
minimax_oracle re-derives it by brute force over a s-grid, in both min-min-max
and max-min-min order, to verify the saddle-point structure numerically.
All rates are bits per source symbol, all logs base 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .access_structure import (
    AccessStructure,
    ExtremalSets,
    extremal_sets,
    threshold_extremal_chain,
)
from .errors import (
    BudgetExceeded,
    DomainError,
    EmptyGrid,
    IndexOutOfRange,
    NegativeRate,
    NumericError,
)
from .source_model import SourceSpec, _gains_and_snr, derive_gain_vector

__all__ = [
    "UNLIMITED",
    "UnlimitedRate",
    "CapacityPoint",
    "RateRegion",
    "SaddleCheck",
    "ThresholdComparison",
    "is_unlimited",
    "minimax_oracle",
    "optimal_conditional_variance",
    "public_rate",
    "rate_region",
    "saddle_check",
    "secret_capacity",
    "secret_rate",
    "threshold_compare",
    "verify_rate_formulas",
]

_ORACLE_CELL_BUDGET = 20_000_000  # saddle_check's work: grid points x larger family
_ORACLE_BLOCK_CELLS = 2**17  # float64 cells per matrix of a saddle_check block


class UnlimitedRate:
    """Tagged singleton for an unconstrained public channel (never a float)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNLIMITED"


UNLIMITED = UnlimitedRate()


def is_unlimited(rp) -> bool:
    return isinstance(rp, UnlimitedRate)


def _check_finite_rate(rp) -> float:
    if is_unlimited(rp):
        raise DomainError("this operation needs a finite public rate")
    rp = float(rp)
    if math.isnan(rp) or math.isinf(rp):
        raise DomainError("non-finite public rate; use UNLIMITED for an unbounded channel")
    if rp < 0:
        raise NegativeRate("public rate must be nonnegative")
    return rp


def _check_rate(rp):
    if is_unlimited(rp):
        return UNLIMITED
    return _check_finite_rate(rp)


def _check_sigma(sigma2_cond: float, spec: SourceSpec) -> float:
    s = float(sigma2_cond)
    if not (0.0 < s <= spec.sigma2_x):
        raise DomainError(
            f"conditional variance must lie in (0, {spec.sigma2_x}], got {s}"
        )
    return s


def _rate_gap(sigma2_cond: float, snr: float, spec: SourceSpec) -> float:
    """(1/2) log2((sigma2_x*snr + 1) / (sigma2_cond*snr + 1)); 0 at snr=0."""
    sx = spec.sigma2_x
    return 0.5 * math.log2((sx * snr + 1.0) / (sigma2_cond * snr + 1.0))


def public_rate(sigma2_cond: float, snr_authorized: float, spec: SourceSpec) -> float:
    """Public communication rate consumed by an auxiliary of conditional variance s.

    Equals (1/2) log2(sigma2_x / s) minus the part of the auxiliary already
    visible to the authorized coalition.  Nonnegative and nonincreasing in s.
    """
    s = _check_sigma(sigma2_cond, spec)
    return 0.5 * math.log2(spec.sigma2_x / s) - _rate_gap(s, snr_authorized, spec)


def secret_rate(
    sigma2_cond: float, snr_authorized: float, snr_unauthorized: float, spec: SourceSpec
) -> float:
    """Secret rate separated by an auxiliary of conditional variance s.

    Difference of the authorized and unauthorized coalitions' information
    advantage about the auxiliary; may be negative for degraded pairs
    (snr_authorized < snr_unauthorized).
    """
    s = _check_sigma(sigma2_cond, spec)
    return _rate_gap(s, snr_authorized, spec) - _rate_gap(s, snr_unauthorized, spec)


def optimal_conditional_variance(spec: SourceSpec, snr_authorized: float, rp) -> float:
    """The conditional variance at which public_rate exactly spends rp.

    Closed form: sigma2_x / (sigma2_x * snr_a * (2^(2 rp) - 1) + 2^(2 rp)).
    rp = 0 returns sigma2_x exactly.  From rp = 512 on, 2^(2 rp) passes the
    largest float, so numerator and denominator are divided by it.
    """
    rp = _check_finite_rate(rp)
    sx = spec.sigma2_x
    if rp >= 512.0:
        shrink = 2.0 ** (-2.0 * rp)
        return sx * shrink / (sx * float(snr_authorized) * (1.0 - shrink) + 1.0)
    growth = 2.0 ** (2.0 * rp)
    return sx / (sx * float(snr_authorized) * (growth - 1.0) + growth)


@dataclass(frozen=True)
class CapacityPoint:
    """One point of the secret-capacity curve.

    sigma2_star is the maximizing conditional variance; None when rp is
    UNLIMITED (the supremum is approached as s -> 0+, never attained).
    """

    rp: "float | UnlimitedRate"
    cs: float
    sigma2_star: float | None
    extremal: ExtremalSets


@dataclass(frozen=True)
class RateRegion:
    points: tuple[CapacityPoint, ...]
    cs_infinity: float


def _capacity_value(spec: SourceSpec, ext: ExtremalSets, rp) -> float:
    """Closed-form capacity given precomputed extremal SNRs (clamped at 0)."""
    sx = spec.sigma2_x
    o_a, o_u = ext.snr_authorized, ext.snr_unauthorized
    if o_a <= o_u:
        return 0.0  # degraded: the clamp is active for every rp
    den = sx * o_u + 1.0
    if is_unlimited(rp):
        num = sx * o_a + 1.0
    else:
        if rp == 0.0:
            return 0.0
        # num = (sx*o_a + 1) - sx*(o_a - o_u)*2^(-2 rp): monotone in rp even
        # under rounding, which keeps swept regions exactly nondecreasing.
        shrink = 2.0 ** (-2.0 * rp)
        num = (sx * o_a + 1.0) - sx * (o_a - o_u) * shrink
    return max(0.0, 0.5 * math.log2(num / den))


def secret_capacity(spec: SourceSpec, structure: AccessStructure, rp) -> CapacityPoint:
    """Secret capacity at public rate rp (float >= 0 or UNLIMITED)."""
    rp = _check_rate(rp)
    ext = extremal_sets(structure, spec)
    cs = _capacity_value(spec, ext, rp)
    sigma2_star = (
        None
        if is_unlimited(rp)
        else optimal_conditional_variance(spec, ext.snr_authorized, rp)
    )
    return CapacityPoint(rp=rp, cs=cs, sigma2_star=sigma2_star, extremal=ext)


def rate_region(
    spec: SourceSpec, structure: AccessStructure, rp_grid: Sequence[float]
) -> RateRegion:
    """Capacity sweep over a strictly increasing nonnegative rp grid."""
    grid = [float(r) for r in rp_grid]
    if not grid:
        raise EmptyGrid("rp grid must contain at least one point")
    if any(r < 0 or math.isnan(r) or math.isinf(r) for r in grid):
        raise DomainError("rp grid values must be finite and nonnegative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("rp grid must be strictly increasing")

    ext = extremal_sets(structure, spec)
    points = tuple(
        CapacityPoint(
            rp=rp,
            cs=_capacity_value(spec, ext, rp),
            sigma2_star=optimal_conditional_variance(spec, ext.snr_authorized, rp),
            extremal=ext,
        )
        for rp in grid
    )
    return RateRegion(points=points, cs_infinity=_capacity_value(spec, ext, UNLIMITED))


class Dominance:
    """Verdict tokens for threshold comparisons."""

    AT_LEAST = "at_least"  # cs(t) >= cs(t+i) for every rp
    AT_MOST = "at_most"  # cs(t) <= cs(t+i) for every rp


@dataclass(frozen=True)
class ThresholdComparison:
    t: int
    i: int
    rp: "float | UnlimitedRate"
    lhs: float | None  # ratio-test left side; None when the fallback was used
    rhs: float
    verdict: str  # Dominance token
    cs_t: float
    cs_t_plus_i: float
    used_fallback: bool


def threshold_compare(
    spec: SourceSpec, l: int, t: int, i: int, rp
) -> ThresholdComparison:
    """Compare threshold-t capacity against threshold-(t+i) via the ratio test.

    The verdict holds for every public rate; the supplied rp is used for the
    internal cross-check against direct capacity evaluation.  When raising
    the threshold leaves the weakest authorized SNR unchanged (zero ratio
    denominator) the verdict falls back to that direct comparison.
    """
    rp = _check_rate(rp)
    t, i = int(t), int(i)
    if t < 1 or i < 1 or t + i > int(l):
        raise IndexOutOfRange(f"need 1 <= t, 1 <= i, t+i <= l; got t={t}, i={i}, l={l}")
    return _compare_on_chain(spec, threshold_extremal_chain(spec, l), t, i, rp)


def _compare_on_chain(
    spec: SourceSpec, chain: Sequence[ExtremalSets], t: int, i: int, rp
) -> ThresholdComparison:
    """threshold_compare's ratio test and cross-check on a prebuilt
    threshold_extremal_chain; t, i and rp are already validated."""
    lo, hi = chain[t - 1], chain[t + i - 1]
    sx = spec.sigma2_x

    cs_t = _capacity_value(spec, lo, rp)
    cs_ti = _capacity_value(spec, hi, rp)

    rhs = (1.0 + sx * lo.snr_unauthorized) / (1.0 + sx * lo.snr_authorized)
    lhs_den = hi.snr_authorized - lo.snr_authorized
    if lhs_den == 0.0:
        lhs = None
        used_fallback = True
        verdict = Dominance.AT_LEAST if cs_t >= cs_ti else Dominance.AT_MOST
    else:
        lhs = (hi.snr_unauthorized - lo.snr_unauthorized) / lhs_den
        used_fallback = False
        verdict = Dominance.AT_LEAST if lhs >= rhs else Dominance.AT_MOST

    # The ratio test and direct evaluation must never disagree beyond noise.
    if verdict == Dominance.AT_LEAST and cs_t < cs_ti - 1e-9:
        raise NumericError("ratio test says at_least but capacities disagree")
    if verdict == Dominance.AT_MOST and cs_t > cs_ti + 1e-9:
        raise NumericError("ratio test says at_most but capacities disagree")

    return ThresholdComparison(
        t=t,
        i=i,
        rp=rp,
        lhs=lhs,
        rhs=rhs,
        verdict=verdict,
        cs_t=cs_t,
        cs_t_plus_i=cs_ti,
        used_fallback=used_fallback,
    )


@dataclass(frozen=True)
class SaddleCheck:
    """Brute-force minimax evaluation next to the closed form."""

    rp: "float | UnlimitedRate"
    grid_size: int
    min_min_max: float
    max_min_min: float
    closed_form: float
    extremal: ExtremalSets

    @property
    def saddle_gap(self) -> float:
        return abs(self.min_min_max - self.max_min_min)

    @property
    def oracle_gap(self) -> float:
        return abs(self.min_min_max - self.closed_form)


def saddle_check(
    spec: SourceSpec, structure: AccessStructure, rp, grid_size: int = 10_000
) -> SaddleCheck:
    """Grid evaluation of both optimization orders of the converse.

    min-min-max: min over authorized A of max over s feasible for A at rp of
    min over unauthorized U of the secret rate.  It equals the per-pair order
    (min over A and U of max over s) only because one U, the strongest, has
    the largest gap at every s.  max-min-min: swap the order, with
    feasibility anchored at the weakest authorized coalition.  The grid is
    log-spaced on [sigma2_x * 1e-8, sigma2_x] and always contains sigma2_x
    (feasible at every rp, where the objective is exactly zero) plus the
    analytic feasibility boundary; the boundary point dominates, so the grid
    verifies rather than finds the optimum.  Raises BudgetExceeded, before
    any work, when grid_size times the larger family passes
    _ORACLE_CELL_BUDGET; that bounds the time spent, not a matrix.

    Both orders read two grid columns: the largest unauthorized gap, taken
    in blocks of unauthorized rows, and the smallest authorized gap, taken
    while min-min-max runs in blocks of authorized rows.  Such a block also
    holds its edge points against the unauthorized family.  Each matrix has
    at most _ORACLE_BLOCK_CELLS cells (1 MiB), or is one coalition's row
    when grid_size or the unauthorized family alone is larger, so peak
    memory is a few grid- or family-sized rows: no matrix spans a whole
    family against the grid, or the two families against each other.
    Every cell sees the same float operations as a per-coalition loop, and
    max and min are exact, so the result does not depend on the block size.
    """
    rp = _check_rate(rp)
    grid_size = int(grid_size)
    if grid_size < 100:
        raise DomainError("grid_size must be at least 100")
    family = max(structure.authorized_masks.size, structure.unauthorized_masks.size)
    if family * grid_size > _ORACLE_CELL_BUDGET:
        raise BudgetExceeded(f"grid_size {grid_size} times {family} coalitions exceeds "
                             f"the oracle budget of {_ORACLE_CELL_BUDGET} cells")

    ext = extremal_sets(structure, spec)
    sx = spec.sigma2_x
    # tuples built from masks are canonical: skip derive_gain_vector's checks
    snr_a = np.array([_gains_and_snr(spec, s)[1] for s in structure.authorized])
    snr_u = np.array([_gains_and_snr(spec, s)[1] for s in structure.unauthorized])
    grid = np.geomspace(sx * 1e-8, sx, grid_size)

    def gap_matrix(svec: np.ndarray, snr: np.ndarray) -> np.ndarray:
        # (len(snr), len(svec)) array of _rate_gap values
        num = sx * snr[:, None] + 1.0
        den = svec[None, :] * snr[:, None] + 1.0
        return 0.5 * np.log2(num / den)

    def boundary(snr: float) -> float:
        if is_unlimited(rp):
            return float(grid[0])
        return optimal_conditional_variance(spec, snr, rp)

    # min over A of (max over feasible s of (min over U of secret rate)); the
    # min over U subtracts each column's largest unauthorized gap, which does
    # not depend on A, so it is taken once for the grid, in blocks of U's.
    # Each block of A's takes the maximum over its own edge points'
    # unauthorized gaps, then over the feasible grid points, infeasible ones
    # masked to -inf; it also lowers each column's least authorized gap.
    max_u_grid = np.full(grid_size, -np.inf)
    rows = max(1, _ORACLE_BLOCK_CELLS // grid_size)
    for lo in range(0, snr_u.size, rows):
        np.maximum(max_u_grid, np.max(gap_matrix(grid, snr_u[lo : lo + rows]), axis=0),
                   out=max_u_grid)
    min_a_grid = np.full(grid_size, np.inf)
    s_edges = np.array([boundary(float(oa)) for oa in snr_a])
    per_a_max = np.empty(snr_a.shape, dtype=float)
    rows = max(1, _ORACLE_BLOCK_CELLS // max(grid_size, snr_u.size))
    for lo in range(0, snr_a.size, rows):
        block = slice(lo, lo + rows)
        oa, edge = snr_a[block], s_edges[block]
        edge_max = 0.5 * np.log2((sx * oa + 1.0) / (edge * oa + 1.0)) - np.max(
            gap_matrix(edge, snr_u), axis=0
        )
        col = oa[:, None]
        gap_a = 0.5 * np.log2((sx * col + 1.0) / (grid * col + 1.0))
        np.minimum(min_a_grid, np.min(gap_a, axis=0), out=min_a_grid)
        gap_a -= max_u_grid
        gap_a[grid < edge[:, None]] = -np.inf
        per_a_max[block] = np.maximum(edge_max, np.max(gap_a, axis=1))
    min_min_max = float(np.min(per_a_max))

    # max over s feasible at the weakest authorized coalition of
    # (min over pairs of secret rate); separable into min_A - max_U, read
    # from the grid columns above plus the edge point.
    s_edge = boundary(float(ext.snr_authorized))
    feasible = grid >= s_edge
    edge_point = np.array([s_edge])
    edge_inner = np.min(gap_matrix(edge_point, snr_a)) - np.max(gap_matrix(edge_point, snr_u))
    inner = np.append(min_a_grid[feasible] - max_u_grid[feasible], edge_inner)
    max_min_min = float(np.max(inner))

    return SaddleCheck(
        rp=rp,
        grid_size=grid_size,
        min_min_max=min_min_max,
        max_min_min=max_min_min,
        closed_form=_capacity_value(spec, ext, rp),
        extremal=ext,
    )


def minimax_oracle(
    spec: SourceSpec, structure: AccessStructure, rp, grid_size: int = 10_000
) -> float:
    """Brute-force capacity value; raises if the saddle orders disagree."""
    check = saddle_check(spec, structure, rp, grid_size)
    _check_saddle_orders(check)
    return check.min_min_max


def _check_saddle_orders(check: SaddleCheck) -> None:
    """NumericError when the two optimization orders differ by more than
    1e-9 relative to the min-min-max value (absolute below 1)."""
    if check.saddle_gap > 1e-9 * max(1.0, abs(check.min_min_max)):
        raise NumericError(
            f"saddle orders disagree: {check.min_min_max!r} vs {check.max_min_min!r}"
        )


@dataclass(frozen=True)
class PairRates:
    authorized: tuple[int, ...]
    unauthorized: tuple[int, ...]
    logdet: float
    scalar: float


@dataclass(frozen=True)
class RateFormulaReport:
    sigma2_cond: float
    rp_logdet: float
    rp_scalar: float
    rs_logdet: float
    rs_scalar: float
    per_authorized: tuple[tuple[tuple[int, ...], float, float], ...]
    per_pair: tuple[PairRates, ...]
    max_rel_err: float


def _logdet2(matrix: np.ndarray) -> float:
    """log2 det of a (possibly 0x0) positive definite matrix."""
    if matrix.size == 0:
        return 0.0
    sign, logdet = np.linalg.slogdet(matrix)
    if sign <= 0:
        raise NumericError("expected a positive determinant")
    return float(logdet / math.log(2.0))


def verify_rate_formulas(
    spec: SourceSpec, structure: AccessStructure, sigma2_cond: float
) -> RateFormulaReport:
    """Compute the public and secret rates along two independent routes.

    Route one works with matrix log-determinants of the whitened observation
    covariances H S H^T + I (differential-entropy bookkeeping); route two uses
    the scalar effective-SNR forms.  They are equal by the rank-one
    determinant identity; disagreement beyond 1e-9 relative raises
    NumericError.  The public rate is the maximum over authorized sets, the
    secret rate the minimum over authorized/unauthorized pairs.
    """
    s = _check_sigma(sigma2_cond, spec)
    sx = spec.sigma2_x

    def logdet_form(subset: tuple[int, ...], var: float) -> float:
        h = derive_gain_vector(spec, subset).gains
        mat = var * np.outer(h, h) + np.eye(h.size)
        return _logdet2(mat)

    def visible_gap(subset: tuple[int, ...]) -> tuple[float, float]:
        """(logdet, scalar) forms of the auxiliary information visible to subset."""
        snr = derive_gain_vector(spec, subset).snr
        logdet = 0.5 * (logdet_form(subset, sx) - logdet_form(subset, s))
        scalar = _rate_gap(s, snr, spec)
        return logdet, scalar

    rel_errs = [0.0]

    def record(a: float, b: float) -> None:
        rel_errs.append(abs(a - b) / max(1.0, abs(a), abs(b)))

    base = 0.5 * math.log2(sx / s)
    per_authorized = []
    a_gaps: dict[tuple[int, ...], tuple[float, float]] = {}
    for subset in structure.authorized:
        gap_ld, gap_sc = visible_gap(subset)
        a_gaps[subset] = (gap_ld, gap_sc)
        rp_ld, rp_sc = base - gap_ld, base - gap_sc
        record(rp_ld, rp_sc)
        per_authorized.append((subset, rp_ld, rp_sc))

    u_gaps = {subset: visible_gap(subset) for subset in structure.unauthorized}
    per_pair = []
    for a_subset, (a_ld, a_sc) in a_gaps.items():
        for u_subset, (u_ld, u_sc) in u_gaps.items():
            rs_ld, rs_sc = a_ld - u_ld, a_sc - u_sc
            record(rs_ld, rs_sc)
            per_pair.append(
                PairRates(
                    authorized=a_subset,
                    unauthorized=u_subset,
                    logdet=rs_ld,
                    scalar=rs_sc,
                )
            )

    max_rel_err = max(rel_errs)
    if max_rel_err > 1e-9:
        raise NumericError(
            f"log-det and scalar rate formulas disagree (rel err {max_rel_err:.3e})"
        )
    return RateFormulaReport(
        sigma2_cond=s,
        rp_logdet=max(rp for _, rp, _ in per_authorized),
        rp_scalar=max(rp for _, _, rp in per_authorized),
        rs_logdet=min(p.logdet for p in per_pair),
        rs_scalar=min(p.scalar for p in per_pair),
        per_authorized=tuple(per_authorized),
        per_pair=tuple(per_pair),
        max_rel_err=max_rel_err,
    )
