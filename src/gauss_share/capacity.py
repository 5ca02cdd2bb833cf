"""Secret-sharing capacity of Gaussian sources over a rate-limited public channel.

Everything here reduces to two scalar functions of the conditional variance
s = sigma2_{X|V} of the dealer's variable given the Gaussian auxiliary:

    public_rate(s, o_a)      -- public bits/symbol consumed by the auxiliary
    secret_rate(s, o_a, o_u) -- secret bits/symbol it separates

with o_a, o_u the effective SNR coefficients of the weakest authorized and
strongest unauthorized coalitions.  The capacity at public rate rp is the
closed form obtained by substituting the optimal s (optimal_conditional_variance);
saddle_check re-derives it by brute force over a s-grid, in both min-min-max
and max-min-min order, to verify the saddle-point structure numerically.
All rates are bits per source symbol, all logs base 2.

Each public function reads its caller's values once (_check_rate reads a
public rate); internal callers pass the private helpers checked floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .access_structure import (
    AccessStructure,
    ExtremalSets,
    _extremal_from_table,
    _snr_table,
    extremal_sets,
    threshold_extremal_chain,
)
from .errors import (
    BudgetExceeded,
    DomainError,
    EmptyGrid,
    NegativeRate,
    NumericError,
    _check_count,
    _check_real,
    _check_reals,
)
from .source_model import SourceSpec, derive_gain_vector

__all__ = [
    "UNLIMITED",
    "UnlimitedRate",
    "CapacityPoint",
    "SaddleCheck",
    "ThresholdComparison",
    "is_unlimited",
    "optimal_conditional_variance",
    "public_rate",
    "rate_region",
    "saddle_check",
    "secret_capacity",
    "secret_rate",
    "threshold_compare",
    "verify_rate_formulas",
]

_ORACLE_CELL_BUDGET = 20_000_000  # saddle_check's work: grid x larger family, A x U
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


def _check_rate(rp):
    if is_unlimited(rp):
        return UNLIMITED
    rp = _check_real(rp, "public rate", DomainError)
    if math.isnan(rp) or math.isinf(rp):
        raise DomainError("non-finite public rate; use UNLIMITED for an unbounded channel")
    if rp < 0:
        raise NegativeRate("public rate must be nonnegative")
    return rp + 0.0  # -0.0 reads as 0.0


def _check_sigma(sigma2_cond: float, spec: SourceSpec) -> float:
    s = _check_real(sigma2_cond, "conditional variance", DomainError)
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
    snr_a = _check_real(snr_authorized, "snr", DomainError)
    base = 0.5 * (math.log2(spec.sigma2_x) - math.log2(s))  # no overflow at a subnormal s
    return base - _rate_gap(s, snr_a, spec)


def secret_rate(
    sigma2_cond: float, snr_authorized: float, snr_unauthorized: float, spec: SourceSpec
) -> float:
    """Secret rate separated by an auxiliary of conditional variance s.

    Difference of the authorized and unauthorized coalitions' information
    advantage about the auxiliary; may be negative for degraded pairs
    (snr_authorized < snr_unauthorized).
    """
    s = _check_sigma(sigma2_cond, spec)
    snr_a = _check_real(snr_authorized, "snr", DomainError)
    snr_u = _check_real(snr_unauthorized, "snr", DomainError)
    return _rate_gap(s, snr_a, spec) - _rate_gap(s, snr_u, spec)


def _sigma2_star(sx: float, snr_a: float, rp: float) -> float:
    """optimal_conditional_variance's closed form at checked floats:
    sx / (sx * snr_a * (2^(2 rp) - 1) + 2^(2 rp)).  rp = 0 gives sx exactly.
    From rp = 512 on, 2^(2 rp) passes the largest float, so numerator and
    denominator are divided by it; below that, a denominator that overflows
    is divided through by sx."""
    if rp >= 512.0:
        shrink = 2.0 ** (-2.0 * rp)
        return sx * shrink / (sx * snr_a * (1.0 - shrink) + 1.0)
    growth = 2.0 ** (2.0 * rp)
    denominator = sx * snr_a * (growth - 1.0) + growth
    if not math.isfinite(denominator):
        return 1.0 / (snr_a * (growth - 1.0) + growth / sx)
    return sx / denominator


def optimal_conditional_variance(spec: SourceSpec, snr_authorized: float, rp) -> float:
    """The conditional variance at which public_rate exactly spends rp, a
    finite rate (see _sigma2_star for the closed form)."""
    rp = _check_rate(rp)
    if is_unlimited(rp):
        raise DomainError("this operation needs a finite public rate")
    snr_a = _check_real(snr_authorized, "snr_authorized", DomainError)
    return _sigma2_star(spec.sigma2_x, snr_a, rp)


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


def _point(spec: SourceSpec, ext: ExtremalSets, rp) -> CapacityPoint:
    """The capacity point at a checked rate rp, given the extremal pair."""
    s = None if is_unlimited(rp) else _sigma2_star(spec.sigma2_x, ext.snr_authorized, rp)
    return CapacityPoint(rp=rp, cs=_capacity_value(spec, ext, rp), sigma2_star=s, extremal=ext)


def secret_capacity(spec: SourceSpec, structure: AccessStructure, rp) -> CapacityPoint:
    """Secret capacity at public rate rp (float >= 0 or UNLIMITED)."""
    rp = _check_rate(rp)
    return _point(spec, extremal_sets(structure, spec), rp)


def rate_region(
    spec: SourceSpec, structure: AccessStructure, rp_grid: Sequence[float]
) -> tuple[CapacityPoint, ...]:
    """Capacity sweep over a strictly increasing nonnegative rp grid: one
    CapacityPoint per rate, in grid order.  The saturation value is
    secret_capacity(spec, structure, UNLIMITED).cs."""
    grid = _check_reals(rp_grid, "rp grid", DomainError) + 0.0  # -0.0 reads as 0.0
    if grid.ndim != 1:
        raise DomainError("rp grid must be a sequence of rates")
    if not grid.size:
        raise EmptyGrid("rp grid must contain at least one point")
    if not (np.isfinite(grid) & (grid >= 0)).all():
        raise DomainError("rp grid values must be finite and nonnegative")
    if (np.diff(grid) <= 0).any():
        raise DomainError("rp grid must be strictly increasing")

    ext = extremal_sets(structure, spec)
    return tuple(_point(spec, ext, rp) for rp in grid.tolist())


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


def threshold_compare(spec: SourceSpec, rp) -> tuple[ThresholdComparison, ...]:
    """Compare threshold-t capacity against threshold-(t+i) via the ratio test,
    for every pair 1 <= t < t+i <= l of the source's l participants, in
    (t, i) order; () when l = 1.

    All pairs read one threshold_extremal_chain.  Each verdict holds for
    every public rate; the supplied rp is used for the internal cross-check
    against the capacities the chain gives at that rate, and NumericError
    is raised when the two disagree.  When raising the threshold leaves the
    weakest authorized SNR unchanged (zero ratio denominator) the verdict
    falls back to that direct comparison.
    """
    rp = _check_rate(rp)
    chain = threshold_extremal_chain(spec)
    sx = spec.sigma2_x
    comparisons = []
    for t, lo in enumerate(chain[:-1], start=1):
        cs_t = _capacity_value(spec, lo, rp)
        rhs = (1.0 + sx * lo.snr_unauthorized) / (1.0 + sx * lo.snr_authorized)
        for i, hi in enumerate(chain[t:], start=1):
            cs_ti = _capacity_value(spec, hi, rp)
            lhs_den = hi.snr_authorized - lo.snr_authorized
            if lhs_den == 0.0:
                lhs = None
                verdict = Dominance.AT_LEAST if cs_t >= cs_ti else Dominance.AT_MOST
            else:
                lhs = (hi.snr_unauthorized - lo.snr_unauthorized) / lhs_den
                verdict = Dominance.AT_LEAST if lhs >= rhs else Dominance.AT_MOST

            # The ratio test and direct evaluation must never disagree beyond noise.
            if verdict == Dominance.AT_LEAST and cs_t < cs_ti - 1e-9:
                raise NumericError("ratio test says at_least but capacities disagree")
            if verdict == Dominance.AT_MOST and cs_t > cs_ti + 1e-9:
                raise NumericError("ratio test says at_most but capacities disagree")

            comparisons.append(ThresholdComparison(
                t=t, i=i, rp=rp, lhs=lhs, rhs=rhs, verdict=verdict, cs_t=cs_t, cs_t_plus_i=cs_ti,
            ))
    return tuple(comparisons)


@dataclass(frozen=True)
class SaddleCheck:
    """Brute-force minimax evaluation next to the closed form.

    Construction raises NumericError when the two orders differ by more than
    1e-9 relative to min_min_max (absolute below 1), or when either is NaN,
    so a SaddleCheck whose orders disagree cannot exist.
    """

    rp: "float | UnlimitedRate"
    grid_size: int
    min_min_max: float
    max_min_min: float
    closed_form: float
    extremal: ExtremalSets

    def __post_init__(self) -> None:
        # a NaN order fails the "<=" test, so it is refused too
        if not self.saddle_gap <= 1e-9 * max(1.0, abs(self.min_min_max)):
            raise NumericError(
                f"saddle orders disagree: {self.min_min_max!r} vs {self.max_min_min!r}"
            )

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
    verifies rather than finds the optimum.  Orders that disagree raise
    NumericError (see SaddleCheck), so min_min_max is a checked value.

    The oracle evaluates (|A| + |U|) * live gaps on the grid, live being
    the grid points at or above the smallest authorized edge (the only ones
    either order reads), and |A| * |U| at the authorized edge points.
    Raises BudgetExceeded, before any work, when grid_size times the larger
    family or the authorized family times the unauthorized one passes
    _ORACLE_CELL_BUDGET; the check counts the full grid, so whether a
    request is refused does not depend on rp.  Every family-by-points
    matrix is taken in row blocks of at most _ORACLE_BLOCK_CELLS cells
    (1 MiB), or one row when the points alone are more, each computed in
    place in one buffer that holds either, so peak memory is that buffer
    and a few point-sized columns.  The buffer's ufuncs run in _rate_gap's
    order, and max and min are exact, so the result does not depend on the
    block size.
    """
    rp = _check_rate(rp)
    grid_size = _check_count(grid_size, "grid_size", DomainError)
    if grid_size < 100:
        raise DomainError("grid_size must be at least 100")
    n_a, n_u = structure.authorized_masks.size, structure.unauthorized_masks.size
    family = max(n_a, n_u)
    if family * grid_size > _ORACLE_CELL_BUDGET:
        raise BudgetExceeded(f"grid_size {grid_size} times {family} coalitions exceeds "
                             f"the oracle budget of {_ORACLE_CELL_BUDGET} cells")
    if n_a * n_u > _ORACLE_CELL_BUDGET:
        raise BudgetExceeded(f"{n_a} authorized times {n_u} unauthorized coalitions "
                             f"exceeds the oracle budget of {_ORACLE_CELL_BUDGET} cells")

    table = _snr_table(spec)
    ext = _extremal_from_table(structure, table)
    sx = spec.sigma2_x
    snr_a, snr_u = table[structure.authorized_masks], table[structure.unauthorized_masks]
    grid = np.geomspace(sx * 1e-8, sx, grid_size)

    def boundary(snr: float) -> float:
        if is_unlimited(rp):
            return float(grid[0])
        return _sigma2_star(sx, snr, rp)

    # Only the live columns, grid points at or above the smallest authorized
    # edge, are evaluated.  An A reads no column below its own edge, where it
    # is infeasible (masked to -inf), so no A reads a column below the
    # smallest edge.  The max-min-min order reads the columns at or above the
    # weakest A's edge, which is one of these edges (the largest, as
    # optimal_conditional_variance is nonincreasing in the SNR even under
    # rounding).  The last grid point, sigma2_x, is always live.
    s_edges = np.array([boundary(float(oa)) for oa in snr_a])
    live = grid[np.searchsorted(grid, s_edges.min()) :]
    buffer = np.empty(max(_ORACLE_BLOCK_CELLS, live.size, snr_a.size))

    def gap(s, snr, out: np.ndarray) -> np.ndarray:
        # _rate_gap, broadcast over the caller's arrays into out, in its order
        np.multiply(s, snr, out=out)
        np.add(out, 1.0, out=out)
        np.divide(sx * snr + 1.0, out, out=out)
        np.log2(out, out=out)
        return np.multiply(out, 0.5, out=out)

    def blocks(points: np.ndarray, snr: np.ndarray):
        # (rows, gaps of those rows of the family at every point): blocks of
        # at most _ORACLE_BLOCK_CELLS cells, or one row when the points alone
        # are more, each computed in the one buffer, which holds either
        rows = max(1, _ORACLE_BLOCK_CELLS // points.size)
        for lo in range(0, snr.size, rows):
            col = snr[lo : lo + rows, None]
            out = buffer[: col.size * points.size].reshape(col.size, points.size)
            yield slice(lo, lo + rows), gap(points, col, out)

    def largest(points: np.ndarray, snr: np.ndarray) -> np.ndarray:
        # the family's largest gap at each point
        out = np.full(points.size, -np.inf)
        for _, block in blocks(points, snr):
            np.maximum(out, np.max(block, axis=0), out=out)
        return out

    # min over A of (max over feasible s of (min over U of secret rate)); the
    # min over U subtracts the largest unauthorized gap at each s, which does
    # not depend on A.  Each A's maximum is over its edge point and its
    # feasible live points, infeasible ones masked to -inf; the same pass
    # lowers each live column's least authorized gap.
    max_u_live = largest(live, snr_u)
    per_a_max = gap(s_edges, snr_a, np.empty(snr_a.size)) - largest(s_edges, snr_u)
    min_a_live = np.full(live.size, np.inf)
    for rows, gap_a in blocks(live, snr_a):
        np.minimum(min_a_live, np.min(gap_a, axis=0), out=min_a_live)
        gap_a -= max_u_live
        gap_a[live < s_edges[rows, None]] = -np.inf
        np.maximum(per_a_max[rows], np.max(gap_a, axis=1), out=per_a_max[rows])
    min_min_max = float(np.min(per_a_max))

    # max over s feasible at the weakest authorized coalition of
    # (min over pairs of secret rate); separable into min_A - max_U, read
    # from the live columns above plus the edge point.
    s_edge = boundary(float(ext.snr_authorized))
    feasible = live >= s_edge
    edge_inner = np.min(gap(s_edge, snr_a, buffer[: snr_a.size]))
    edge_inner -= largest(np.array([s_edge]), snr_u)[0]
    inner = np.append(min_a_live[feasible] - max_u_live[feasible], edge_inner)
    max_min_min = float(np.max(inner))

    return SaddleCheck(
        rp=rp,
        grid_size=grid_size,
        min_min_max=min_min_max,
        max_min_min=max_min_min,
        closed_form=_capacity_value(spec, ext, rp),
        extremal=ext,
    )


@dataclass(frozen=True)
class RateFormulaReport:
    sigma2_cond: float
    rp_logdet: float
    rp_scalar: float
    rs_logdet: float
    rs_scalar: float
    per_authorized: tuple[tuple[tuple[int, ...], float, float], ...]
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
    determinant identity.  Each coalition's visible gap is computed once per
    route.  The public rate is the base rate less the smallest authorized
    gap; the secret rate, a minimum over (authorized, unauthorized) pairs of
    the gap difference, is the smallest authorized gap less the largest
    unauthorized one, which rounds to the same float as that minimum.

    max_rel_err is the larger of two checks.  Per authorized set: the public
    routes' difference relative to max(1, |rate|).  Over all pairs: the
    largest difference of the routes' disagreements d = logdet - scalar
    between an authorized and an unauthorized set, which bounds every pair's
    secret-rate disagreement.  Above 1e-9, or non-finite, raises NumericError.
    """
    s = _check_sigma(sigma2_cond, spec)
    sx = spec.sigma2_x

    def visible_gap(subset: tuple[int, ...]) -> tuple[float, float]:
        """(logdet, scalar) forms of the auxiliary information subset sees,
        from one whitening of its observations."""
        h = derive_gain_vector(spec, subset)
        outer, eye = np.outer(h.gains, h.gains), np.eye(h.gains.size)
        logdet = 0.5 * (_logdet2(sx * outer + eye) - _logdet2(s * outer + eye))
        return logdet, _rate_gap(s, h.snr, spec)

    a_ld, a_sc = np.array([visible_gap(a) for a in structure.authorized]).T
    u_ld, u_sc = np.array([visible_gap(u) for u in structure.unauthorized]).T

    # two logs, not log2(sx / s), which overflows for a subnormal s
    base = 0.5 * (math.log2(sx) - math.log2(s))
    rp_ld, rp_sc = base - a_ld, base - a_sc
    rp_err = np.abs(rp_ld - rp_sc) / np.maximum(1.0, np.maximum(np.abs(rp_ld), np.abs(rp_sc)))
    d_a, d_u = a_ld - a_sc, u_ld - u_sc
    pair_err = np.maximum(d_a.max() - d_u.min(), d_u.max() - d_a.min())
    # np.max keeps a NaN, which the negated comparison then refuses
    max_rel_err = float(np.max(rp_err, initial=pair_err))
    if not max_rel_err <= 1e-9:
        raise NumericError(
            f"log-det and scalar rate formulas disagree (rel err {max_rel_err:.3e})"
        )
    return RateFormulaReport(
        sigma2_cond=s,
        rp_logdet=float(rp_ld.max()),
        rp_scalar=float(rp_sc.max()),
        rs_logdet=float(a_ld.min() - u_ld.max()),
        rs_scalar=float(a_sc.min() - u_sc.max()),
        per_authorized=tuple(zip(structure.authorized, rp_ld.tolist(), rp_sc.tolist())),
        max_rel_err=max_rel_err,
    )
