"""Capacity layer tests.

Closed forms are checked against independently written expressions, the
optimal conditional variance against its defining equation (public_rate
round trip), threshold comparisons against direct capacity evaluation, and
the grid oracle against the closed form on random instances.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_share import access_structure, capacity
from gauss_share.access_structure import (
    extremal_sets,
    monotone_closure,
    threshold_structure,
)
from gauss_share.capacity import (
    UNLIMITED,
    SaddleCheck,
    is_unlimited,
    optimal_conditional_variance,
    public_rate,
    rate_region,
    saddle_check,
    secret_capacity,
    secret_rate,
    threshold_compare,
    verify_rate_formulas,
)
from gauss_share.errors import (
    BudgetExceeded,
    DomainError,
    EmptyGrid,
    NegativeRate,
    NumericError,
)
from gauss_share.source_model import SourceSpec, derive_gain_vector

SPEC3 = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
STRUCT3 = monotone_closure(3, [[1, 2], [2, 3]])


def closed_form_cs(sigma2_x, o_a, o_u, rp):
    """Independent transcription of the capacity expression."""
    if rp is None:  # unlimited
        num = sigma2_x * o_a + 1.0
    else:
        w = 2.0 ** (-2.0 * rp)
        num = sigma2_x * o_u * w + sigma2_x * o_a * (1.0 - w) + 1.0
    return max(0.0, 0.5 * math.log2(num / (sigma2_x * o_u + 1.0)))


def test_public_rate_zero_at_full_variance():
    assert public_rate(2.0, 1.25, SPEC3) == 0.0


def test_public_rate_hand_value():
    # s = 0.5, o_a = 1.25: (1/2)log2(4) - (1/2)log2(3.5/1.625)
    expected = 0.5 * math.log2(2.0 / 0.5) - 0.5 * math.log2(3.5 / 1.625)
    assert public_rate(0.5, 1.25, SPEC3) == pytest.approx(expected, rel=1e-14)


def test_secret_rate_signs():
    assert secret_rate(0.5, 1.25, 1.0, SPEC3) > 0.0
    assert secret_rate(0.5, 1.0, 1.25, SPEC3) < 0.0
    assert secret_rate(0.5, 1.0, 1.0, SPEC3) == 0.0


def test_sigma_domain_enforced():
    for bad in (0.0, -1.0, 2.0 + 1e-9, math.inf):
        with pytest.raises(DomainError):
            public_rate(bad, 1.0, SPEC3)


def test_optimal_variance_at_zero_rate_is_exact():
    assert optimal_conditional_variance(SPEC3, 1.25, 0.0) == 2.0


def test_optimal_variance_inverts_public_rate():
    """public_rate(sigma*(rp)) must give back rp: the defining property."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        sx = float(rng.uniform(0.2, 5.0))
        spec = SourceSpec.from_gains(sx, [1.0])
        o_a = float(rng.uniform(0.01, 4.0))
        rp = float(rng.uniform(0.0, 12.0))
        s = optimal_conditional_variance(spec, o_a, rp)
        assert 0.0 < s <= sx
        assert public_rate(s, o_a, spec) == pytest.approx(rp, abs=1e-9)


@pytest.mark.parametrize("o_a", [0.0, 1.25])
def test_optimal_variance_past_the_largest_power_of_two(o_a):
    # 2^(2 rp) overflows a float from rp = 512 on; the variance there is
    # sigma2_x 2^(-2 rp) / (sigma2_x snr_a (1 - 2^(-2 rp)) + 1), subnormal
    # at rp = 512 and zero once 2^(-2 rp) underflows.
    at = optimal_conditional_variance(SPEC3, o_a, 512.0)
    assert 0.0 < at == pytest.approx(2.0 * 2.0**-1024 / (2.0 * o_a + 1.0), rel=1e-12, abs=0.0)
    assert optimal_conditional_variance(SPEC3, o_a, 600.0) == 0.0
    assert secret_capacity(SPEC3, STRUCT3, 600.0).cs == secret_capacity(
        SPEC3, STRUCT3, UNLIMITED
    ).cs


def test_optimal_variance_rejects_unlimited():
    with pytest.raises(DomainError):
        optimal_conditional_variance(SPEC3, 1.0, UNLIMITED)
    with pytest.raises(DomainError):
        optimal_conditional_variance(SPEC3, 1.0, math.inf)
    with pytest.raises(NegativeRate):
        optimal_conditional_variance(SPEC3, 1.0, -0.5)


def test_capacity_zero_at_zero_rate():
    pt = secret_capacity(SPEC3, STRUCT3, 0.0)
    assert pt.cs == 0.0
    assert pt.sigma2_star == 2.0


def test_capacity_unlimited_closed_form():
    pt = secret_capacity(SPEC3, STRUCT3, UNLIMITED)
    assert pt.cs == 0.5 * math.log2(3.5 / 3.0)
    assert pt.sigma2_star is None
    assert is_unlimited(pt.rp)
    assert pt.extremal.min_authorized == (1, 2)
    assert pt.extremal.max_unauthorized == (2,)


def test_capacity_matches_independent_expression():
    rng = np.random.default_rng(5)
    for _ in range(100):
        l = int(rng.integers(2, 5))
        spec = SourceSpec.from_gains(
            float(rng.uniform(0.3, 4.0)), rng.uniform(0.05, 2.0, l)
        )
        structure = threshold_structure(l, int(rng.integers(1, l + 1)))
        rp = float(rng.uniform(0.0, 8.0))
        pt = secret_capacity(spec, structure, rp)
        expected = closed_form_cs(
            spec.sigma2_x, pt.extremal.snr_authorized, pt.extremal.snr_unauthorized, rp
        )
        assert pt.cs == pytest.approx(expected, abs=1e-12)
        pt_inf = secret_capacity(spec, structure, UNLIMITED)
        expected_inf = closed_form_cs(
            spec.sigma2_x, pt.extremal.snr_authorized, pt.extremal.snr_unauthorized, None
        )
        assert pt_inf.cs == pytest.approx(expected_inf, abs=1e-12)


def test_degraded_structure_capacity_is_exactly_zero():
    # the single authorized generator is weaker than an unauthorized set
    spec = SourceSpec.from_gains(2.0, [0.1, 2.0])
    structure = monotone_closure(2, [[1]])
    for rp in (0.0, 0.5, 3.0, UNLIMITED):
        assert secret_capacity(spec, structure, rp).cs == 0.0


def test_capacity_nondecreasing_in_rate_exactly():
    grid = np.linspace(0.0, 6.0, 400)
    values = [p.cs for p in rate_region(SPEC3, STRUCT3, grid)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= secret_capacity(SPEC3, STRUCT3, UNLIMITED).cs


def test_rate_region_fields():
    region = rate_region(SPEC3, STRUCT3, [0.0, 1.0, 2.0])
    assert len(region) == 3
    assert region[0].rp == 0.0
    assert secret_capacity(SPEC3, STRUCT3, UNLIMITED).cs == 0.5 * math.log2(3.5 / 3.0)
    for p in region:
        assert p.sigma2_star is not None


def test_rate_region_grid_validation():
    with pytest.raises(EmptyGrid):
        rate_region(SPEC3, STRUCT3, [])
    with pytest.raises(DomainError):
        rate_region(SPEC3, STRUCT3, [0.0, 0.0])
    with pytest.raises(DomainError):
        rate_region(SPEC3, STRUCT3, [1.0, 0.5])
    with pytest.raises(DomainError):
        rate_region(SPEC3, STRUCT3, [-1.0, 0.5])
    with pytest.raises(DomainError):
        rate_region(SPEC3, STRUCT3, [0.0, math.inf])


def test_negative_zero_rate_reads_as_zero():
    """-0.0 is a valid rate and reads as +0.0, so no result prints "-0"."""
    for rp in (secret_capacity(SPEC3, STRUCT3, -0.0).rp,
               saddle_check(SPEC3, STRUCT3, -0.0, 100).rp,
               rate_region(SPEC3, STRUCT3, [-0.0, 1.0])[0].rp):
        assert rp == 0.0 and math.copysign(1.0, rp) == 1.0


def test_rate_region_points_match_secret_capacity():
    grid = np.linspace(0.0, 5.0, 300)
    region = rate_region(SPEC3, STRUCT3, grid)
    assert len(region) == 300
    for rp, point in zip(grid, region):
        assert point == secret_capacity(SPEC3, STRUCT3, float(rp))


@pytest.mark.parametrize("rp", [True, False, np.True_])
def test_rate_rejects_booleans(rp):
    with pytest.raises(DomainError, match="public rate must be a number"):
        secret_capacity(SPEC3, STRUCT3, rp)
    with pytest.raises(DomainError, match="public rate must be a number"):
        optimal_conditional_variance(SPEC3, 1.0, rp)


def test_rate_rejects_nan_and_bare_inf():
    with pytest.raises(DomainError):
        secret_capacity(SPEC3, STRUCT3, math.nan)
    with pytest.raises(DomainError):
        secret_capacity(SPEC3, STRUCT3, math.inf)
    with pytest.raises(NegativeRate):
        secret_capacity(SPEC3, STRUCT3, -1.0)


def test_unlimited_is_a_singleton():
    from gauss_share.capacity import UnlimitedRate

    assert UnlimitedRate() is UNLIMITED
    assert repr(UNLIMITED) == "UNLIMITED"
    assert not is_unlimited(1.0)


class TestThresholdCompare:
    SPEC5 = SourceSpec.from_gains(2.0, [1.0, 0.85, 0.9, 0.95, 0.75])

    @staticmethod
    def pair(spec, t, i, rp):
        """threshold_compare's comparison of thresholds t and t + i."""
        (comp,) = [c for c in threshold_compare(spec, rp) if (c.t, c.i) == (t, i)]
        return comp

    def test_known_instance_verdict(self):
        comp = self.pair(self.SPEC5, 4, 1, 1.0)
        assert comp.verdict == "at_most"
        assert comp.lhs == pytest.approx(0.7225, abs=1e-12)
        assert comp.rhs == pytest.approx(6.425 / 6.995, rel=1e-12)
        assert comp.cs_t <= comp.cs_t_plus_i + 1e-12

    def test_first_threshold_dominates(self):
        for comp in threshold_compare(self.SPEC5, 2.0):
            if comp.t == 1:
                assert comp.verdict == "at_least"
                assert comp.cs_t >= comp.cs_t_plus_i - 1e-12

    def test_verdict_consistent_with_direct_capacities(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            l = int(rng.integers(2, 7))
            spec = SourceSpec.from_gains(
                float(rng.uniform(0.5, 3.0)), rng.uniform(0.05, 2.0, l)
            )
            rp = float(rng.uniform(0.05, 6.0))
            for comp in threshold_compare(spec, rp):
                if comp.verdict == "at_least":
                    assert comp.cs_t >= comp.cs_t_plus_i - 1e-9
                else:
                    assert comp.cs_t <= comp.cs_t_plus_i + 1e-9

    def test_zero_gain_participants_trigger_fallback(self):
        spec = SourceSpec.from_gains(1.0, [0.0, 0.0, 1.0])
        comp = self.pair(spec, 1, 1, 0.7)
        assert comp.lhs is None

    @pytest.mark.parametrize("l", [1, 2, 3, 5, 8])
    def test_every_pair_once_in_t_i_order(self, l):
        spec = SourceSpec.from_gains(2.0, np.linspace(0.3, 1.2, l))
        comps = threshold_compare(spec, 1.0)
        assert type(comps) is tuple  # () when l = 1
        assert [(c.t, c.i) for c in comps] == [
            (t, i) for t in range(1, l) for i in range(1, l - t + 1)
        ]
        assert all(c.rp == 1.0 for c in comps)

    def test_rate_is_checked_once_even_without_pairs(self):
        with pytest.raises(NegativeRate):
            threshold_compare(SourceSpec.from_gains(2.0, [1.0]), -1.0)
        with pytest.raises(DomainError):
            threshold_compare(self.SPEC5, math.nan)

    # the chain's capacities made to grow (sign 1) or fall (sign -1) with t:
    # SPEC5's first at_least pair, or its first at_most pair, then disagrees
    @pytest.mark.parametrize("sign, verdict", [(1.0, "at_least"), (-1.0, "at_most")])
    def test_capacities_against_the_verdict_raise(self, monkeypatch, sign, verdict):
        monkeypatch.setattr(capacity, "_capacity_value",
                            lambda spec, ext, rp: sign * len(ext.min_authorized))
        with pytest.raises(NumericError,
                           match=f"^ratio test says {verdict} but capacities disagree$"):
            threshold_compare(self.SPEC5, 1.0)


# bitexact: the oracle computes its gaps in place in a block buffer while
# the per-pair reference allocates fresh arrays, so an oracle whose two
# routes reach different log2 loops fails here on one loop set or the other
@pytest.mark.bitexact
class TestSaddleOracle:
    def test_oracle_matches_closed_form_example(self):
        for rp in (0.25, 1.0, 4.0):
            value = saddle_check(SPEC3, STRUCT3, rp, 4000).min_min_max
            pt = secret_capacity(SPEC3, STRUCT3, rp)
            assert value == pytest.approx(pt.cs, abs=1e-5)

    def test_orders_agree(self):
        chk = saddle_check(SPEC3, STRUCT3, 1.0, 2000)
        assert chk.saddle_gap <= 1e-12
        assert chk.oracle_gap <= 1e-6

    @staticmethod
    def constructed(min_min_max, max_min_min):
        ext = extremal_sets(STRUCT3, SPEC3)
        return SaddleCheck(rp=1.0, grid_size=100, min_min_max=min_min_max,
                           max_min_min=max_min_min, closed_form=0.0, extremal=ext)

    @pytest.mark.parametrize("min_min_max, max_min_min", [
        (0.1, 0.5), (0.1, math.nan), (math.nan, 0.1), (math.nan, math.nan),
        (2.0, 2.0 + 5e-9),  # 1e-9 relative to the larger-than-1 order is 2e-9
    ])
    def test_disagreeing_orders_cannot_be_constructed(self, min_min_max, max_min_min):
        with pytest.raises(NumericError, match="saddle orders disagree"):
            self.constructed(min_min_max, max_min_min)

    @pytest.mark.parametrize("min_min_max, max_min_min", [
        (0.1, 0.1 + 5e-10), (2.0, 2.0 + 1.5e-9), (0.0, 0.0),
    ])
    def test_orders_within_tolerance_are_kept(self, min_min_max, max_min_min):
        chk = self.constructed(min_min_max, max_min_min)
        assert (chk.min_min_max, chk.max_min_min) == (min_min_max, max_min_min)

    def test_degraded_instance_oracle_is_zero(self):
        spec = SourceSpec.from_gains(2.0, [0.1, 2.0])
        structure = monotone_closure(2, [[1]])
        assert saddle_check(spec, structure, 1.0, 1000).min_min_max == 0.0

    def test_unlimited_rate_supported(self):
        chk = saddle_check(SPEC3, STRUCT3, UNLIMITED, 4000)
        assert chk.oracle_gap <= 1e-6
        assert is_unlimited(chk.rp)

    def test_grid_size_floor(self):
        with pytest.raises(DomainError):
            saddle_check(SPEC3, STRUCT3, 1.0, 50)

    @pytest.mark.parametrize("grid_size", [150.7, 200.0, "200", np.float64(300.0)])
    def test_grid_size_must_be_an_integer(self, grid_size):
        with pytest.raises(DomainError, match="grid_size must be an integer"):
            saddle_check(SPEC3, STRUCT3, 1.0, grid_size)

    def test_numpy_integer_grid_size(self):
        got = saddle_check(SPEC3, STRUCT3, 1.0, np.int64(300))
        assert got == saddle_check(SPEC3, STRUCT3, 1.0, 300)

    def test_cell_budget_is_checked_before_allocating(self):
        # 5 unauthorized sets x 10^12 cells would need 40 TB
        with pytest.raises(BudgetExceeded, match="oracle budget"):
            saddle_check(SPEC3, STRUCT3, 1.0, 10**12)

    def test_edge_cells_count_against_the_budget(self, monkeypatch):
        # with a budget of 100,000 cells, the larger family times the grid
        # (638 x 100) passes and the edge cells (638 x 386) do not
        spec = SourceSpec.from_gains(2.0, np.linspace(0.3, 1.2, 10))
        structure = threshold_structure(10, 5)
        assert (structure.authorized_masks.size, structure.unauthorized_masks.size) == (638, 386)
        monkeypatch.setattr(capacity, "_ORACLE_CELL_BUDGET", 100_000)
        with pytest.raises(BudgetExceeded, match="638 authorized times 386 unauthorized"):
            saddle_check(spec, structure, 1.0, 100)

    @staticmethod
    def per_pair_reference(spec, structure, rp, grid_size):
        """Both orders as plain loops that take the maximum over unauthorized
        sets anew for every authorized set."""
        sx = spec.sigma2_x
        snr_a = np.array([derive_gain_vector(spec, s).snr for s in structure.authorized])
        snr_u = np.array([derive_gain_vector(spec, s).snr for s in structure.unauthorized])
        grid = np.geomspace(sx * 1e-8, sx, grid_size)

        def gaps(svec, snr):
            return 0.5 * np.log2((sx * snr[:, None] + 1.0) / (svec[None, :] * snr[:, None] + 1.0))

        def edge(snr):
            if is_unlimited(rp):
                return float(grid[0])
            return optimal_conditional_variance(spec, snr, rp)

        gap_u_grid = gaps(grid, snr_u)
        per_a = []
        for oa in snr_a:
            s_edge = edge(float(oa))
            feasible = grid >= s_edge
            svals = np.concatenate([grid[feasible], [s_edge]])
            gap_a = 0.5 * np.log2((sx * oa + 1.0) / (svals * oa + 1.0))
            gap_u = np.concatenate(
                [gap_u_grid[:, feasible], gaps(np.array([s_edge]), snr_u)], axis=1
            )
            per_a.append(np.max(gap_a - np.max(gap_u, axis=0)))
        s_edge = edge(float(np.min(snr_a)))
        feasible = grid >= s_edge
        svals = np.concatenate([grid[feasible], [s_edge]])
        inner = np.min(gaps(svals, snr_a), axis=0) - np.max(gaps(svals, snr_u), axis=0)
        return float(np.min(per_a)), float(np.max(inner))

    @pytest.mark.parametrize("l", [6, 8, 10])
    @pytest.mark.parametrize("rp", [0.7, 2.5, UNLIMITED])
    def test_both_orders_equal_the_per_pair_loop(self, l, rp):
        rng = np.random.default_rng(l)
        spec = SourceSpec.from_gains(2.0, rng.uniform(0.3, 1.5, l))
        for structure in (
            threshold_structure(l, l // 2),
            monotone_closure(l, [[1, 2], [3, 4, 5], [l - 1, l]]),
        ):
            chk = saddle_check(spec, structure, rp, 500)
            assert (chk.min_min_max, chk.max_min_min) == self.per_pair_reference(
                spec, structure, rp, 500
            )

    def test_covariance_source_equals_the_per_pair_loop(self):
        rng = np.random.default_rng(3)
        root = rng.normal(size=(7, 7))
        spec = SourceSpec.from_covariance(root @ root.T + 7 * np.eye(7))
        structure = threshold_structure(6, 3)
        chk = saddle_check(spec, structure, 1.1, 1000)
        assert (chk.min_min_max, chk.max_min_min) == self.per_pair_reference(
            spec, structure, 1.1, 1000
        )

    # Near-equal gains: the t weakest out-gain the t - 1 strongest, so the
    # capacity is positive and the feasibility mask decides the maximum.
    SPEC6 = SourceSpec.from_gains(2.0, [1.0, 0.98, 1.02, 0.99, 1.01, 0.97])
    # Y = g X + N for X of variance 2 and correlated noise N
    G7 = np.linspace(0.97, 1.03, 7)
    N7 = np.random.default_rng(0).normal(scale=0.3, size=(7, 7))
    COV7 = np.block([
        [np.array([[2.0]]), 2.0 * G7[None, :]],
        [2.0 * G7[:, None], 2.0 * np.outer(G7, G7) + np.eye(7) + N7 @ N7.T / 7],
    ])

    @pytest.mark.parametrize("spec, structure, rp", [
        # 638 authorized rows; a small rp keeps the per-pair loop near 1 s
        (SourceSpec.from_gains(2.0, np.random.default_rng(10).uniform(0.97, 1.03, 10)),
         threshold_structure(10, 5), 0.1),
        # degraded: zero capacity, and the grid point sigma2_x, not the edge,
        # gives the weak rows their maximum, so every block must be visited
        (SourceSpec.from_gains(2.0, np.random.default_rng(10).uniform(0.3, 1.5, 10)),
         threshold_structure(10, 5), 0.1),
        # the edge is sigma2_x, the last grid point: all else is infeasible
        (SPEC6, threshold_structure(6, 3), 0.0),
        # the edge lies below sigma2_x * 1e-8: every grid point is feasible
        (SPEC6, threshold_structure(6, 3), 40.0),
        (SPEC6, threshold_structure(6, 3), UNLIMITED),
        (SourceSpec.from_covariance(COV7), threshold_structure(7, 3), 1.1),
    ], ids=["l10-t5", "l10-t5-degraded", "rp-zero", "all-feasible", "unlimited",
            "covariance"])
    def test_blocks_of_authorized_rows_equal_the_per_pair_loop(self, spec, structure, rp):
        grid_size = 10_000
        rows_per_block = capacity._ORACLE_BLOCK_CELLS // max(
            grid_size, structure.unauthorized_masks.size
        )
        assert structure.authorized_masks.size > 2 * rows_per_block  # several blocks
        chk = saddle_check(spec, structure, rp, grid_size)
        assert (chk.min_min_max, chk.max_min_min) == self.per_pair_reference(
            spec, structure, rp, grid_size
        )

    # 2510 authorized and 1586 unauthorized coalitions against 100 grid
    # points: a matrix pairing the two families would be 16x the budgeted one.
    WIDE = (SourceSpec.from_gains(2.0, np.linspace(0.97, 1.03, 12)), threshold_structure(12, 6))

    def test_blocks_never_pair_the_two_families(self):
        spec, structure = self.WIDE
        grid_size = 100
        family = max(structure.authorized_masks.size, structure.unauthorized_masks.size)
        assert structure.authorized_masks.size * structure.unauthorized_masks.size > (
            10 * family * grid_size
        )
        tracemalloc.start()
        try:
            saddle_check(spec, structure, 1.0, grid_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a handful of family-by-grid float64 temporaries, no more
        assert peak < 4 * family * grid_size * 8

    def test_peak_memory_is_below_one_family_by_grid_matrix(self):
        spec = SourceSpec.from_gains(2.0, np.linspace(0.3, 1.2, 10))
        structure = threshold_structure(10, 5)
        grid_size = 10_000
        saddle_check(spec, structure, 40.0, 100)  # warm caches outside the trace
        tracemalloc.start()
        try:
            saddle_check(spec, structure, 40.0, grid_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < structure.unauthorized_masks.size * grid_size * 8

    def test_peak_memory_is_one_block_buffer(self):
        # one 1 MiB buffer serves every block; the live columns and a few
        # point-sized columns fit in the second MiB
        spec = SourceSpec.from_gains(2.0, np.linspace(0.3, 1.2, 10))
        structure = threshold_structure(10, 5)
        saddle_check(spec, structure, 40.0, 100)  # warm caches outside the trace
        tracemalloc.start()
        try:
            saddle_check(spec, structure, 40.0, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @staticmethod
    def rate_with_edge_at(spec, snr, target):
        """A public rate at which optimal_conditional_variance(spec, snr, .)
        is exactly target, or None: bisection, then the floats next to it."""
        lo, hi = 0.0, 64.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if optimal_conditional_variance(spec, snr, mid) > target else (lo, mid)
        rp = lo  # the edge at lo is above target; it falls as rp grows
        for _ in range(40):
            rp = math.nextafter(rp, math.inf)
            if optimal_conditional_variance(spec, snr, rp) == target:
                return rp
        return None

    @pytest.mark.parametrize("structure", [
        threshold_structure(6, 3),
        monotone_closure(6, [[1, 2], [3, 4, 5], [5, 6]]),
    ], ids=["threshold", "closure"])
    def test_smallest_edge_on_an_inner_grid_point(self, structure):
        # the strongest authorized coalition has the smallest edge; place it
        # exactly on a grid point, the first live one
        spec = SourceSpec.from_gains(2.0, [1.0, 0.6, 0.8, 1.2, 0.9, 0.7])
        grid_size = 1000
        grid = np.geomspace(spec.sigma2_x * 1e-8, spec.sigma2_x, grid_size)
        strongest = max(derive_gain_vector(spec, a).snr for a in structure.authorized)
        for k in range(grid_size // 2, grid_size - 1):
            rp = self.rate_with_edge_at(spec, strongest, float(grid[k]))
            if rp is not None:
                break
        assert rp is not None
        edges = [optimal_conditional_variance(spec, derive_gain_vector(spec, a).snr, rp)
                 for a in structure.authorized]
        assert min(edges) == grid[k]
        chk = saddle_check(spec, structure, rp, grid_size)
        assert (chk.min_min_max, chk.max_min_min) == self.per_pair_reference(
            spec, structure, rp, grid_size
        )

    def test_the_snr_table_is_built_once(self, monkeypatch):
        # covariance mode: each table entry is one subset_snr call
        spec, structure = SourceSpec.from_covariance(self.COV7), threshold_structure(7, 3)
        calls = []
        real = access_structure.subset_snr

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(access_structure, "subset_snr", counted)
        saddle_check(spec, structure, 1.1, 100)
        assert len(calls) == 2**7

    def test_the_rate_is_read_once(self, monkeypatch):
        # the authorized edges take the checked rate: one _check_real call
        # (the rate's) for 638 authorized coalitions, no public closed form
        spec = SourceSpec.from_gains(2.0, np.linspace(0.9, 1.1, 10))
        counts = count_calls(monkeypatch, "_check_real", "optimal_conditional_variance")
        saddle_check(spec, threshold_structure(10, 5), 1.1, 100)
        assert counts == {"_check_real": 1, "optimal_conditional_variance": 0}

    def test_one_coalition_per_block_gives_the_same_values(self, monkeypatch):
        spec, structure = self.WIDE
        chk = saddle_check(spec, structure, 1.0, 100)
        monkeypatch.setattr(capacity, "_ORACLE_BLOCK_CELLS", 1)
        one = saddle_check(spec, structure, 1.0, 100)
        assert (one.min_min_max, one.max_min_min) == (chk.min_min_max, chk.max_min_min)


def count_calls(monkeypatch, *names):
    """{name: calls} of each capacity module global, counted from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(capacity, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(capacity, name, counted)
    return counts


def test_a_region_reads_no_real(monkeypatch):
    # the grid is read as one array; each point takes the checked rate
    spec = SourceSpec.from_gains(2.0, np.linspace(0.9, 1.1, 10))
    counts = count_calls(monkeypatch, "_check_real", "optimal_conditional_variance")
    points = rate_region(spec, threshold_structure(10, 5), np.linspace(0.0, 4.0, 256))
    assert len(points) == 256
    assert counts == {"_check_real": 0, "optimal_conditional_variance": 0}


def test_verify_rate_formulas_whitens_each_coalition_once(monkeypatch):
    counts = count_calls(monkeypatch, "derive_gain_vector")
    verify_rate_formulas(SPEC3, STRUCT3, 1.0)
    assert counts == {"derive_gain_vector": 2**3}


def test_verify_rate_formulas_routes_agree():
    rng = np.random.default_rng(19)
    for _ in range(40):
        l = int(rng.integers(1, 5))
        spec = SourceSpec.from_gains(
            float(rng.uniform(0.3, 4.0)), rng.uniform(0.05, 2.0, l)
        )
        structure = threshold_structure(l, int(rng.integers(1, l + 1)))
        s = float(rng.uniform(0.01, 1.0)) * spec.sigma2_x
        report = verify_rate_formulas(spec, structure, s)
        assert report.max_rel_err <= 1e-9
        assert report.rp_logdet == pytest.approx(report.rp_scalar, abs=1e-9)
        assert report.rs_logdet == pytest.approx(report.rs_scalar, abs=1e-9)


def test_verify_rate_formulas_at_full_variance():
    # s = sigma2_x makes every rate zero; the matrix route must not degenerate
    report = verify_rate_formulas(SPEC3, STRUCT3, 2.0)
    assert report.rp_scalar == pytest.approx(0.0, abs=1e-12)
    assert report.rs_scalar == pytest.approx(0.0, abs=1e-12)


def test_verify_rate_formulas_at_a_subnormal_variance():
    # log2(sigma2_x / s) overflows for this s; the base rate is about 515.69
    # bits, less the 0.40 bits that participant 2 alone already sees
    spec = SourceSpec.from_gains(3.0, [1.0, 0.5])
    report = verify_rate_formulas(spec, threshold_structure(2, 1), 1e-310)
    base = 0.5 * (math.log2(3.0) - math.log2(1e-310))
    assert base == pytest.approx(515.69, abs=0.01)
    expected = base - 0.5 * math.log2(1.75)
    assert report.rp_scalar == pytest.approx(expected, rel=1e-12)
    assert report.rp_logdet == pytest.approx(expected, rel=1e-12)
    assert public_rate(1e-310, 0.25, spec) == pytest.approx(expected, rel=1e-12)


def test_verify_rate_formulas_raises_on_a_non_finite_route(monkeypatch):
    monkeypatch.setattr(capacity, "_logdet2", lambda matrix: math.inf)
    with pytest.raises(NumericError):
        verify_rate_formulas(SPEC3, STRUCT3, 1.0)


@pytest.mark.parametrize("sign", [-1.0, 0.0])
def test_verify_rate_formulas_refuses_a_determinant_that_is_not_positive(monkeypatch, sign):
    monkeypatch.setattr(np.linalg, "slogdet", lambda matrix: (sign, 0.0))
    with pytest.raises(NumericError, match="^expected a positive determinant$"):
        verify_rate_formulas(SPEC3, STRUCT3, 1.0)


@pytest.mark.parametrize("skew, raises", [(2e-10, False), (2e-9, True)])
def test_verify_rate_formulas_sees_one_unauthorized_disagreement(monkeypatch, skew, raises):
    # the scalar route of {1,3} alone is off by skew bits: no public rate
    # reads it, but every secret rate against it does
    target = derive_gain_vector(SPEC3, (1, 3)).snr
    real = capacity._rate_gap

    def skewed(s, snr, spec):
        return real(s, snr, spec) + (skew if snr == target else 0.0)

    monkeypatch.setattr(capacity, "_rate_gap", skewed)
    if raises:
        with pytest.raises(NumericError):
            verify_rate_formulas(SPEC3, STRUCT3, 1.0)
    else:
        report = verify_rate_formulas(SPEC3, STRUCT3, 1.0)
        assert report.max_rel_err == pytest.approx(skew, rel=1e-3)


@st.composite
def rate_formula_cases(draw):
    """A gains- or covariance-form source (l <= 5), a threshold or closure
    structure over it, and a conditional variance s in (0, sigma2_x]."""
    l = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        gains = draw(st.lists(st.floats(-2.0, 2.0), min_size=l, max_size=l))
        spec = SourceSpec.from_gains(draw(st.floats(0.2, 3.0)), gains)
    else:
        root = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=(l + 1) ** 2,
                                      max_size=(l + 1) ** 2))).reshape(l + 1, l + 1)
        spec = SourceSpec.from_covariance(root @ root.T + np.eye(l + 1))
    if draw(st.booleans()):
        structure = threshold_structure(l, draw(st.integers(1, l)))
    else:
        generators = draw(st.lists(st.sets(st.integers(1, l), min_size=1), min_size=1,
                                   max_size=4))
        structure = monotone_closure(l, generators)
    s = draw(st.floats(0.0, spec.sigma2_x, exclude_min=True))
    return spec, structure, s


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(rate_formula_cases())
def test_property_rate_formula_routes_agree_with_the_closed_forms(case):
    spec, structure, s = case
    # raises NumericError when the log-det and scalar routes disagree
    report = verify_rate_formulas(spec, structure, s)
    assert report.max_rel_err <= 1e-9
    assert report.rp_logdet == pytest.approx(report.rp_scalar, rel=1e-9, abs=1e-9)
    assert report.rs_logdet == pytest.approx(report.rs_scalar, rel=1e-9, abs=1e-9)
    ext = extremal_sets(structure, spec)
    rs = secret_rate(s, ext.snr_authorized, ext.snr_unauthorized, spec)
    assert report.rs_scalar == pytest.approx(rs, rel=0.0, abs=1e-12)
    assert report.rp_scalar == pytest.approx(
        public_rate(s, ext.snr_authorized, spec), rel=0.0, abs=1e-12
    )

    def gaps(subset):
        """(logdet, scalar) gap of one coalition, as each route writes it."""
        h = derive_gain_vector(spec, subset)
        ld = [capacity._logdet2(var * np.outer(h.gains, h.gains) + np.eye(h.gains.size))
              for var in (spec.sigma2_x, s)]
        return 0.5 * (ld[0] - ld[1]), capacity._rate_gap(s, h.snr, spec)

    # each secret rate is exactly the minimum over pairs of the gap difference
    a_gaps = [gaps(a) for a in structure.authorized]
    u_gaps = [gaps(u) for u in structure.unauthorized]
    assert report.rs_logdet == min(a - u for a, _ in a_gaps for u, _ in u_gaps)
    assert report.rs_scalar == min(a - u for _, a in a_gaps for _, u in u_gaps)


# Property tests over random gains-mode sources (l <= 6) and structures.
# Gains stay within [-1.5, 1.5] and sigma2_x within [0.2, 3]: the oracle's
# UNLIMITED edge sits at sigma2_x * 1e-8, which stays within about 3e-7 bits
# of the supremum there.

@st.composite
def sources_and_structures(draw):
    l = draw(st.integers(min_value=1, max_value=6))
    gains = draw(st.lists(st.floats(-1.5, 1.5), min_size=l, max_size=l))
    spec = SourceSpec.from_gains(draw(st.floats(0.2, 3.0)), gains)
    if draw(st.booleans()):
        return spec, threshold_structure(l, draw(st.integers(1, l)))
    members = st.sets(st.integers(1, l), min_size=1)
    generators = draw(st.lists(members, min_size=1, max_size=4))
    return spec, monotone_closure(l, generators)


rates = st.one_of(st.just(UNLIMITED), st.floats(0.0, 12.0))
PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)


# bitexact: see TestSaddleOracle
@pytest.mark.bitexact
@PROPERTY_SETTINGS
@given(sources_and_structures(), rates)
def test_property_oracle_matches_closed_form(case, rp):
    spec, structure = case
    chk = saddle_check(spec, structure, rp, 200)
    assert chk.min_min_max == pytest.approx(secret_capacity(spec, structure, rp).cs, abs=1e-6)
    assert (chk.min_min_max, chk.max_min_min) == TestSaddleOracle.per_pair_reference(
        spec, structure, rp, 200
    )


@PROPERTY_SETTINGS
@given(
    sources_and_structures(),
    st.lists(st.floats(0.0, 20.0), min_size=1, max_size=30, unique=True).map(sorted),
)
def test_property_region_nondecreasing_and_bounded(case, grid):
    spec, structure = case
    values = [p.cs for p in rate_region(spec, structure, grid)]
    assert values[0] >= 0.0
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= secret_capacity(spec, structure, UNLIMITED).cs


@PROPERTY_SETTINGS
@given(
    st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=6),
    st.floats(0.2, 3.0),
    rates,
)
def test_property_threshold_verdict_agrees_with_direct_capacities(gains, sigma2_x, rp):
    l = len(gains)
    spec = SourceSpec.from_gains(sigma2_x, gains)
    comps = threshold_compare(spec, rp)
    assert len(comps) == l * (l - 1) // 2
    for comp in comps:
        cs_t = secret_capacity(spec, threshold_structure(l, comp.t), rp).cs
        cs_t_plus_i = secret_capacity(spec, threshold_structure(l, comp.t + comp.i), rp).cs
        if comp.verdict == "at_least":
            assert cs_t >= cs_t_plus_i - 1e-9
        else:
            assert cs_t <= cs_t_plus_i + 1e-9


# bitexact: see TestSaddleOracle
@pytest.mark.bitexact
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    sources_and_structures(),
    st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e-9, exclude_min=True),
        st.floats(0.0, 12.0),
        st.just(40.0),
        st.just(UNLIMITED),
    ),
    st.integers(100, 2000),
)
def test_property_oracle_equals_the_per_pair_loop(case, rp, grid_size):
    # rp = 0 and a rate too small to move 2^(2 rp) off 1 put every edge on
    # the last grid point, UNLIMITED on the first, and 40 below the grid
    spec, structure = case
    chk = saddle_check(spec, structure, rp, grid_size)
    assert (chk.min_min_max, chk.max_min_min) == TestSaddleOracle.per_pair_reference(
        spec, structure, rp, grid_size
    )
