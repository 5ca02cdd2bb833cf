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

from gauss_share import capacity
from gauss_share.access_structure import monotone_closure, threshold_structure
from gauss_share.capacity import (
    UNLIMITED,
    is_unlimited,
    minimax_oracle,
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
    IndexOutOfRange,
    NegativeRate,
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
    region = rate_region(SPEC3, STRUCT3, grid)
    values = [p.cs for p in region.points]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= region.cs_infinity


def test_rate_region_fields():
    region = rate_region(SPEC3, STRUCT3, [0.0, 1.0, 2.0])
    assert len(region.points) == 3
    assert region.points[0].rp == 0.0
    assert region.cs_infinity == 0.5 * math.log2(3.5 / 3.0)
    for p in region.points:
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


def test_rate_region_points_match_secret_capacity():
    grid = np.linspace(0.0, 5.0, 300)
    region = rate_region(SPEC3, STRUCT3, grid)
    assert len(region.points) == 300
    for rp, point in zip(grid, region.points):
        assert point == secret_capacity(SPEC3, STRUCT3, float(rp))


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

    def test_known_instance_verdict(self):
        comp = threshold_compare(self.SPEC5, 5, 4, 1, 1.0)
        assert comp.verdict == "at_most"
        assert comp.lhs == pytest.approx(0.7225, abs=1e-12)
        assert comp.rhs == pytest.approx(6.425 / 6.995, rel=1e-12)
        assert not comp.used_fallback
        assert comp.cs_t <= comp.cs_t_plus_i + 1e-12

    def test_first_threshold_dominates(self):
        for i in range(1, 5):
            comp = threshold_compare(self.SPEC5, 5, 1, i, 2.0)
            assert comp.verdict == "at_least"
            assert comp.cs_t >= comp.cs_t_plus_i - 1e-12

    def test_verdict_consistent_with_direct_capacities(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            l = int(rng.integers(2, 7))
            spec = SourceSpec.from_gains(
                float(rng.uniform(0.5, 3.0)), rng.uniform(0.05, 2.0, l)
            )
            t = int(rng.integers(1, l))
            i = int(rng.integers(1, l - t + 1))
            rp = float(rng.uniform(0.05, 6.0))
            comp = threshold_compare(spec, l, t, i, rp)
            if comp.verdict == "at_least":
                assert comp.cs_t >= comp.cs_t_plus_i - 1e-9
            else:
                assert comp.cs_t <= comp.cs_t_plus_i + 1e-9

    def test_zero_gain_participants_trigger_fallback(self):
        spec = SourceSpec.from_gains(1.0, [0.0, 0.0, 1.0])
        comp = threshold_compare(spec, 3, 1, 1, 0.7)
        assert comp.used_fallback
        assert comp.lhs is None

    def test_index_validation(self):
        for t, i in ((0, 1), (1, 0), (5, 1), (3, 3)):
            with pytest.raises(IndexOutOfRange):
                threshold_compare(self.SPEC5, 5, t, i, 1.0)


class TestSaddleOracle:
    def test_oracle_matches_closed_form_example(self):
        for rp in (0.25, 1.0, 4.0):
            value = minimax_oracle(SPEC3, STRUCT3, rp, 4000)
            pt = secret_capacity(SPEC3, STRUCT3, rp)
            assert value == pytest.approx(pt.cs, abs=1e-5)

    def test_orders_agree(self):
        chk = saddle_check(SPEC3, STRUCT3, 1.0, 2000)
        assert chk.saddle_gap <= 1e-12
        assert chk.oracle_gap <= 1e-6

    def test_degraded_instance_oracle_is_zero(self):
        spec = SourceSpec.from_gains(2.0, [0.1, 2.0])
        structure = monotone_closure(2, [[1]])
        assert minimax_oracle(spec, structure, 1.0, 1000) == 0.0

    def test_unlimited_rate_supported(self):
        chk = saddle_check(SPEC3, STRUCT3, UNLIMITED, 4000)
        assert chk.oracle_gap <= 1e-6
        assert is_unlimited(chk.rp)

    def test_grid_size_floor(self):
        with pytest.raises(DomainError):
            saddle_check(SPEC3, STRUCT3, 1.0, 50)

    def test_cell_budget_is_checked_before_allocating(self):
        # 5 unauthorized sets x 10^12 cells would need 40 TB
        with pytest.raises(BudgetExceeded, match="oracle budget"):
            saddle_check(SPEC3, STRUCT3, 1.0, 10**12)

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

    def test_one_coalition_per_block_gives_the_same_values(self, monkeypatch):
        spec, structure = self.WIDE
        chk = saddle_check(spec, structure, 1.0, 100)
        monkeypatch.setattr(capacity, "_ORACLE_BLOCK_CELLS", 1)
        one = saddle_check(spec, structure, 1.0, 100)
        assert (one.min_min_max, one.max_min_min) == (chk.min_min_max, chk.max_min_min)


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


@PROPERTY_SETTINGS
@given(sources_and_structures(), rates)
def test_property_oracle_matches_closed_form(case, rp):
    spec, structure = case
    value = minimax_oracle(spec, structure, rp, 200)
    assert value == pytest.approx(secret_capacity(spec, structure, rp).cs, abs=1e-6)


@PROPERTY_SETTINGS
@given(
    sources_and_structures(),
    st.lists(st.floats(0.0, 20.0), min_size=1, max_size=30, unique=True).map(sorted),
)
def test_property_region_nondecreasing_and_bounded(case, grid):
    spec, structure = case
    region = rate_region(spec, structure, grid)
    values = [p.cs for p in region.points]
    assert values[0] >= 0.0
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] <= region.cs_infinity


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda l: st.tuples(
            st.lists(st.floats(-1.5, 1.5), min_size=l, max_size=l),
            st.integers(1, l - 1).flatmap(
                lambda t: st.tuples(st.just(t), st.integers(1, l - t))
            ),
        )
    ),
    st.floats(0.2, 3.0),
    rates,
)
def test_property_threshold_verdict_agrees_with_direct_capacities(case, sigma2_x, rp):
    gains, (t, i) = case
    l = len(gains)
    spec = SourceSpec.from_gains(sigma2_x, gains)
    comp = threshold_compare(spec, l, t, i, rp)
    cs_t = secret_capacity(spec, threshold_structure(l, t), rp).cs
    cs_t_plus_i = secret_capacity(spec, threshold_structure(l, t + i), rp).cs
    if comp.verdict == "at_least":
        assert cs_t >= cs_t_plus_i - 1e-9
    else:
        assert cs_t <= cs_t_plus_i + 1e-9
