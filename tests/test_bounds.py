"""Finite-blocklength bound evaluators against inline re-derivations."""

import math

import numpy as np
import pytest

from gauss_share.access_structure import monotone_closure, threshold_structure
from gauss_share.errors import DomainError
from gauss_share.protocol.bounds import (
    CoalitionBoundInput,
    ErrorBoundInputs,
    achievable_rate_bound,
    bound_inputs,
    codebook_rates,
    error_bound,
)
from gauss_share.protocol.model import build_quantized_source
from gauss_share.source_model import SourceSpec

SPEC = SourceSpec.from_gains(2.0, [1.0, 0.6])
STRUCT = threshold_structure(2, 2)
MODEL = build_quantized_source(SPEC, STRUCT, 2)


def careful_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def careful_pow2(x):
    try:
        return 2.0 ** x
    except OverflowError:
        return math.inf


def hand_inputs(n_v=2, n_x=2, h_v=1.0, mu_vx=0.25, coalitions=None):
    if coalitions is None:
        coalitions = [((1,), 4, 0.2, 0.1)]
    per = tuple(
        CoalitionBoundInput(subset=s, n_y=ny, mu_xy=mxy, mu_vxy=mvxy)
        for s, ny, mxy, mvxy in coalitions
    )
    return ErrorBoundInputs(
        n_v=n_v, n_x=n_x, entropy_v=h_v, mu_vx=mu_vx, per_authorized=per
    )


class TestErrorBound:
    def test_summands_match_direct_transcription(self):
        cases = [
            (50, 0.1, hand_inputs()),
            (120, 0.3, hand_inputs(n_v=4, n_x=4, h_v=1.7, mu_vx=0.05,
                                   coalitions=[((1,), 8, 0.01, 0.005),
                                               ((1, 2), 16, 0.03, 0.001)])),
            (7, 0.6, hand_inputs(h_v=0.4, mu_vx=1.0,
                                 coalitions=[((2,), 2, 1.0, 0.5)])),
        ]
        for n, eps, inputs in cases:
            bound = error_bound(n, eps, inputs)
            half = eps / 2.0
            squeeze = (eps - half) ** 2 / (1.0 + half)
            for coal_in, coal_out in zip(inputs.per_authorized, bound.per_authorized):
                want_t1 = (2.0 * inputs.n_x * coal_in.n_y
                           * careful_exp(-n * half * half * coal_in.mu_xy))
                want_t2 = careful_pow2(-n * eps * inputs.entropy_v)
                guard = 1.0 - 2.0 * inputs.n_v * inputs.n_x * careful_exp(
                    -n * squeeze * inputs.mu_vx
                )
                want_t3 = careful_exp(-guard * careful_pow2(eps * n * inputs.entropy_v))
                want_t4 = (2.0 * inputs.n_v * inputs.n_x * coal_in.n_y
                           * careful_exp(-n * squeeze * coal_in.mu_vxy))
                got = coal_out.summands
                assert got[0] == pytest.approx(want_t1, rel=1e-12)
                assert got[1] == pytest.approx(want_t2, rel=1e-12)
                assert got[2] == pytest.approx(want_t3, rel=1e-12)
                assert got[3] == pytest.approx(want_t4, rel=1e-12)
                assert coal_out.delta == pytest.approx(sum(got), rel=1e-12)
            assert bound.total == pytest.approx(
                bound.n_authorized * max(c.delta for c in bound.per_authorized),
                rel=1e-12,
            )

    def test_bound_vanishes_at_large_blocklength(self):
        inputs = hand_inputs()
        values = [error_bound(n, 0.2, inputs).total for n in (2000, 5000, 50_000)]
        assert values[0] > values[1] > values[2]
        assert values[2] < 1e-12
        assert not error_bound(50_000, 0.2, inputs).vacuous

    def test_short_blocks_are_vacuous_and_clamped(self):
        bound = error_bound(1, 0.5, hand_inputs())
        assert bound.vacuous
        assert bound.clamped == 1.0
        assert bound.total >= 1.0

    def test_search_term_with_saturated_exponent(self):
        # epsilon * n * H(V) beyond float range: the guard decides the limit
        confident = error_bound(20_000, 0.1, hand_inputs())
        assert confident.per_authorized[0].summands[2] == 0.0
        hopeless = error_bound(20_000, 0.1, hand_inputs(mu_vx=1e-9))
        assert hopeless.per_authorized[0].summands[2] == math.inf
        assert hopeless.vacuous

    def test_validation(self):
        with pytest.raises(DomainError):
            error_bound(0, 0.1, hand_inputs())
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                error_bound(10, eps, hand_inputs())
        for bad_mu in (0.0, -0.1, 1.2):
            with pytest.raises(DomainError):
                error_bound(10, 0.1, hand_inputs(mu_vx=bad_mu))
            with pytest.raises(DomainError):
                error_bound(10, 0.1, hand_inputs(coalitions=[((1,), 4, bad_mu, 0.1)]))
        with pytest.raises(DomainError):
            error_bound(10, 0.1, hand_inputs(coalitions=[]))


class TestBoundInputs:
    def test_fields_come_from_the_model(self):
        inputs = bound_inputs(MODEL, STRUCT)
        assert inputs.n_v == MODEL.n_v
        assert inputs.n_x == MODEL.n_x
        assert inputs.entropy_v == MODEL.entropy_v()
        assert inputs.mu_vx == MODEL.mu_xv()
        assert len(inputs.per_authorized) == len(STRUCT.authorized)
        for coal, subset in zip(inputs.per_authorized, STRUCT.authorized):
            assert coal.subset == subset
            assert coal.n_y == MODEL.n_y(subset)
            assert coal.mu_xy == MODEL.mu_xy(subset)
            assert coal.mu_vxy == MODEL.mu_vxy(subset)


class TestAchievableRate:
    def test_asymptotic_flag_returns_single_letter_values(self):
        bound = achievable_rate_bound(MODEL, STRUCT, 4, 3, 0.2, asymptotic=True)
        mi_a = min(MODEL.mi_v_y(a) for a in STRUCT.authorized)
        mi_u = max(MODEL.mi_v_y(u) for u in STRUCT.unauthorized)
        assert bound.rs_lower == mi_a - mi_u
        assert bound.rp_upper == max(
            MODEL.mi_x_v_given_y(a) for a in STRUCT.authorized
        )
        assert all(t.delta1 == 0.0 and t.delta2 == 0.0 for t in bound.per_unauthorized)
        want_k = math.floor(12 * bound.rs_lower) if bound.rs_lower > 0 else 0
        assert bound.suggested_k == max(0, want_k)
        assert bound.asymptotic

    def test_finite_bound_matches_direct_transcription(self):
        # q large enough that the block-level concentration has bite, so
        # every term stays finite and comparable
        n, q, eps = 2, 300_000, 0.2
        bound = achievable_rate_bound(MODEL, STRUCT, n, q, eps)
        assert math.isfinite(bound.rs_lower)
        big_n = n * q
        mu_xv = MODEL.mu_xv()
        worst_delta2 = -math.inf
        for term in bound.per_unauthorized:
            u = term.subset
            room = 1.0 - 2.0 * MODEL.support_vy(u) ** n * math.exp(
                -(eps**2) * q * MODEL.mu_vy(u) ** n / 6.0
            )
            want_d1 = -math.log2(room) if room > 0 else math.inf
            spill = math.log2(MODEL.n_x) * (
                4.0 * MODEL.n_v * MODEL.n_x * math.exp(-n * eps**2 * mu_xv)
                + 2.0 * MODEL.n_v * MODEL.n_x * MODEL.n_y(u)
                * math.exp(-(eps**2) * n * MODEL.mu_vxy(u) / 8.0)
            )
            want_d2 = (
                eps * MODEL.mi_x_v_given_y(u)
                + (1.0 - eps) * (2.0 * eps * MODEL.entropy_x_given_yv(u)
                                 + 2.0 / n + spill)
                + want_d1 / big_n
                + 6.0 * eps * MODEL.entropy_v()
                + 1.0 / math.sqrt(big_n)
            )
            assert math.isfinite(want_d2)
            assert term.mi_v_y == pytest.approx(MODEL.mi_v_y(u), rel=1e-12)
            assert term.delta1 == pytest.approx(want_d1, rel=1e-12)
            assert term.delta2 == pytest.approx(want_d2, rel=1e-12)
            worst_delta2 = max(worst_delta2, want_d2)
        want_rs = (bound.min_mi_authorized - bound.max_mi_unauthorized
                   - worst_delta2 - 1.0 / math.sqrt(big_n) - 1.0 / big_n)
        assert bound.rs_lower == pytest.approx(want_rs, rel=1e-12)
        core = big_n * (bound.min_mi_authorized - bound.max_mi_unauthorized
                        - worst_delta2) - math.sqrt(big_n)
        assert bound.suggested_k == max(0, math.floor(core))
        assert bound.rp_upper == pytest.approx(
            max(MODEL.mi_x_v_given_y(a) for a in STRUCT.authorized)
            + 6.0 * eps * MODEL.entropy_v(),
            rel=1e-12,
        )

    def test_finite_rate_sits_below_the_asymptote(self):
        finite = achievable_rate_bound(MODEL, STRUCT, 4, 3, 0.2)
        limit = achievable_rate_bound(MODEL, STRUCT, 4, 3, 0.2, asymptotic=True)
        assert finite.rs_lower < limit.rs_lower
        assert finite.rp_upper > limit.rp_upper
        assert finite.vacuous  # desk-scale blocks never clear the corrections

    def test_desk_scale_infinities_degrade_honestly(self):
        # at small n, q the block concentration has no bite: delta1 blows up
        # to inf, rs_lower to -inf, and suggested_k falls back to zero
        bound = achievable_rate_bound(MODEL, STRUCT, 4, 3, 0.2)
        assert any(not math.isfinite(t.delta1) for t in bound.per_unauthorized)
        assert bound.rs_lower == -math.inf
        assert bound.suggested_k == 0
        assert bound.vacuous

    def test_long_blocks_overflow_to_a_vacuous_bound(self):
        # coalition {1,3} has 8 pair letters and 8^400 is past the float
        # range: the support term reads as inf instead of raising OverflowError
        spec = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
        structure = monotone_closure(3, [[1, 2], [2, 3]])
        model = build_quantized_source(spec, structure, 2)
        bound = achievable_rate_bound(model, structure, 400, 1, 0.2)
        assert bound.rs_lower == -math.inf
        assert bound.suggested_k == 0
        assert bound.vacuous

    def test_corrections_shrink_with_more_blocks(self):
        small = achievable_rate_bound(MODEL, STRUCT, 2, 300_000, 0.2)
        large = achievable_rate_bound(MODEL, STRUCT, 2, 3_000_000, 0.2)
        assert math.isfinite(small.rs_lower)
        assert large.rs_lower > small.rs_lower

    def test_everyone_authorized_leaves_only_the_empty_coalition(self):
        structure = threshold_structure(2, 1)
        bound = achievable_rate_bound(MODEL, structure, 4, 3, 0.2, asymptotic=True)
        assert bound.max_mi_unauthorized == 0.0
        assert [t.subset for t in bound.per_unauthorized] == [()]
        assert bound.per_unauthorized[0].mi_v_y == 0.0

    def test_aux_mode_model_keeps_residual_entropy_terms(self):
        model = build_quantized_source(SPEC, STRUCT, 2, rp_target=1.0)
        bound = achievable_rate_bound(model, STRUCT, 4, 3, 0.2)
        # V = X + noise leaves H(X | Y, V) > 0, which must show up in delta2
        assert model.entropy_x_given_yv(()) > 0.0
        assert bound.rs_lower < bound.min_mi_authorized - bound.max_mi_unauthorized

    def test_validation(self):
        with pytest.raises(DomainError):
            achievable_rate_bound(MODEL, STRUCT, 0, 3, 0.2)
        with pytest.raises(DomainError):
            achievable_rate_bound(MODEL, STRUCT, 4, 0, 0.2)
        with pytest.raises(DomainError):
            achievable_rate_bound(MODEL, STRUCT, 4, 3, 1.0)


class TestCodebookRates:
    def test_rates_follow_the_entropy_budget(self):
        eps = 0.1
        rv, rv_prime = codebook_rates(MODEL, STRUCT, eps)
        h_v = MODEL.entropy_v()
        worst = max(MODEL.entropy_v_given_y(a) for a in STRUCT.authorized)
        assert rv == pytest.approx(
            worst - MODEL.entropy_v_given_x() + 6.0 * eps * h_v, rel=1e-12
        )
        assert rv_prime == pytest.approx(worst and h_v - worst - 3.0 * eps * h_v,
                                         rel=1e-12)

    def test_rates_split_the_auxiliary_entropy(self):
        # rv + rv' = H(V) - H(V|X) + 3 eps H(V): the slack is the only overhead
        eps = 0.05
        rv, rv_prime = codebook_rates(MODEL, STRUCT, eps)
        h_v = MODEL.entropy_v()
        total = h_v - MODEL.entropy_v_given_x() + 3.0 * eps * h_v
        assert rv + rv_prime == pytest.approx(total, rel=1e-12)

    def test_coarse_epsilon_can_exhaust_the_budget(self):
        _, rv_prime = codebook_rates(MODEL, STRUCT, 0.45)
        assert rv_prime < 0.0

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            codebook_rates(MODEL, STRUCT, 0.0)
