"""Quantizer, joint-pmf builder, and information-arithmetic tests."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri

from gauss_share.access_structure import extremal_sets, threshold_structure
from gauss_share.capacity import optimal_conditional_variance
from gauss_share.errors import BudgetExceeded, DegenerateVariance, DomainError
from gauss_share.protocol import info, model
from gauss_share.protocol.model import (
    build_quantized_source,
    discretize_source,
    sample_source,
)
from gauss_share.protocol.quantize import build_quantizer
from gauss_share.source_model import SourceSpec

SPEC = SourceSpec.from_gains(2.0, [1.0, 0.6])
STRUCT = threshold_structure(2, 2)


class TestQuantizer:
    def test_boundaries_are_gaussian_quantiles(self):
        q = build_quantizer(4.0, 4)
        expected = 2.0 * ndtri(np.array([0.25, 0.5, 0.75]))
        np.testing.assert_allclose(q.boundaries, expected, rtol=1e-14)
        assert q.n_bins == 4
        assert q.variance == 4.0

    def test_bins_are_equiprobable(self):
        q = build_quantizer(2.5, 7)
        edges = np.concatenate([[-np.inf], q.boundaries, [np.inf]])
        masses = np.diff(ndtr(edges / math.sqrt(2.5)))
        np.testing.assert_allclose(masses, 1.0 / 7.0, atol=1e-14)
        np.testing.assert_allclose(q.bin_probabilities, 1.0 / 7.0)

    def test_index_convention(self):
        q = build_quantizer(1.0, 4)
        b0, b1, _ = q.boundaries
        samples = np.array([-10.0, b0, b0 + 1e-9, b1, 0.1, 10.0])
        np.testing.assert_array_equal(q.indices(samples), [0, 0, 1, 1, 2, 3])

    def test_validation(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DegenerateVariance):
                build_quantizer(bad, 4)
        with pytest.raises(DomainError):
            build_quantizer(1.0, 1)


class TestIdentityModel:
    MODEL = build_quantized_source(SPEC, STRUCT, 4)

    def test_shape_and_flags(self):
        m = self.MODEL
        assert m.pmf.shape == (4, 4, 4, 4)
        assert m.identity_auxiliary
        assert m.sigma2_cond is None
        assert m.aux_noise_var is None
        assert m.n_v == m.n_x == 4
        assert m.l == 2
        assert m.n_y(()) == 1
        assert m.n_y((1,)) == 4
        assert m.n_y((1, 2)) == 16

    def test_pmf_is_normalized(self):
        assert self.MODEL.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(self.MODEL.pmf >= 0.0)

    def test_auxiliary_marginal_is_diagonal(self):
        vx = info.marginal(self.MODEL.pmf, (0, 1))
        off = vx - np.diag(np.diag(vx))
        assert np.all(off == 0.0)
        np.testing.assert_allclose(np.diag(vx), 0.25, atol=1e-12)

    def test_source_marginal_is_uniform(self):
        # Gauss-Legendre integrates the constant 1 exactly over each bin
        p_x = info.marginal(self.MODEL.pmf, (1,))
        np.testing.assert_allclose(p_x, 0.25, atol=1e-12)

    def test_auxiliary_carries_no_extra_entropy(self):
        m = self.MODEL
        assert m.entropy_v() == pytest.approx(2.0, abs=1e-9)
        assert m.entropy_v_given_x() == pytest.approx(0.0, abs=1e-12)

    def test_information_monotone_in_observers(self):
        m = self.MODEL
        assert 0.0 < m.mi_v_y((1,))
        assert m.mi_v_y((1,)) <= m.mi_v_y((1, 2)) + 1e-12
        assert m.mi_v_y((2,)) <= m.mi_v_y((1,)) + 1e-12  # weaker gain

    def test_conditioning_on_nothing_reduces_to_plain_mi(self):
        m = self.MODEL
        plain = info.mutual_information(m.pmf, (1,), (0,))
        assert m.mi_x_v_given_y(()) == pytest.approx(plain, abs=1e-12)

    def test_mass_and_support_accessors(self):
        m = self.MODEL
        for mu in (m.mu_xv(), m.mu_xy((1,)), m.mu_vxy((1, 2)), m.mu_vy((2,))):
            assert 0.0 < mu <= 1.0
        assert m.support_vy((1,)) <= m.n_v * m.n_y((1,))
        assert m.joint_xv().shape == (4, 4)
        assert m.joint_vy((1, 2)).shape == (4, 16)
        assert m.joint_xy((1,)).shape == (4, 4)
        assert m.joint_vy(()).shape == (4, 1)


class TestAdditiveAuxiliary:
    def test_conditional_variance_matches_capacity_optimum(self):
        model = build_quantized_source(SPEC, STRUCT, 4, rp_target=1.0)
        ext = extremal_sets(STRUCT, SPEC)
        s = optimal_conditional_variance(SPEC, ext.snr_authorized, 1.0)
        assert model.sigma2_cond == s
        assert model.aux_noise_var == pytest.approx(
            s * SPEC.sigma2_x / (SPEC.sigma2_x - s), rel=1e-14
        )
        assert not model.identity_auxiliary
        assert model.v_quantizer.variance == pytest.approx(
            SPEC.sigma2_x + model.aux_noise_var, rel=1e-14
        )

    def test_auxiliary_marginal_is_uniform(self):
        model = build_quantized_source(SPEC, STRUCT, 4, rp_target=1.0)
        p_v = model.p_v()
        np.testing.assert_allclose(p_v, 0.25, atol=1e-6)
        assert model.entropy_v_given_x() > 0.0

    def test_vanishing_rate_target_rejected(self):
        with pytest.raises(DegenerateVariance):
            build_quantized_source(SPEC, STRUCT, 4, rp_target=1e-300)

    def test_rate_target_domain(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                build_quantized_source(SPEC, STRUCT, 4, rp_target=bad)

    def test_noisier_auxiliary_tells_less(self):
        sharp = build_quantized_source(SPEC, STRUCT, 6, rp_target=3.0)
        blurry = build_quantized_source(SPEC, STRUCT, 6, rp_target=0.3)
        assert blurry.mi_v_y((1, 2)) < sharp.mi_v_y((1, 2))


class TestQuadratureRule:
    def test_the_rule_is_computed_once_per_process(self, monkeypatch):
        first = build_quantized_source(SPEC, STRUCT, 2)

        def no_lapack(*args):
            raise AssertionError("leggauss called after its first use")

        monkeypatch.setattr(model, "leggauss", no_lapack)
        again = build_quantized_source(SPEC, STRUCT, 2)
        assert np.array_equal(again.pmf, first.pmf)
        build_quantized_source(SPEC, STRUCT, 4, rp_target=1.0)

    def test_the_rule_is_leggauss_with_80_nodes(self):
        nodes, weights = model._gauss_legendre()
        ref_nodes, ref_weights = leggauss(80)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)
        assert not nodes.flags.writeable and not weights.flags.writeable


class TestModelValidation:
    def test_participant_count_mismatch(self):
        with pytest.raises(DomainError):
            build_quantized_source(SPEC, threshold_structure(3, 2), 4)

    def test_covariance_source_rejected(self):
        cov = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = SourceSpec.from_covariance(cov)
        with pytest.raises(DomainError):
            build_quantized_source(spec, threshold_structure(1, 1), 4)

    def test_bin_count_floor(self):
        with pytest.raises(DomainError):
            build_quantized_source(SPEC, STRUCT, 1)

    def test_cell_budget_is_checked_before_allocating(self, monkeypatch):
        class Allocated(Exception):
            pass

        def zeros(shape, *args, **kwargs):
            raise Allocated(shape)

        monkeypatch.setattr(np, "zeros", zeros)
        # two observers: the quadrature product, 80 * l_quant^3 cells, binds
        assert 80 * 62**3 <= model._MODEL_CELL_BUDGET < 80 * 63**3
        with pytest.raises(Allocated, match=r"\(62, 62, 62, 62\)"):
            build_quantized_source(SPEC, STRUCT, 62)
        for l_quant in (63, 4096):
            with pytest.raises(BudgetExceeded, match="model budget of 20000000"):
                build_quantized_source(SPEC, STRUCT, l_quant)


class TestSampling:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        x, y = sample_source(SPEC, rng, 50)
        assert x.shape == (50,)
        assert y.shape == (50, 2)

    def test_empirical_joint_matches_model(self):
        model = build_quantized_source(SPEC, STRUCT, 4)
        rng = np.random.default_rng(123)
        x, y = sample_source(SPEC, rng, 150_000)
        x_bins, y_bins = discretize_source(
            model.x_quantizer, model.y_quantizers, x, y
        )
        assert y_bins.shape == (150_000, 2)
        counts = np.zeros((4, 4))
        np.add.at(counts, (x_bins, y_bins[:, 0]), 1.0)
        empirical = counts / counts.sum()
        np.testing.assert_allclose(empirical, model.joint_xy((1,)), atol=0.01)

    def test_discretize_validates_shape(self):
        model = build_quantized_source(SPEC, STRUCT, 4)
        with pytest.raises(DomainError):
            discretize_source(
                model.x_quantizer, model.y_quantizers, np.zeros(3), np.zeros((3, 5))
            )


class TestInfoArithmetic:
    def test_entropy_uniform_and_with_zeros(self):
        assert info.entropy(np.full(8, 0.125)) == pytest.approx(3.0, rel=1e-12)
        assert info.entropy(np.array([0.5, 0.0, 0.5])) == pytest.approx(1.0)
        assert info.entropy(np.zeros(4)) == 0.0

    def test_marginal_respects_listed_order(self):
        rng = np.random.default_rng(7)
        pmf = rng.random((2, 3, 4))
        pmf /= pmf.sum()
        forward = info.marginal(pmf, (0, 2))
        swapped = info.marginal(pmf, (2, 0))
        np.testing.assert_allclose(swapped, forward.T)
        np.testing.assert_allclose(forward, pmf.sum(axis=1))

    def test_mutual_information_extremes(self):
        independent = np.outer([0.3, 0.7], [0.25, 0.25, 0.5])
        assert info.mutual_information(independent, (0,), (1,)) == pytest.approx(
            0.0, abs=1e-12
        )
        perfectly_coupled = np.diag([0.5, 0.5])
        assert info.mutual_information(perfectly_coupled, (0,), (1,)) == pytest.approx(
            1.0
        )
        assert info.mutual_information(independent, (), (1,)) == 0.0

    def test_conditional_entropy(self):
        copy_channel = np.diag([0.5, 0.5])
        assert info.conditional_entropy(copy_channel, (0,), (1,)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert info.conditional_entropy(copy_channel, (0,), ()) == pytest.approx(1.0)

    def test_conditional_mi_xor_triple(self):
        # Z = X xor Y with X, Y independent fair bits: I(X;Y) = 0, I(X;Y|Z) = 1
        pmf = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                pmf[a, b, a ^ b] = 0.25
        assert info.mutual_information(pmf, (0,), (1,)) == pytest.approx(0.0, abs=1e-12)
        assert info.conditional_mutual_information(
            pmf, (0,), (1,), (2,)
        ) == pytest.approx(1.0)

    def test_axis_validation(self):
        pmf = np.full((2, 2), 0.25)
        with pytest.raises(DomainError):
            info.marginal(pmf, (0, 0))
        with pytest.raises(DomainError):
            info.marginal(pmf, (2,))
        with pytest.raises(DomainError):
            info.mutual_information(pmf, (0,), (0,))

    def test_min_mass_and_support(self):
        pmf = np.array([0.25, 0.0, 0.75])
        assert info.min_positive_mass(pmf) == 0.25
        assert info.support_size(pmf) == 2
        with pytest.raises(DomainError):
            info.min_positive_mass(np.zeros(3))

    def test_normalization_guard(self):
        info.check_normalized(1.0)
        info.check_normalized(1.0 + 5e-10)
        with pytest.raises(DomainError):
            info.check_normalized(1.0 + 2e-9)
