"""Quantizer, coalition-law builder, and entropy tests."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal

from gauss_share.access_structure import extremal_sets, monotone_closure, threshold_structure
from gauss_share.capacity import optimal_conditional_variance
from gauss_share.errors import BudgetExceeded, DegenerateVariance, DomainError
from gauss_share.protocol import info, model
from gauss_share.protocol.model import (
    build_quantized_source,
    discretize_source,
    sample_source,
)
from gauss_share.protocol.quantize import build_quantizer
from gauss_share.source_model import SourceSpec, mutual_information, subset_snr

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
        assert m.joint((1, 2)).shape == (4, 4, 16)
        assert m.identity_auxiliary
        assert m.sigma2_cond is None
        assert m.aux_noise_var is None
        assert m.n_v == m.n_x == 4
        assert m.l == 2
        assert m.n_y(()) == 1
        assert m.n_y((1,)) == 4
        assert m.n_y((1, 2)) == 16

    def test_pmf_is_normalized(self):
        for subset in ((), (1,), (2,), (1, 2)):
            law = self.MODEL.joint(subset)
            assert law.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(law >= 0.0)

    def test_auxiliary_marginal_is_diagonal(self):
        vx = self.MODEL.joint_xv()
        off = vx - np.diag(np.diag(vx))
        assert np.all(off == 0.0)
        np.testing.assert_allclose(np.diag(vx), 0.25, atol=1e-12)

    def test_source_marginal_is_uniform(self):
        # Gauss-Legendre integrates the constant 1 exactly over each bin
        p_x = self.MODEL.joint_xv().sum(axis=1)
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
        xv = m.joint_xv()
        plain = (info.entropy(xv.sum(axis=1)) + info.entropy(xv.sum(axis=0))
                 - info.entropy(xv))
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
        assert np.array_equal(again.node_v, first.node_v)
        assert np.array_equal(again.node_y, first.node_y)
        assert np.array_equal(again.joint((1, 2)), first.joint((1, 2)))
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

        def allocate(shape, *args, **kwargs):
            raise Allocated(shape)

        # two observers: the quadrature product, 80 * l_quant^3 cells, binds
        assert 80 * 62**3 <= model._MODEL_CELL_BUDGET < 80 * 63**3
        admitted = build_quantized_source(SPEC, STRUCT, 62)
        monkeypatch.setattr(np, "zeros", allocate)
        monkeypatch.setattr(np, "empty", allocate)
        with pytest.raises(Allocated, match=r"\(62, 62, 3844\)"):
            admitted.joint((1, 2))
        for l_quant in (63, 4096):
            with pytest.raises(BudgetExceeded, match="model budget of 20000000"):
                build_quantized_source(SPEC, STRUCT, l_quant)


README = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
README_STRUCTURE = monotone_closure(3, [[1, 2], [2, 3]])
L10 = SourceSpec.from_gains(2.0, [1.018678, 0.999161, 0.986091, 0.97514, 0.992476,
                                  1.028655, 0.98063, 0.97867, 1.019405, 0.978587])


def _coalitions(l):
    return [c for r in range(l + 1) for c in itertools.combinations(range(1, l + 1), r)]


def _full_tensor(m):
    """Reference route: the pmf over (V, X, Y_1..Y_L) on all observers at
    once, by the same quadrature; a coalition's law is its marginal."""
    nodes, weights = leggauss(80)
    l_quant = m.n_x

    def rect(quant, centers, scale):
        edges = np.concatenate([[-np.inf], quant.boundaries, [np.inf]])
        return np.diff(ndtr((edges[None, :] - centers[:, None]) / scale), axis=1)

    pmf = np.zeros((m.n_v, l_quant) + (l_quant,) * m.l)
    for i in range(l_quant):
        x_vals = math.sqrt(m.spec.sigma2_x) * ndtri((i + (nodes + 1.0) / 2.0) / l_quant)
        if m.identity_auxiliary:
            cond_v = np.zeros((nodes.size, l_quant))
            cond_v[:, i] = 1.0
        else:
            cond_v = rect(m.v_quantizer, x_vals, math.sqrt(m.aux_noise_var))
        cell = np.einsum("n,na->na", weights / (2.0 * l_quant), cond_v)
        for g, q in zip(m.spec.gains, m.y_quantizers):
            cell = np.einsum("n...,nb->n...b", cell, rect(q, g * x_vals, 1.0))
        pmf[:, i, ...] = cell.sum(axis=0)
    return pmf / pmf.sum()


def _marginal(pmf, axes):
    kept = sorted(axes)
    summed = pmf.sum(axis=tuple(a for a in range(pmf.ndim) if a not in axes))
    return np.transpose(summed, [kept.index(a) for a in axes])


def _h(p):
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


class TestCoalitionLaws:
    @pytest.mark.parametrize("l_quant", [2, 4])
    @pytest.mark.parametrize("rp_target", [None, 1.0])
    def test_every_accessor_matches_the_full_tensor(self, l_quant, rp_target):
        m = build_quantized_source(README, README_STRUCTURE, l_quant, rp_target)
        pmf = _full_tensor(m)

        def h(*axes):
            return info.entropy(_marginal(pmf, axes))

        close = dict(rel=0.0, abs=1e-12)
        xv = _marginal(pmf, (1, 0))
        np.testing.assert_allclose(m.p_v(), _marginal(pmf, (0,)), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(m.joint_xv(), xv, rtol=0.0, atol=1e-12)
        assert m.entropy_v() == pytest.approx(h(0), **close)
        assert m.entropy_v_given_x() == pytest.approx(h(0, 1) - h(1), **close)
        assert m.mu_xv() == pytest.approx(xv[xv > 0].min(), **close)
        for subset in _coalitions(3):
            y = tuple(1 + p for p in subset)
            law = _marginal(pmf, (0, 1) + y).reshape(m.n_v, m.n_x, -1)
            vy = _marginal(pmf, (0,) + y).reshape(m.n_v, -1)
            xy = _marginal(pmf, (1,) + y).reshape(m.n_x, -1)
            np.testing.assert_allclose(m.joint(subset), law, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(m.joint_vy(subset), vy, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(m.joint_xy(subset), xy, rtol=0.0, atol=1e-12)
            assert m.n_y(subset) == vy.shape[1]
            assert m.entropy_v_given_y(subset) == pytest.approx(h(0, *y) - h(*y), **close)
            assert m.entropy_x_given_yv(subset) == pytest.approx(
                h(1, *y, 0) - h(*y, 0), **close)
            assert m.mi_v_y(subset) == pytest.approx(h(0) + h(*y) - h(0, *y), **close)
            assert m.mi_x_v_given_y(subset) == pytest.approx(
                h(1, *y) + h(0, *y) - h(1, 0, *y) - h(*y), **close)
            assert m.mu_xy(subset) == pytest.approx(xy[xy > 0].min(), **close)
            assert m.mu_vxy(subset) == pytest.approx(law[law > 0].min(), **close)
            assert m.mu_vy(subset) == pytest.approx(vy[vy > 0].min(), **close)
            assert m.support_vy(subset) == np.count_nonzero(vy > 0)

    @pytest.mark.parametrize("l_quant", [2, 4])
    @pytest.mark.parametrize("rp_target", [None, 1.0])
    def test_information_identities_on_every_coalition(self, l_quant, rp_target):
        m = build_quantized_source(README, README_STRUCTURE, l_quant, rp_target)
        for subset in _coalitions(3):
            law = m.joint(subset)
            h_v = _h(law.sum(axis=(1, 2)))
            h_v_given_xy = _h(law) - _h(law.sum(axis=0))
            assert m.mi_v_y(subset) + m.mi_x_v_given_y(subset) == pytest.approx(
                h_v - h_v_given_xy, rel=0.0, abs=1e-12)
            for p in set(range(1, 4)) - set(subset):
                grown = tuple(sorted(subset + (p,)))
                assert m.mi_v_y(subset) <= m.mi_v_y(grown) + 1e-12
        if rp_target is None:
            assert m.entropy_v_given_x() == 0.0

    @pytest.mark.parametrize("spec, structure", [
        (README, README_STRUCTURE), (L10, threshold_structure(10, 5))])
    def test_source_marginal_is_exact_at_two_bins(self, spec, structure):
        # every X bin's mass is the same float sum of the node weights
        m = build_quantized_source(spec, structure, 2)
        assert np.array_equal(m.joint_xv(), np.diag([0.5, 0.5]))

    def test_kept_laws_stay_within_the_budget(self, monkeypatch):
        m = build_quantized_source(README, README_STRUCTURE, 4)
        monkeypatch.setattr(model, "_MODEL_CELL_BUDGET", 300)
        first = m.joint(())  # 16 cells
        assert m.joint(()) is first
        m.joint((1,))  # 64 cells, 80 kept
        assert sorted(m._laws) == [(), (1,)]
        m.joint((1, 2))  # 256 more would pass 300: the kept laws go first
        assert list(m._laws) == [(1, 2)]
        assert sum(law.size for law in m._laws.values()) <= 300
        again = m.joint(())
        assert again is not first and np.array_equal(again, first)
        assert sorted(m._laws) == [(), (1, 2)]

    def test_laws_are_read_only(self):
        law = build_quantized_source(README, README_STRUCTURE, 2).joint((1, 3))
        with pytest.raises(ValueError):
            law[0, 0, 0] = 1.0

    @pytest.mark.parametrize("subset", [(0,), (4,), (1, 1)])
    def test_a_coalition_names_distinct_participants(self, subset):
        m = build_quantized_source(README, README_STRUCTURE, 2)
        with pytest.raises(DomainError):
            m.joint(subset)


def _genz_cells(m):
    """p(x bin, y bin) of participant 1 by scipy's Genz bivariate normal CDF,
    a route that shares no quadrature with the model."""
    sx, g = m.spec.sigma2_x, m.spec.gains[0]
    mvn = multivariate_normal(mean=[0.0, 0.0],
                              cov=[[sx, g * sx], [g * sx, g * g * sx + 1.0]])
    ex, ey = (np.concatenate([[-np.inf], q.boundaries, [np.inf]])
              for q in (m.x_quantizer, m.y_quantizers[0]))
    return np.array([[mvn.cdf([ex[i + 1], ey[j + 1]], lower_limit=[ex[i], ey[j]])
                      for j in range(ey.size - 1)] for i in range(ex.size - 1)])


class TestCellsAgainstGenz:
    @staticmethod
    def cells(gain, l_quant):
        spec = SourceSpec.from_gains(2.0, [gain])
        m = build_quantized_source(spec, threshold_structure(1, 1), l_quant)
        return m.joint_xy((1,)), _genz_cells(m)

    @pytest.mark.parametrize("l_quant", [2, 4, 8])
    def test_unit_gain_agrees_in_relative_terms(self, l_quant):
        # measured: 6.5e-13, 2.8e-10 and 3.2e-9 at l_quant 2, 4 and 8
        np.testing.assert_allclose(*self.cells(1.0, l_quant), rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("gain", [5.0, 30.0])
    @pytest.mark.parametrize("l_quant", [2, 4, 8])
    def test_steep_gains_agree_in_absolute_terms(self, gain, l_quant):
        # Genz returns 0 for cells below its tolerance, so no relative test
        np.testing.assert_allclose(*self.cells(gain, l_quant), rtol=0.0, atol=1e-14)

    @pytest.mark.xfail(strict=True, reason=(
        "model defect: with g^2 sigma2_x < 1 a tail bin's integrand behaves like "
        "u^(g^2 sigma2_x) at its open end in u = CDF(x), an endpoint singularity; "
        "measured 2.4e-8 to 3.6e-6 relative error"))
    @pytest.mark.parametrize("gain", [0.5, 0.6])
    def test_weak_gains_agree_in_relative_terms(self, gain):
        for l_quant in (2, 4, 8):
            np.testing.assert_allclose(*self.cells(gain, l_quant), rtol=1e-9, atol=0.0)


@st.composite
def refinement_cases(draw):
    """A gains source on L <= 3 participants, a threshold or closure
    structure over it, and an auxiliary: V = X or a capacity-optimal one."""
    l = draw(st.integers(min_value=1, max_value=3))
    gains = draw(st.lists(st.floats(-3.0, 3.0, allow_subnormal=False), min_size=l, max_size=l))
    spec = SourceSpec.from_gains(draw(st.floats(0.2, 3.0)), gains)
    if draw(st.booleans()):
        structure = threshold_structure(l, draw(st.integers(1, l)))
    else:
        generators = draw(st.lists(st.sets(st.integers(1, l), min_size=1), min_size=1,
                                   max_size=3))
        structure = monotone_closure(l, generators)
    return spec, structure, draw(st.sampled_from([None, 0.5, 2.0]))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(refinement_cases())
def test_property_information_grows_under_refinement_to_its_gaussian_value(case):
    # nested equiprobable quantizers and data processing: I(V; Y_S) never
    # falls as the bins split, and never passes the unquantized value
    spec, structure, rp_target = case
    levels = (2, 4, 8, 16) if spec.l <= 2 else (2, 4, 8)
    models = [build_quantized_source(spec, structure, l_quant, rp_target)
              for l_quant in levels]
    s2 = models[0].sigma2_cond
    for subset in _coalitions(spec.l):
        if s2 is None:
            gaussian = mutual_information(spec, subset)
        else:
            snr = subset_snr(spec, subset)
            gaussian = 0.5 * math.log2((spec.sigma2_x * snr + 1.0) / (s2 * snr + 1.0))
        mi = [m.mi_v_y(subset) for m in models]
        assert all(fine >= coarse - 1e-12 for coarse, fine in zip(mi, mi[1:])), (subset, mi)
        assert max(mi) <= gaussian + 1e-12, (subset, mi, gaussian)


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

    @pytest.mark.parametrize("pmf", [[1.0], [0.0, 1.0, 0.0], np.eye(2)[:1], np.zeros(3)])
    def test_entropy_of_a_point_mass_is_positive_zero(self, pmf):
        h = info.entropy(np.asarray(pmf))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_entropy_keeps_nonzero_values(self):
        # 0.0 - s equals -s exactly for every nonzero s
        p = np.array([0.2, 0.3, 0.5])
        assert info.entropy(p) == float(-np.sum(p * np.log2(p)))

    def test_normalization_guard(self):
        info.check_normalized(1.0)
        info.check_normalized(1.0 + 5e-10)
        with pytest.raises(DomainError):
            info.check_normalized(1.0 + 2e-9)
