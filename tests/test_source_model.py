"""Source model tests: gain derivation, whitening, and mutual information.

The covariance route is checked against the gains route on matched inputs:
a diagonal-noise covariance assembled from a gain vector must whiten back to
the same effective SNR, and correlated-noise instances must pass the built-in
log-det cross check inside mutual_information.
"""

import math
import sys

import numpy as np
import pytest

from gauss_share import source_model
from gauss_share.errors import (
    DomainError,
    IndexOutOfRange,
    NonPositiveDefinite,
    NumericError,
)
from gauss_share.source_model import (
    SourceSpec,
    derive_gain_vector,
    mutual_information,
    subset_snr,
)


def gains_as_covariance(sigma2_x, gains):
    """Covariance of (X, Y_1..Y_L) for Y_i = gains[i] X + W_i, unit noise."""
    g = np.asarray(gains, dtype=float)
    l = g.size
    cov = np.zeros((l + 1, l + 1))
    cov[0, 0] = sigma2_x
    cov[0, 1:] = sigma2_x * g
    cov[1:, 0] = sigma2_x * g
    cov[1:, 1:] = sigma2_x * np.outer(g, g) + np.eye(l)
    return cov


def test_from_gains_basic_fields():
    spec = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
    assert spec.mode == "gains"
    assert spec.l == 3
    assert spec.sigma2_x == 2.0
    assert spec.covariance is None


def test_subset_snr_is_squared_norm_of_member_gains():
    spec = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
    assert subset_snr(spec, [1, 2]) == pytest.approx(0.25 + 1.0, abs=0.0)
    assert subset_snr(spec, [2, 3]) == pytest.approx(1.0 + 0.64, abs=0.0)
    assert subset_snr(spec, [1, 2, 3]) == pytest.approx(1.89)
    assert subset_snr(spec, [1, 3]) == pytest.approx(0.89)


def test_gains_snr_is_a_left_to_right_sum_over_ascending_members():
    # 1 + 3 * 2**-54 is 1 added from the left but 1 + 2**-52 from the right
    tiny = 2.0**-27
    cases = [([1.0, tiny, tiny, tiny], [1, 2, 3, 4]), ([tiny, tiny, tiny, 1.0], [1, 2, 3, 4])]
    rng = np.random.default_rng(11)
    for _ in range(200):
        l = int(rng.integers(1, 13))
        # squares near 1 are where summation orders most often round apart
        gains = rng.uniform(0.97, 1.03, l) * rng.choice([-1, 1], l)
        members = rng.choice(l, size=int(rng.integers(1, l + 1)), replace=False) + 1
        cases.append((gains, sorted(members.tolist())))
    for gains, members in cases:
        total = 0.0
        for m in members:
            g = float(gains[m - 1])
            total = total + g * g
        assert subset_snr(SourceSpec.from_gains(1.0, gains), members[::-1]) == total


def test_empty_subset_has_zero_snr():
    spec = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
    sg = derive_gain_vector(spec, [])
    assert sg.snr == 0.0
    assert sg.subset == ()
    assert sg.gains.size == 0
    assert mutual_information(spec, []) == 0.0


def test_subset_members_deduplicated_and_sorted():
    spec = SourceSpec.from_gains(1.0, [0.3, 0.7])
    sg = derive_gain_vector(spec, [2, 1, 2])
    assert sg.subset == (1, 2)


def test_subset_bounds_checked():
    spec = SourceSpec.from_gains(1.0, [0.3, 0.7])
    with pytest.raises(IndexOutOfRange):
        subset_snr(spec, [0])
    with pytest.raises(IndexOutOfRange):
        subset_snr(spec, [3])


def test_covariance_route_matches_gains_route():
    rng = np.random.default_rng(1234)
    for _ in range(50):
        l = int(rng.integers(1, 6))
        sigma2_x = float(rng.uniform(0.5, 4.0))
        gains = rng.uniform(0.1, 2.0, size=l)
        spec_g = SourceSpec.from_gains(sigma2_x, gains)
        spec_c = SourceSpec.from_covariance(gains_as_covariance(sigma2_x, gains))
        assert spec_c.l == l
        assert spec_c.sigma2_x == pytest.approx(sigma2_x)
        for size in range(1, l + 1):
            subset = sorted(rng.choice(l, size=size, replace=False) + 1)
            snr_g = subset_snr(spec_g, subset)
            snr_c = subset_snr(spec_c, subset)
            assert snr_c == pytest.approx(snr_g, rel=1e-10)


def test_mutual_information_gains_closed_form():
    spec = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
    got = mutual_information(spec, [1, 2])
    assert got == pytest.approx(0.5 * math.log2(2.0 * 1.25 + 1.0), rel=1e-12)


def test_mutual_information_covariance_self_check_passes():
    # correlated noise: derived gains go through the Cholesky whitening and
    # the log-det cross check inside mutual_information must stay silent
    rng = np.random.default_rng(77)
    for _ in range(25):
        l = int(rng.integers(2, 5))
        a = rng.normal(size=(l + 1, l + 1))
        cov = a @ a.T + (l + 1) * np.eye(l + 1)
        spec = SourceSpec.from_covariance(cov)
        subset = sorted(rng.choice(l, size=int(rng.integers(1, l + 1)), replace=False) + 1)
        value = mutual_information(spec, subset)
        assert value >= 0.0


CORRELATED = SourceSpec.from_covariance([[2.0, 1.0, 0.5], [1.0, 2.0, 0.3], [0.5, 0.3, 1.5]])


def test_mutual_information_refuses_a_scalar_route_off_the_log_det(monkeypatch):
    real = source_model.subset_snr
    monkeypatch.setattr(source_model, "subset_snr",
                        lambda spec, members: real(spec, members) * (1.0 + 1e-6))
    with pytest.raises(NumericError, match="^log-det mutual information .* disagrees with "
                                           "scalar form "):
        mutual_information(CORRELATED, [1, 2])


# the log-det route's two determinants: of (X, Y_S), 3 x 3, and of Y_S, 2 x 2
@pytest.mark.parametrize("size", [3, 2])
def test_mutual_information_refuses_a_determinant_that_is_not_positive(monkeypatch, size):
    real = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet",
                        lambda m: (-1.0, 0.0) if len(m) == size else real(m))
    with pytest.raises(NonPositiveDefinite,
                       match="^covariance sub-block has non-positive determinant$"):
        mutual_information(CORRELATED, [1, 2])


def test_mutual_information_monotone_in_subset():
    spec = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
    assert mutual_information(spec, [1, 2, 3]) >= mutual_information(spec, [1, 2])
    assert mutual_information(spec, [1, 2]) >= mutual_information(spec, [1])


def test_from_gains_validation():
    with pytest.raises(DomainError):
        SourceSpec.from_gains(0.0, [1.0])
    with pytest.raises(DomainError):
        SourceSpec.from_gains(-1.0, [1.0])
    with pytest.raises(DomainError):
        SourceSpec.from_gains(1.0, [])
    with pytest.raises(DomainError):
        SourceSpec.from_gains(1.0, [np.inf])
    with pytest.raises(DomainError, match="sigma2_x must be finite"):
        SourceSpec.from_gains(math.inf, [1.0])
    # every entry finite, but sigma2_x * snr of all participants is not
    for sigma2_x, gains in [(1e308, [0.5, 1.0, 0.8]), (2.0, [0.5, 1e160, 0.8])]:
        with pytest.raises(DomainError, match="sum of squared gains must be finite"):
            SourceSpec.from_gains(sigma2_x, gains)
    SourceSpec.from_gains(1e300, [0.5, 1.0, 0.8])  # large, but its product fits
    for sigma2_x in (5e-324, 1e-310):  # subnormal
        with pytest.raises(DomainError, match="the smallest normal float"):
            SourceSpec.from_gains(sigma2_x, [1.0])
    SourceSpec.from_gains(sys.float_info.min, [1.0])


def test_from_covariance_validation():
    with pytest.raises(NonPositiveDefinite):
        SourceSpec.from_covariance([[1.0, 0.5]])  # not square
    with pytest.raises(NonPositiveDefinite):
        SourceSpec.from_covariance([[1.0, 0.5], [0.5]])  # ragged rows
    with pytest.raises(NonPositiveDefinite):
        SourceSpec.from_covariance([[1.0]])  # no participants
    with pytest.raises(NonPositiveDefinite):
        SourceSpec.from_covariance([[1.0, 0.3], [0.2, 1.0]])  # asymmetric
    with pytest.raises(NonPositiveDefinite):
        SourceSpec.from_covariance([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    singular = [[1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(NonPositiveDefinite):
        SourceSpec.from_covariance(singular)
    with pytest.raises(DomainError, match="the smallest normal float"):
        SourceSpec.from_covariance([[1e-310, 0.0], [0.0, 1e-310]])


def test_spec_arrays_are_frozen():
    spec = SourceSpec.from_gains(1.0, [0.5])
    with pytest.raises(ValueError):
        spec.gains[0] = 2.0
