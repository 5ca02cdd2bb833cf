"""gauss_share.protocol.normal against scipy.special, which runs the same
Cephes routines in C: the ports must return scipy's bits, on every grid the
protocol model evaluates and on a million seeded arguments."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import special

import gauss_share
from gauss_share.access_structure import monotone_closure
from gauss_share.protocol import model, normal, quantize
from gauss_share.protocol.model import build_quantized_source
from gauss_share.source_model import SourceSpec

MAXLOG = 7.09782712893383996843e2
# branch points of the ports in ndtr's argument a = sqrt(2) x: x = sqrt(1/2),
# 1 and 8, erfc's underflow at x^2 = MAXLOG (ndtr's lower saturation) and
# the clamp at x = 27; ndtr(a) rounds to 1 from a = 8.2924
NDTR_EDGES = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG),
                       27.0 * math.sqrt(2.0), 8.2924])
# branch points of ndtri: exp(-2) and 1 - exp(-2) (center and tail),
# exp(-32) (the tail's second rational), 0.5
NDTRI_EDGES = np.array([0.13533528323661269189, 1.0 - 0.13533528323661269189,
                        math.exp(-32.0), 0.5])
SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     1e-310, 2.2250738585072014e-308, 1e300, -1e300, 2.0])


def _neighbours(x):
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    numbers = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


# bitexact: the Cephes port returns scipy's bits under every BLAS kernel, and
# under every SIMD loop set only while numpy's + * / and sqrt are correctly
# rounded in each path, and while exp and log come from libm (through
# math), not numpy's own loops
@pytest.mark.bitexact
class TestNormal:
    def test_every_grid_the_model_reads(self):
        nodes, _ = model._gauss_legendre()
        for l_quant in range(2, 65):
            u = (np.arange(l_quant)[:, None] + (nodes + 1.0) / 2.0) / l_quant
            quantiles = model._node_quantiles(l_quant)
            _assert_same_bits(quantiles, special.ndtri(u))
            _assert_same_bits(normal.ndtr(quantiles), special.ndtr(quantiles))
        for n_bins in range(2, 257):
            grid = np.arange(1, n_bins) / n_bins
            boundaries = quantize._standard_boundaries(n_bins)
            _assert_same_bits(boundaries, special.ndtri(grid))
            _assert_same_bits(normal.ndtr(boundaries), special.ndtr(boundaries))
        # the lanes of build_quantized_source: an observation's boundaries
        # less a gain times the nodes, and an auxiliary's, scaled
        for l_quant in (2, 3, 8, 64):
            quantiles = math.sqrt(2.0) * model._node_quantiles(l_quant)[..., None]
            boundaries = quantize._standard_boundaries(l_quant)
            for args in (math.sqrt(2.0 * 0.64 + 1.0) * boundaries - 0.8 * quantiles,
                         (math.sqrt(3.0) * boundaries - quantiles) / 1.7):
                _assert_same_bits(normal.ndtr(args), special.ndtr(args))

    @pytest.mark.parametrize("l_quant, rp_target", [(2, None), (5, None), (3, 1.0), (8, 1.0)])
    def test_the_model_equals_the_per_bin_loop_through_scipy(self, l_quant, rp_target):
        # build_quantized_source's batched lanes and cached grids against the
        # per-bin, per-observer loop through scipy: the same arithmetic, so
        # the same bits
        spec = SourceSpec.from_gains(2.0, [0.5, 1.0, 0.8])
        m = build_quantized_source(spec, monotone_closure(3, [[1, 2], [2, 3]]),
                                   l_quant, rp_target)
        nodes, weights = leggauss(80)
        grid = np.arange(1, l_quant) / l_quant

        def rect(variance, centers, scale):
            edges = np.concatenate([[-np.inf], np.sqrt(variance) * special.ndtri(grid), [np.inf]])
            return np.diff(special.ndtr((edges[None, :] - centers[:, None]) / scale), axis=1)

        for i in range(l_quant):
            x_vals = math.sqrt(2.0) * special.ndtri((i + (nodes + 1.0) / 2.0) / l_quant)
            for p, g in enumerate(spec.gains):
                _assert_same_bits(m.node_y[p, i], rect(2.0 * g * g + 1.0, g * x_vals, 1.0))
            if rp_target is not None:
                want = weights[:, None] / (2.0 * l_quant) * rect(
                    2.0 + m.aux_noise_var, x_vals, math.sqrt(m.aux_noise_var))
                _assert_same_bits(m.node_v[i], want)

    def test_a_million_seeded_arguments(self):
        rng = np.random.default_rng(20260519)
        edges = np.concatenate([NDTR_EDGES, -NDTR_EDGES])
        a = np.concatenate([
            _neighbours(np.concatenate([SPECIALS, edges])),
            rng.normal(0.0, 1.0, 250_000),
            rng.normal(0.0, 10.0, 250_000),
            rng.uniform(-40.0, 40.0, 250_000),
            (edges[:, None] + rng.uniform(-0.01, 0.01, (edges.size, 20_000))).ravel(),
            rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-320, -300, 10_000),
        ])
        assert a.size >= 1_000_000
        _assert_same_bits(normal.ndtr(a), special.ndtr(a))

        y = np.concatenate([
            _neighbours(np.concatenate([SPECIALS, NDTRI_EDGES])),
            rng.uniform(0.0, 1.0, 300_000),
            10.0 ** rng.uniform(-323.5, 0.0, 300_000),  # tails and subnormals
            1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 200_000),
            (NDTRI_EDGES[:, None] * (1.0 + rng.uniform(-0.01, 0.01, (4, 50_000)))).ravel(),
        ])
        assert y.size >= 1_000_000
        _assert_same_bits(normal.ndtri(y), special.ndtri(y))

    def test_no_warning_and_no_scipy(self, tmp_path):
        extremes = _neighbours(np.concatenate([SPECIALS, [1e308, -1e308, 1e-320]]))
        with warnings.catch_warnings(), np.errstate(divide="warn", over="warn", invalid="warn"):
            warnings.simplefilter("error")
            for f in (normal.ndtr, normal.ndtri):
                f(extremes)
                f(extremes.reshape(3, -1))
                assert f(np.array([])).shape == (0,)
        src_dir = str(Path(gauss_share.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src_dir, os.environ.get("PYTHONPATH", "")])))
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from gauss_share.protocol import normal\n"
            "for f in (normal.ndtr, normal.ndtri):\n"
            "    f(np.linspace(-40.0, 40.0, 101))\n"
            "loaded = [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
            "assert not loaded, loaded\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=env, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
