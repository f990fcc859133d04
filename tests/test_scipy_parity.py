"""The numpy routes that stand in for scipy on the CLI's import path, pinned to
scipy itself, which the tests use as an oracle only.

- grid._fftn/_ifftn equal scipy.fft.fftn/ifftn bit for bit, and
  numpy.fft.rfft2/irfft2 equal scipy.fft's;
- extension._run_max on one line equals scipy.ndimage.maximum_filter1d and
  extension._moving_mean equals uniform_filter1d (both mode "wrap") bit for
  bit;
- analytic._erfcx and analytic._dawson agree with scipy.special.erfcx and
  dawsn to a few units in the last place.
"""

import numpy as np
import pytest
import scipy.fft
from scipy.ndimage import maximum_filter1d, uniform_filter1d
from scipy.special import dawsn, erfcx

from amalgam.analytic import _dawson, _erfcx
from amalgam.extension import TimeGrid, _moving_mean, _run_max, _strict_halfwidth
from amalgam.grid import _fftn, _ifftn


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


class TestFFT:
    @pytest.mark.parametrize("shape, d", [((4096,), 1), ((8, 4096), 1), ((48, 4096), 1),
                                          ((256, 256), 2), ((2, 256, 256), 2), ((48, 256, 256), 2)])
    def test_fftn_and_ifftn(self, shape, d):
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = tuple(range(-d, 0))
        for ours, theirs in ((_fftn, scipy.fft.fftn), (_ifftn, scipy.fft.ifftn)):
            want = theirs(a, axes=axes)
            assert_same_bits(ours(a, d), want)
            b = a.copy()
            assert ours(b, d, out=b) is b
            assert_same_bits(b, want)

    def test_rfft2_and_irfft2(self):
        a = np.random.default_rng(1).standard_normal((256, 256))
        spectrum = scipy.fft.rfft2(a)
        assert_same_bits(np.fft.rfft2(a), spectrum)
        assert_same_bits(np.fft.irfft2(spectrum, s=a.shape), scipy.fft.irfft2(spectrum, s=a.shape))


def freeze_window_sizes(n=4096, L=32):
    """The window sizes of the d=1 reference run (L=32, n=4096, 48 times):
    runs 2w + 1 (capped at n) of the nontangential max and of the area
    balls, and these with the Hardy-Littlewood sizes 2m - 1 for the means."""
    h = 2.0 * L / n
    runs = {min(2 * _strict_halfwidth(float(t), h) + 1, n) for t in TimeGrid(1e-3, 64.0, 48).values}
    means = runs | {2 * m - 1 for m in (2**k for k in range(n.bit_length() - 1))}
    return sorted(runs), sorted(means)


@pytest.mark.parametrize("n, run_sizes, mean_sizes",
                         [(64, range(1, 65), range(1, 65)), (4096, *freeze_window_sizes())],
                         ids=["n64-every-size", "n4096-freeze-sizes"])
class TestWindows:
    def line(self, n):
        # |u|^r of a complex line, as the maximal functions see it
        rng = np.random.default_rng(n)
        return np.abs(rng.standard_normal(n) + 1j * rng.standard_normal(n)) ** 1.5

    def test_run_max(self, n, run_sizes, mean_sizes):
        a = self.line(n)
        for size in run_sizes:
            w = (size - 1) // 2
            got = _run_max([a[None]], w, np.empty((1, n)))[0]
            want = maximum_filter1d(a, size=min(2 * w + 1, n), mode="wrap")
            assert_same_bits(np.ascontiguousarray(got), want)

    def test_moving_mean(self, n, run_sizes, mean_sizes):
        a = self.line(n)
        for size in mean_sizes:
            assert_same_bits(_moving_mean(a, size), uniform_filter1d(a, size=size, mode="wrap"))


class TestSpecialFunctions:
    def test_erfcx(self):
        x = np.concatenate([np.linspace(0.0, 60.0, 120001), np.geomspace(1e-8, 1.0, 2001)])
        np.testing.assert_allclose(_erfcx(x), erfcx(x), rtol=2e-15, atol=0)

    def test_erfcx_scalar_and_limits(self):
        assert _erfcx(0.0) == 1.0
        assert _erfcx(np.inf) == 0.0
        assert np.isnan(_erfcx(np.nan))

    def test_dawson(self):
        x = np.concatenate([np.geomspace(1e-8, 60.0, 20001), np.linspace(1e-8, 60.0, 120001)])
        x = np.concatenate([x, -x])
        np.testing.assert_allclose(_dawson(x), dawsn(x), rtol=5e-14, atol=0)

    def test_dawson_zero_and_limits(self):
        assert _dawson(0.0) == 0.0
        np.testing.assert_array_equal(_dawson(np.array([np.inf, -np.inf])), [0.0, -0.0])
        assert np.isnan(_dawson(np.nan))
