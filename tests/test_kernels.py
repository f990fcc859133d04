import math

import numpy as np
import pytest
from scipy.integrate import quad

from amalgam.grid import lp_norm, make_grid, sample
from amalgam.kernels import (
    caloric_conjugate_kernel,
    conjugate_poisson_kernel,
    decay_certificate,
    half_derivative_heat_pointwise,
    heat_kernel,
    poisson_kernel,
    riesz_kernel_split,
)
from amalgam.spectral import convolve, riesz

from conftest import rel_l2

# the periodized kernels differ from the pointwise formulas by the image
# tails; at L=32 those sit a bit above 1e-4
PERIODIZATION_TOL = 1e-3


class TestKernelValues:
    def test_poisson_origin(self, desk1):
        P = poisson_kernel(desk1, 1.0)
        assert P.at(0.0).real == pytest.approx(1 / math.pi, abs=PERIODIZATION_TOL)

    def test_conjugate_poisson_at_one(self, desk1):
        Q = conjugate_poisson_kernel(desk1, 1.0, 1)
        assert Q.at(1.0).real == pytest.approx(1 / (2 * math.pi), abs=PERIODIZATION_TOL)

    def test_heat_2d_origin(self, desk2):
        W = heat_kernel(desk2, 1.0)
        assert W.at((0.0, 0.0)).real == pytest.approx(1 / (4 * math.pi), abs=1e-9)

    def test_time_required(self, desk1):
        for kernel in (poisson_kernel, heat_kernel, conjugate_poisson_kernel,
                       caloric_conjugate_kernel):
            for t in (0.0, None):
                with pytest.raises(ValueError, match="time parameter"):
                    kernel(desk1, t)

    def test_axis_range(self, desk1):
        with pytest.raises(ValueError):
            conjugate_poisson_kernel(desk1, 1.0, j=2)

    def test_pointwise_vs_periodized_gap(self, desk1):
        # the kernel bank and the analytic sampler differ exactly by the
        # image sums, which are tiny but nonzero at this box size
        P = poisson_kernel(desk1, 1.0)
        P0 = sample("poisson_kernel:t=1", desk1)
        gap = np.max(np.abs(P.values - P0.values))
        assert 1e-6 < gap < 1e-3


class TestUnitMass:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 16.0, 64.0])
    def test_heat_mass_1d(self, desk1, t):
        W = heat_kernel(desk1, t)
        assert desk1.h * np.sum(W.values.real) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 16.0, 64.0])
    def test_poisson_mass_1d(self, desk1, t):
        P = poisson_kernel(desk1, t)
        assert desk1.h * np.sum(P.values.real) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("t", [0.5, 1.0, 4.0])
    def test_mass_2d(self, desk2, t):
        for K in (poisson_kernel(desk2, t), heat_kernel(desk2, t)):
            assert desk2.h**2 * np.sum(K.values.real) == pytest.approx(1.0, abs=1e-6)


class TestSemigroup:
    def test_heat(self, desk1):
        got = convolve(heat_kernel(desk1, 0.25), heat_kernel(desk1, 0.25))
        assert rel_l2(got.values, heat_kernel(desk1, 0.5).values) <= 1e-8

    def test_poisson(self, desk1):
        got = convolve(poisson_kernel(desk1, 0.5), poisson_kernel(desk1, 0.5))
        assert rel_l2(got.values, poisson_kernel(desk1, 1.0).values) <= 1e-6

    def test_heat_2d(self, desk2):
        got = convolve(heat_kernel(desk2, 0.5), heat_kernel(desk2, 0.5))
        assert rel_l2(got.values, heat_kernel(desk2, 1.0).values) <= 1e-8


def _odd_defect(values):
    """max |f(x) + f(-x)| over paired nodes (node -L has no partner)."""
    v = np.asarray(values)
    flipped = np.flip(v[1:] if v.ndim == 1 else v[1:, 1:])
    base = v[1:] if v.ndim == 1 else v[1:, 1:]
    return float(np.max(np.abs(base + flipped)))


class TestOddness:
    def test_conjugate_poisson(self, desk1):
        Q = conjugate_poisson_kernel(desk1, 1.0)
        assert _odd_defect(Q.values.real) <= 1e-12

    def test_caloric_conjugate(self, desk1):
        S = caloric_conjugate_kernel(desk1, 1.0)
        assert _odd_defect(S.values.real) <= 1e-12 * np.max(np.abs(S.values))

    def test_riesz_split_oddness(self, desk1):
        split = riesz_kernel_split(1, desk1)
        assert _odd_defect(split["near"].values.real) <= 1e-12
        assert _odd_defect(split["far"].values.real) <= 1e-12

    def test_caloric_conjugate_2d_odd_in_x1(self, desk2):
        S = caloric_conjugate_kernel(desk2, 0.5, 1)
        v = S.values.real[1:, :]
        assert np.max(np.abs(v + np.flip(v, axis=0))) <= 1e-12 * np.max(np.abs(v))


class TestRieszSplit:
    def test_far_value(self, desk1):
        split = riesz_kernel_split(1, desk1)
        assert split["far"].at(2.0).real == pytest.approx(1 / (2 * math.pi), abs=1e-12)

    def test_near_support(self, desk1):
        split = riesz_kernel_split(1, desk1)
        x = desk1.axis_nodes()
        assert np.all(split["near"].values.real[np.abs(x) >= 1.0] == 0.0)
        assert split["near"].at(2.0) == 0

    def test_split_reassembles(self, desk1):
        split = riesz_kernel_split(1, desk1)
        x = desk1.axis_nodes()
        total = split["near"].values.real + split["far"].values.real
        mask = np.abs(x) > 0
        np.testing.assert_allclose(total[mask], 1 / (math.pi * x[mask]), rtol=1e-12)
        assert total[desk1.index_of(0.0)] == 0.0

    def test_origin_is_zero_2d(self, desk2):
        split = riesz_kernel_split(2, desk2)
        assert split["near"].at((0.0, 0.0)) == 0


class TestConjugacy:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_riesz_of_poisson_is_conjugate(self, desk1, t):
        got = riesz(poisson_kernel(desk1, t), 1)
        want = conjugate_poisson_kernel(desk1, t)
        assert rel_l2(got.values, want.values) <= 1e-3

    def test_riesz_of_heat_is_caloric_conjugate(self, desk1):
        got = riesz(heat_kernel(desk1, 1.0), 1)
        want = caloric_conjugate_kernel(desk1, 1.0)
        assert lp_norm(got - want, 2) <= 1e-10


class TestCaloricConjugateQuadrature:
    def test_sine_integral_probes(self, desk1):
        # independent re-computation: adaptive quadrature of the sine
        # transform plus the closed lattice-sum correction for the images
        t = 1.0
        S = caloric_conjugate_kernel(desk1, t, 1)
        c = 2.0 * desk1.L

        def quad_s(y):
            val, _ = quad(
                lambda xi: 2 * np.exp(-4 * np.pi**2 * t * xi**2) * np.sin(2 * np.pi * xi * y),
                0, np.inf, limit=200,
            )
            return val

        for x in (0.25, 0.5, 1.0, 2.0, 5.0):
            direct = sum(quad_s(x + c * m) for m in range(-2, 3))
            tail = (1 / c) / math.tan(math.pi * x / c) - sum(
                1 / (math.pi * (x + c * m)) for m in range(-2, 3)
            )
            assert S.at(x).real == pytest.approx(direct + tail, abs=1e-4)


class TestDecayCertificates:
    def test_heat_dt_origin_constant(self):
        # at x=0 the weighted derivative is flat in t: d/(2t) W_t(0) t^(3/2)
        spec = make_grid(1, 8, 512)
        x0 = spec.index_of(0.0)
        for t in (0.1, 1.0, 10.0):
            from amalgam.analytic import heat_dt

            val = abs(heat_dt([np.array([0.0])], t)[0]) * t ** 1.5
            assert val == pytest.approx(1 / (4 * math.sqrt(math.pi)), rel=1e-12)

    def test_finite_over_lattice(self, small1):
        t_grid = np.geomspace(0.1, 10.0, 16)
        for kind in ("heat_dt", "heat_half_dt"):
            c = decay_certificate(kind, small1, t_grid)
            assert np.isfinite(c.max_ratio) and c.max_ratio > 0

    def test_refinement_stability(self):
        t_grid = np.geomspace(0.1, 10.0, 25)
        for kind in ("heat_dt", "heat_half_dt"):
            c1 = decay_certificate(kind, make_grid(1, 16, 1024), t_grid)
            c2 = decay_certificate(kind, make_grid(1, 16, 2048), t_grid)
            assert abs(c2.max_ratio - c1.max_ratio) <= 0.05 * c1.max_ratio

    def test_half_derivative_closed_form_vs_spectral(self, desk1):
        # Dawson-form pointwise values against the lattice symbol route; the
        # lattice route is periodized, so add the far-field image sum
        # (asymptotically i/(pi y^2), with closed lattice form) to the target
        from amalgam.grid import SpectralFunction, inverse

        t = 0.5
        xi = desk1.axis_freqs()
        sym = -2j * np.pi * np.abs(xi) * np.exp(-4 * np.pi**2 * t * xi**2)
        grid_route = inverse(SpectralFunction(desk1, sym)).values
        x = desk1.axis_nodes()
        closed = half_derivative_heat_pointwise(x, t)
        c = 2.0 * desk1.L
        center = np.abs(x) <= 8.0
        xc = x[center]
        with np.errstate(divide="ignore", invalid="ignore"):
            images = (1j / np.pi) * ((np.pi / c) ** 2 / np.sin(np.pi * xc / c) ** 2 - 1.0 / xc**2)
        images[xc == 0] = (1j / np.pi) * (np.pi / c) ** 2 * (1.0 / 3.0)  # limit at 0
        assert np.max(np.abs(grid_route[center] - closed[center] - images)) <= 1e-4

    def test_rejects_bad_inputs(self, small1):
        with pytest.raises(ValueError):
            decay_certificate("poisson_dt", small1, [1.0])
        with pytest.raises(ValueError):
            decay_certificate("heat_dt", small1, [0.0, 1.0])
        with pytest.raises(ValueError):
            decay_certificate("heat_half_dt", make_grid(2, 2, 16), [1.0])
