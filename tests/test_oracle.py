import math

import numpy as np
import pytest

from amalgam.crsys import ConjugateField, caloric_cr_residual, harmonic_cr_residual
from amalgam.extension import TimeGrid
from amalgam.grid import GridFunction, bandlimited_random, make_grid, sample
from amalgam.hardy import caloric_lift, harmonic_lift
from amalgam.oracle import (
    caloric_cr_residual_direct,
    convolve_direct,
    harmonic_cr_residual_direct,
    riesz_direct_pv,
    weyl_direct,
)
from amalgam.spectral import convolve, riesz

from conftest import rel_l2


class TestConvolveDirect:
    def test_matches_spectral(self):
        spec = make_grid(1, 4, 128)
        f = bandlimited_random(spec, 5, 0.5, 4.0)
        g = sample("gaussian:width=0.5", spec)
        assert np.max(np.abs(convolve(f, g).values - convolve_direct(f, g).values)) <= 1e-10

    def test_matches_spectral_2d(self):
        spec = make_grid(2, 2, 32)
        f = bandlimited_random(spec, 3, 0.5, 2.0)
        g = sample("gaussian:width=0.5", spec)
        assert np.max(np.abs(convolve(f, g).values - convolve_direct(f, g).values)) <= 1e-10

    def test_delta_identity(self, small1):
        g = sample("gaussian:width=2", small1)
        v = np.zeros(small1.shape)
        v[small1.index_of(0.0)] = 1.0 / small1.h
        delta = GridFunction(small1, v)
        assert np.max(np.abs(convolve_direct(delta, g).values - g.values)) <= 1e-12

    def test_commutativity(self):
        spec = make_grid(1, 4, 128)
        f = bandlimited_random(spec, 1, 0.5, 4.0)
        g = bandlimited_random(spec, 2, 0.5, 4.0)
        assert np.max(np.abs(convolve_direct(f, g).values - convolve_direct(g, f).values)) <= 1e-12

    def test_size_cap(self):
        spec = make_grid(1, 32, 2**15)
        f = sample("gaussian", spec)
        with pytest.raises(ValueError, match="limited"):
            convolve_direct(f, f)


class TestRieszDirectPV:
    def test_matches_spectral_on_smooth_low_band(self, small1):
        # odd gaussian, width 4: low band keeps the first-order lattice-sum
        # symbol error under the tolerance
        x = small1.axis_nodes()
        f = GridFunction(small1, x * np.exp(-((x / 4.0) ** 2)))
        rs = riesz(f, 1)
        rd = riesz_direct_pv(f, 1, small1.h)
        assert rel_l2(rd.values, rs.values) <= 5e-3

    def test_refinement_monotone(self, small1):
        x = small1.axis_nodes()
        f = GridFunction(small1, x * np.exp(-((x / 4.0) ** 2)))
        rs = riesz(f, 1)
        err = [rel_l2(riesz_direct_pv(f, 1, m * small1.h).values, rs.values) for m in (2, 1)]
        assert err[1] < err[0]

    def test_parity(self, small1):
        x = small1.axis_nodes()
        fe = GridFunction(small1, np.exp(-(x**2)))  # even about the origin
        out = riesz_direct_pv(fe, 1, small1.h).values.real
        n = small1.n
        defect = max(abs(out[i] + out[(n - i) % n]) for i in range(1, n))
        assert defect <= 1e-10

    def test_delta_values(self, small1):
        f = sample("gaussian", small1)
        with pytest.raises(ValueError, match="delta"):
            riesz_direct_pv(f, 1, 3 * small1.h)

    def test_2d_runs_and_detects_oddness(self, small2):
        x1, x2 = small2.nodes()
        f = GridFunction(small2, np.exp(-(x1**2 + x2**2)))
        out = riesz_direct_pv(f, 1, small2.h).values.real
        # output odd in x1 on the paired sublattice
        v = out[1:, :]
        assert np.max(np.abs(v + np.flip(v, axis=0))) <= 1e-10


class TestWeylDirect:
    def test_exp_decay_closed_form(self):
        got = weyl_direct("exp_decay", 1.0, lam=1.0)
        want = -1j * math.exp(-1.0)
        assert abs(got - want) <= 1e-8

    def test_exp_decay_lam4(self):
        got = weyl_direct("exp_decay", 0.5, lam=4.0)
        want = -2j * math.exp(-2.0)
        assert abs(got - want) <= 1e-8

    def test_linearity_against_quadrature(self):
        a = weyl_direct("exp_decay", 1.0, lam=1.0)
        b = weyl_direct("exp_decay", 1.0, lam=4.0)
        # 2 e^{-t} + 3 e^{-4t} differentiates to the same combination
        combo = 2 * a + 3 * b
        want = -1j * (2 * math.exp(-1.0) + 3 * 2 * math.exp(-4.0))
        assert abs(combo - want) <= 1e-10

    def test_heat_peak_profile(self):
        # g(s) = W_s(x0) in d=1; cross-check against the Dawson closed form
        from amalgam.kernels import half_derivative_heat_pointwise

        x0, t = 0.5, 0.8
        got = weyl_direct("heat_peak", t, x0=x0)
        want = complex(half_derivative_heat_pointwise(np.array([x0]), t)[0])
        assert abs(got - want) <= 1e-8

    def test_unsupported_profile(self):
        with pytest.raises(ValueError, match="profile"):
            weyl_direct("polynomial", 1.0)


def _log_grid(F):
    """The same field with every t-derivative taken by log-grid differences."""
    return ConjugateField(tuple(c.map_values(lambda v: v, kernel="custom") for c in F.components),
                          F.flavor)


# field name -> (field builder, frequency-space residual, grid-space reference)
CR_FIELDS = {
    "harmonic-poisson": (harmonic_lift, harmonic_cr_residual, harmonic_cr_residual_direct),
    "harmonic-custom": (lambda f, tg: _log_grid(harmonic_lift(f, tg)),
                        harmonic_cr_residual, harmonic_cr_residual_direct),
    "caloric-spectral": (caloric_lift, caloric_cr_residual, caloric_cr_residual_direct),
    "caloric-quadrature": (caloric_lift, lambda F: caloric_cr_residual(F, "quadrature"),
                           lambda F: caloric_cr_residual_direct(F, "quadrature")),
}


class TestCrResidualDirect:
    """The Parseval route agrees with the grid-space derivative stacks per
    slice, on exact fields and on fields broken on purpose."""

    @pytest.mark.parametrize("grid", [(1, 16, 1024), (2, 4, 64)], ids=["d1", "d2"])
    @pytest.mark.parametrize("name", list(CR_FIELDS))
    @pytest.mark.parametrize("brk", [None, ("first", 2.0), ("last", -1.0), ("first", 1.01)],
                             ids=["exact", "first-x2", "last-flip", "first-x1.01"])
    def test_matches_grid_space(self, grid, name, brk):
        spec = make_grid(*grid)
        build, fast, direct = CR_FIELDS[name]
        F = build(bandlimited_random(spec, 5, 0.4, 2.0), TimeGrid(0.05, 8.0, 16))
        if brk is not None:
            F = F.scaled_component(0 if brk[0] == "first" else spec.d, brk[1])
        new, old = fast(F), direct(F)
        assert set(new.per_slice) == set(old)
        for key, ref in old.items():
            got = new.per_slice[key]
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-13 + 1e-12 * np.abs(ref)), key
        if brk is not None:
            assert max(np.max(v) for v in old.values()) > 1e-3

    @pytest.mark.parametrize("grid", [(1, 16, 1024), (2, 4, 64)], ids=["d1", "d2"])
    def test_quadrature_mean_shift(self, grid):
        # a field with nonzero spatial mean: the quadrature strips it before
        # the tail model, on the fast path as W @ v - dc (W @ 1)
        spec = make_grid(*grid)
        f = sample("gaussian:width=1", spec) + GridFunction(spec, np.full(spec.shape, 0.5))
        F = caloric_lift(f, TimeGrid(0.05, 8.0, 16))
        assert abs(np.mean(F.components[-1].values[0])) > 0.4
        new = caloric_cr_residual(F, "quadrature").per_slice
        for key, ref in caloric_cr_residual_direct(F, "quadrature").items():
            assert np.all(np.abs(new[key] - ref) <= 1e-13 + 1e-12 * np.abs(ref)), key
