import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.special import erfc

from amalgam import analytic
from amalgam.extension import ExtensionStack, TimeGrid, extend
from amalgam.frozen import FrozenStore
from amalgam.grid import GridFunction, bandlimited_random, make_grid
from amalgam.hardy import grid_run_id
from amalgam.kernels import decay_certificate
from amalgam.oracle import weyl_direct
from amalgam.weyl import (
    TimeProfile,
    _derivative_rows,
    _simpson_weights,
    half_derivative_quadrature,
    half_derivative_spectral,
    half_derivative_stack_quadrature,
    time_derivative,
)

from conftest import rel_l2

PROFILE_GRID = TimeGrid(1e-3, 64.0, 481)


def exp_profile(lam, tail=False):
    values = np.exp(-lam * PROFILE_GRID.values)
    return TimeProfile(PROFILE_GRID, values, ("exp_decay", lam) if tail else None)


class TestQuadrature:
    @pytest.mark.parametrize("lam", [1.0, 4.0])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_exponential_closed_form(self, lam, t):
        got = half_derivative_quadrature(exp_profile(lam), t)
        want = -1j * np.sqrt(lam) * np.exp(-lam * t)
        assert abs(got - want) <= 1e-4 * abs(want)

    def test_constant_profile(self):
        prof = TimeProfile(PROFILE_GRID, np.full(PROFILE_GRID.count, 2.5 + 1j))
        assert half_derivative_quadrature(prof, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_linearity(self):
        p1, p2 = exp_profile(1.0), exp_profile(4.0)
        combo = TimeProfile(PROFILE_GRID, 2.0 * p1.values + (1 - 3j) * p2.values)
        got = half_derivative_quadrature(combo, 1.0)
        want = 2.0 * half_derivative_quadrature(p1, 1.0) + (1 - 3j) * half_derivative_quadrature(p2, 1.0)
        assert abs(got - want) <= 1e-10

    def test_tail_tag_with_short_grid(self):
        # grid too short for the decay check, but the exp tail closes the integral
        tg = TimeGrid(0.01, 2.0, 101)
        lam = 1.0
        prof = TimeProfile(tg, np.exp(-lam * tg.values), ("exp_decay", lam))
        got = half_derivative_quadrature(prof, 0.5)
        want = -1j * np.exp(-0.5)
        assert abs(got - want) <= 2e-4 * abs(want)

    def test_truncation_bound_reported(self):
        tg = TimeGrid(0.01, 2.0, 101)
        prof = TimeProfile(tg, np.exp(-tg.values), ("exp_decay", 1.0))
        val, bound = half_derivative_quadrature(prof, 0.5, return_bound=True)
        # the added tail is erfc-small but nonzero on this short grid
        assert 0 < bound < abs(val)
        untagged = exp_profile(1.0)
        val2, bound2 = half_derivative_quadrature(untagged, 1.0, return_bound=True)
        assert bound2 <= 1e-4 * abs(val2)  # derivative has died by t_max

    def test_nondecaying_profile_rejected(self):
        prof = TimeProfile(PROFILE_GRID, PROFILE_GRID.values.astype(complex))  # g(t) = t
        with pytest.raises(ValueError, match="decayed"):
            half_derivative_quadrature(prof, 1.0)

    def test_evaluation_point_must_be_interior(self):
        with pytest.raises(ValueError, match="interior"):
            half_derivative_quadrature(exp_profile(1.0), 64.0)

    def test_nan_evaluation_point_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            half_derivative_quadrature(exp_profile(1.0), float("nan"))

    def test_bad_tail_tag(self):
        with pytest.raises(ValueError):
            TimeProfile(PROFILE_GRID, np.ones(PROFILE_GRID.count), ("power", 1.0))


def per_node_reference(stack, times, n_quad, tail=None):
    """Quadrature half-derivative node by node: a cubic spline of each node
    profile, its derivative at t + u^2, Simpson in u, plus the erfc tail."""
    ts = stack.times
    flat = stack.values.reshape(ts.size, -1)
    out = np.empty((len(times), flat.shape[1]), dtype=complex)
    for j in range(flat.shape[1]):
        dg = CubicSpline(ts, flat[:, j]).derivative()
        for k, t in enumerate(times):
            u_max = math.sqrt(ts[-1] - t)
            u = np.linspace(0.0, u_max, n_quad)
            val = (2j / math.sqrt(math.pi)) * simpson(dg(t + u**2), x=u)
            if tail is not None:
                lam = tail[1]
                amp = flat[-1, j] * math.exp(lam * ts[-1])
                val += -1j * math.sqrt(lam) * amp * math.exp(-lam * t) * erfc(math.sqrt(lam) * u_max)
            out[k, j] = val
    return out.reshape((len(times),) + stack.spec.shape)


class TestStackQuadrature:
    SPEC = make_grid(1, 8, 64)

    @pytest.mark.parametrize("n_quad", [401, 801])
    def test_matches_per_node_reference(self, n_quad):
        tg = TimeGrid(1e-3, 64.0, 48)
        stack = extend(bandlimited_random(self.SPEC, 11, 0.25, 2.0), "heat", tg)
        times = tg.values[:-1]
        got = half_derivative_stack_quadrature(stack, times, n_quad=n_quad)
        want = per_node_reference(stack, times, n_quad)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_per_node_reference_with_tail(self):
        # short grid: the closed exp_decay tail carries a visible share
        tg = TimeGrid(0.01, 2.0, 48)
        stack = extend(bandlimited_random(self.SPEC, 12, 0.25, 2.0), "heat", tg)
        tail = ("exp_decay", 4 * np.pi**2 * 0.25**2)
        times = tg.values[::3]
        got = half_derivative_stack_quadrature(stack, times, n_quad=401, tail=tail)
        want = per_node_reference(stack, times, 401, tail)
        untagged = per_node_reference(stack, times, 401)
        assert np.max(np.abs(want - untagged)) >= 1e-6 * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_scalar_time_is_one_slice_and_a_list_is_a_stack(self):
        tg = TimeGrid(1e-3, 64.0, 48)
        stack = extend(bandlimited_random(self.SPEC, 13, 0.25, 2.0), "heat", tg)
        t = [float(tg.values[10]), float(tg.values[20])]
        one = half_derivative_stack_quadrature(stack, t[0])
        both = half_derivative_stack_quadrature(stack, t)
        assert one.shape == self.SPEC.shape
        assert both.shape == (2,) + self.SPEC.shape
        assert np.max(np.abs(one - both[0])) <= 1e-14 * np.max(np.abs(one))

    @pytest.mark.parametrize("tail", [False, True])
    def test_exp_decay_node_against_oracle(self, tail):
        # heat stack of cos(2 pi xi x): every node profile is cos(2 pi xi x) e^{-lam t}
        xi = 0.25
        lam = 4 * np.pi**2 * xi**2
        f = GridFunction(self.SPEC, np.cos(2 * np.pi * xi * self.SPEC.nodes()[0]))
        stack = extend(f, "heat", PROFILE_GRID)
        (i0,) = self.SPEC.index_of(0.0)
        got = half_derivative_stack_quadrature(
            stack, [0.5, 1.0], tail=("exp_decay", lam) if tail else None)[:, i0]
        for t, g in zip((0.5, 1.0), got):
            want = weyl_direct("exp_decay", t, lam=lam)
            assert abs(g - want) <= 1e-4 * abs(want)

    def test_heat_peak_node_against_oracle(self):
        # slices W_t(x): the profile at node x0 is the oracle's heat_peak profile;
        # t_max = 1e4 lets its t^{-3/2} derivative pass the decay check
        tg = TimeGrid(1e-3, 1e4, 481)
        x = self.SPEC.nodes()[0]
        stack = ExtensionStack(self.SPEC, tg, np.array([analytic.heat([x], t) for t in tg.values]))
        (i,) = self.SPEC.index_of(0.5)
        got = half_derivative_stack_quadrature(stack, 0.8)[i]
        want = weyl_direct("heat_peak", 0.8, x0=float(x[i]))
        assert abs(got - want) <= 1e-4 * abs(want)


# increasing knot sets: geometric spacing like TimeGrid, or random gaps
# within a factor 10 of each other.  Gaps 1000 times apart make the
# not-a-knot system so ill-conditioned that scipy's banded solve and the
# dense one differ by 1e-10 (four knots with gaps 9.09, 0.01, 9.09: 1.5e-10
# and 1e-11 from the exact rational solution), which no 1e-12 oracle can pin.
KNOT_SETS = st.one_of(
    st.builds(lambda n, t0, span: np.geomspace(t0, t0 * span, n),
              st.integers(4, 64), st.floats(1e-3, 1.0), st.floats(2.0, 1e5)),
    st.lists(st.floats(0.1, 1.0), min_size=3, max_size=63).map(
        lambda gaps: np.concatenate([[0.0], np.cumsum(gaps)])),
)


def cubic_spline_basis(ts, x):
    """scipy's derivative basis: column j is the not-a-knot spline of e_j."""
    return CubicSpline(ts, np.eye(ts.size), axis=0).derivative()(x)


class TestSplineAndSimpson:
    """The numpy spline derivative and Simpson weights of the Weyl matrix
    against scipy's CubicSpline and simpson."""

    @given(ts=KNOT_SETS, seed=st.integers(0, 2**16))
    @example(ts=TimeGrid(1e-3, 64.0, 48).values, seed=0)
    def test_derivative_basis_matches_cubic_spline(self, ts, seed):
        x = np.concatenate([ts, np.random.default_rng(seed).uniform(ts[0], ts[-1], 32)])
        want = cubic_spline_basis(ts, x)
        got = _derivative_rows(ts, x[:, None], np.ones((x.size, 1)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_and_three_knots_are_line_and_parabola(self, n):
        ts = np.geomspace(0.1, 3.0, n)
        x = np.linspace(0.1, 3.0, 17)
        got = _derivative_rows(ts, x[:, None], np.ones((x.size, 1)))
        assert np.max(np.abs(got - cubic_spline_basis(ts, x))) <= 1e-12 * np.max(np.abs(got))

    @pytest.mark.parametrize("n", [3, 5, 11, 401, 801])
    def test_simpson_weights_match_scipy(self, n):
        x = np.linspace(0.0, 7.5, n)
        want = simpson(np.eye(n), x=x, axis=0)
        got = _simpson_weights(n) * (7.5 / (n - 1))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_quad", [0, 1, 2, 4, 400])
    def test_even_or_short_n_quad_rejected(self, n_quad):
        tg = TimeGrid(1e-3, 64.0, 48)
        stack = extend(bandlimited_random(make_grid(1, 8, 64), 14, 0.25, 2.0), "heat", tg)
        with pytest.raises(ValueError, match="odd n_quad"):
            half_derivative_stack_quadrature(stack, 1.0, n_quad=n_quad)
        with pytest.raises(ValueError, match="odd n_quad"):
            half_derivative_quadrature(exp_profile(1.0), 1.0, n_quad=n_quad)

    @pytest.mark.parametrize("count", [2, 3])
    def test_two_and_three_slice_stacks(self, count):
        # TimeGrid accepts two and three times; W agrees with the per-node
        # CubicSpline route there too
        tg = TimeGrid(0.01, 2.0, count)
        stack = extend(bandlimited_random(make_grid(1, 8, 64), 15, 0.25, 2.0), "heat", tg)
        tail = ("exp_decay", 4 * np.pi**2 * 0.25**2)
        got = half_derivative_stack_quadrature(stack, tg.values[:-1], n_quad=401, tail=tail)
        want = per_node_reference(stack, tg.values[:-1], 401, tail)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSpectralRoute:
    def test_requires_heat_stack(self, small1, tg16):
        f = bandlimited_random(small1, 1, 0.5, 2.0)
        stack = extend(f, "poisson", tg16)
        with pytest.raises(ValueError, match="heat"):
            half_derivative_spectral(stack)

    def test_zero_on_constants(self, small1, tg16):
        from amalgam.grid import GridFunction

        c = GridFunction(small1, np.full(small1.shape, 2.0))
        stack = extend(c, "heat", tg16)
        out = half_derivative_spectral(stack)
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_twice_is_time_derivative(self, desk1, tg48):
        f = bandlimited_random(desk1, 2, 0.125, 0.5)
        stack = extend(f, "heat", tg48)
        twice = half_derivative_spectral(half_derivative_spectral(stack))
        td = time_derivative(stack)
        for i in range(tg48.count):
            denom = np.linalg.norm(td.values[i])
            if denom > 1e-12 * np.linalg.norm(td.values[0]):
                assert np.linalg.norm(twice.values[i] - td.values[i]) <= 1e-3 * denom

    def test_agrees_with_quadrature(self, desk1, tg48):
        f = bandlimited_random(desk1, 2, 0.125, 0.5)
        stack = extend(f, "heat", tg48)
        hs = half_derivative_spectral(stack)
        for t_probe in (0.1, 0.5, 2.0):
            i = int(np.argmin(np.abs(tg48.values - t_probe)))
            ti = float(tg48.values[i])
            q = half_derivative_stack_quadrature(stack, ti)
            assert rel_l2(q, hs.values[i]) <= 1e-3

    def test_quadrature_composed_twice_matches_time_derivative(self):
        # quadrature -> profile on the grid -> quadrature again, on probes
        spec = make_grid(1, 32, 512)
        tg = TimeGrid(1e-3, 64.0, 48)
        f = bandlimited_random(spec, 3, 0.125, 0.5)
        stack = extend(f, "heat", tg)
        inner = half_derivative_stack_quadrature(stack, tg.values[:-1], n_quad=401)
        # late-slice values are noise-level; append the (tiny) last slice as zero
        inner_full = np.concatenate([inner, np.zeros((1,) + spec.shape)])
        inner_stack = stack.map_values(lambda v: inner_full, kernel="custom")
        td = time_derivative(stack)
        for t_probe in (0.25, 1.0):
            i = int(np.argmin(np.abs(tg.values - t_probe)))
            ti = float(tg.values[i])
            outer = half_derivative_stack_quadrature(inner_stack, ti, n_quad=401)
            want = td.values[i]
            assert rel_l2(outer, want) <= 1e-3


class TestTimeDerivative:
    def test_heat_equation(self, desk1, tg48):
        f = bandlimited_random(desk1, 4, 0.25, 2.0)
        stack = extend(f, "heat", tg48)
        td = time_derivative(stack)
        from amalgam.grid import SpectralFunction, forward, inverse

        xi = desk1.freq_norm()
        for i in (0, 10, 30):
            lap = inverse(SpectralFunction(
                desk1, -4 * np.pi**2 * xi**2 * forward(stack.slice(i)).coeffs)).values
            denom = max(np.linalg.norm(lap), 1e-30)
            assert np.linalg.norm(td.values[i] - lap) <= 1e-10 * denom

    def test_poisson_harmonicity(self, desk1, tg48):
        f = bandlimited_random(desk1, 5, 0.25, 2.0)
        stack = extend(f, "poisson", tg48)
        dtt = time_derivative(time_derivative(stack))
        from amalgam.grid import SpectralFunction, forward, inverse

        xi = desk1.freq_norm()
        for i in (0, 10, 30):
            lap = inverse(SpectralFunction(
                desk1, -4 * np.pi**2 * xi**2 * forward(stack.slice(i)).coeffs)).values
            denom = max(np.linalg.norm(lap), 1e-30)
            assert np.linalg.norm(dtt.values[i] + lap) <= 1e-10 * denom

    def test_differences_vs_exact_symbol(self, desk1):
        tg = TimeGrid(0.01, 4.0, 192)
        f = bandlimited_random(desk1, 4, 1 / 16, 1 / 2)
        stack = extend(f, "heat", tg)
        fd = time_derivative(stack.map_values(lambda v: v, kernel="custom"))
        exact = time_derivative(stack)
        worst = 0.0
        for i in range(1, tg.count - 1):
            denom = np.linalg.norm(exact.values[i])
            if denom > 1e-12 * np.linalg.norm(exact.values[0]):
                worst = max(worst, np.linalg.norm(fd.values[i] - exact.values[i]) / denom)
        assert worst <= 1e-3

    def test_needs_three_slices(self, small1):
        f = bandlimited_random(small1, 6, 0.5, 2.0)
        stack = extend(f, "heat", TimeGrid(0.1, 1.0, 2))
        with pytest.raises(ValueError, match="3"):
            time_derivative(stack)


class TestDecayBound:
    def test_half_derivative_decay_constant_frozen(self, desk1, tg48):
        store = FrozenStore.load()
        gid = grid_run_id(desk1, tg48)
        frozen = store.get("certificates-d1", "heat_half_dt", 1.0, 1.0, gid)
        got = decay_certificate("heat_half_dt", desk1, np.geomspace(0.1, 10.0, 25))
        assert got.max_ratio <= frozen * 1.1
