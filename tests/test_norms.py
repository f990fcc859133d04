import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.grid import GridFunction, bandlimited_random, lp_norm, make_grid, sample
from amalgam.norms import (
    Exponents,
    amalgam_norm,
    ball_window_weights,
    holder_gap,
    interpolation_gap,
    slice_norms,
)

PQ_SAMPLES = [(1.5, 1.5), (2.0, 3.0), (3.0, 1.5)]


class TestExponents:
    def test_validation(self):
        with pytest.raises(ValueError):
            Exponents(0.0, 1.0)
        with pytest.raises(ValueError):
            Exponents(1.0, -2.0)

    def test_conjugates(self):
        e = Exponents(1.5, 3.0)
        assert e.p_conj == pytest.approx(3.0)
        assert e.q_conj == pytest.approx(1.5)
        with pytest.raises(ValueError):
            Exponents(1.0, 2.0).p_conj

    def test_thresholds(self):
        assert Exponents(0.6, 2.0).riesz_threshold_ok(d=1)
        assert not Exponents(0.4, 2.0).riesz_threshold_ok(d=2)  # (d-1)/d = 1/2
        assert Exponents(0.4, 2.0).riesz_threshold_ok(d=2, order=3)  # 1/4 threshold


class TestDiscreteWindow:
    def test_single_cube(self, desk1):
        f = sample("indicator:lo=0,hi=1", desk1)
        for pq in [(0.7, 2.3), (1, 1), (2, 0.8)]:
            assert amalgam_norm(f, pq) == pytest.approx(1.0, abs=1e-12)

    def test_two_cubes(self, desk1):
        f = sample("indicator:lo=0,hi=2", desk1)
        assert amalgam_norm(f, (1, 2)) == pytest.approx(math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("p", [0.75, 1.0, 1.5, 2.0, 3.0])
    def test_collapse_to_lebesgue(self, desk1, p):
        for seed in range(10):
            f = bandlimited_random(desk1, seed, 0.25, 4.0)
            assert amalgam_norm(f, (p, p)) == pytest.approx(lp_norm(f, p), rel=1e-12)

    def test_q_monotonicity_two_cubes(self, desk1):
        f = sample("indicator:lo=0,hi=2", desk1)
        qs = [0.5, 1.0, 1.5, 2.0, 4.0]
        vals = [amalgam_norm(f, (1.0, q)) for q in qs]
        for q, v in zip(qs, vals):
            assert v == pytest.approx(2 ** (1 / q), rel=1e-12)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_quasi_triangle_for_banach_range(self, desk1):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = float(rng.uniform(1.0, 4.0))
            q = float(rng.uniform(1.0, 4.0))
            f = bandlimited_random(desk1, int(rng.integers(1000)), 0.25, 4.0)
            g = bandlimited_random(desk1, int(rng.integers(1000)), 0.25, 4.0)
            lhs = amalgam_norm(f + g, (p, q))
            rhs = amalgam_norm(f, (p, q)) + amalgam_norm(g, (p, q))
            assert lhs <= rhs + 1e-10

    def test_misaligned_grid_cannot_exist(self):
        # the GridSpec invariant guards the discrete window's precondition
        with pytest.raises(ValueError):
            make_grid(1, 3, 32)


class TestSliceNorms:
    @staticmethod
    def cube_sum_norm(spec, values, p, q):
        """The discrete-window definition, summed the way a single slice is."""
        m = spec.n // (2 * spec.L)
        dens = np.abs(values) ** p
        if spec.d == 1:
            cubes = dens.reshape(2 * spec.L, m).sum(axis=1)
        else:
            cubes = dens.reshape(2 * spec.L, m, 2 * spec.L, m).sum(axis=(1, 3))
        return float(np.sum((cubes * spec.h**spec.d) ** (q / p)) ** (1.0 / q))

    @pytest.mark.parametrize("grid", [(1, 4, 128), (1, 32, 4096), (2, 2, 32), (2, 8, 128)])
    @pytest.mark.parametrize("pq", [(1.0, 1.0), (2.0, 3.0), (1.2, 0.9), (0.5, 0.7), (0.8, 2.5)])
    def test_bit_identical_to_amalgam_norm_per_slice(self, grid, pq):
        spec = make_grid(*grid)
        rng = np.random.default_rng(7)
        shape = (5,) + spec.shape
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        block *= np.exp(rng.uniform(-12.0, 3.0, size=shape))  # many magnitudes per cube
        got = slice_norms(spec, block, pq)
        assert got.shape == (5,)
        assert got.tolist() == [amalgam_norm(GridFunction(spec, g), pq) for g in block]
        assert got.tolist() == [self.cube_sum_norm(spec, g, *pq) for g in block]


class TestSliceNormsProperties:
    @settings(max_examples=80, deadline=None)
    @given(d=st.sampled_from([1, 2]), log_n=st.integers(1, 7), log_l=st.integers(0, 3),
           p=st.floats(0.05, 20.0), q=st.floats(0.05, 20.0), slices=st.integers(1, 4),
           complex_values=st.booleans(), seed=st.integers(0, 2**16))
    def test_each_slice_is_the_discrete_norm(self, d, log_n, log_l, p, q, slices,
                                             complex_values, seed):
        # a one-slice block, and each slice of a taller one, gives the bits of
        # amalgam_norm(..., "discrete") of that slice
        n = 2 ** (log_n + (d == 1) * 3)
        spec = make_grid(d, min(2**log_l, n // 2), n)
        rng = np.random.default_rng(seed)
        shape = (slices,) + spec.shape
        block = rng.standard_normal(shape) * np.exp(rng.uniform(-12.0, 3.0, size=shape))
        if complex_values:
            block = block + 1j * rng.standard_normal(shape)
        want = np.array([amalgam_norm(GridFunction(spec, g), (p, q), "discrete") for g in block])
        for got in (slice_norms(spec, block, (p, q)),
                    np.concatenate([slice_norms(spec, g[None], (p, q)) for g in block])):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBallWindow:
    def test_indicator_value(self, desk1):
        f = sample("indicator:lo=0,hi=1", desk1)
        want = math.sqrt(2) * lp_norm(f, 2)
        assert amalgam_norm(f, (2, 2), "ball") == pytest.approx(want, abs=1e-3)

    def test_collapse_1d(self, desk1):
        f = bandlimited_random(desk1, 5, 0.25, 4.0)
        for p in (1.0, 2.0):
            want = 2 ** (1 / p) * lp_norm(f, p)
            assert amalgam_norm(f, (p, p), "ball") == pytest.approx(want, rel=1e-3)

    def test_collapse_2d(self, desk2):
        f = bandlimited_random(desk2, 5, 0.5, 2.0)
        want = math.pi ** 0.5 * lp_norm(f, 2)
        assert amalgam_norm(f, (2, 2), "ball") == pytest.approx(want, rel=1e-3)

    def test_weights_tile_the_ball(self, desk2):
        w = ball_window_weights(desk2)
        assert desk2.h**2 * np.sum(w.values.real) == pytest.approx(math.pi, rel=1e-12)

    def test_unknown_window(self, desk1):
        with pytest.raises(ValueError, match="window"):
            amalgam_norm(sample("gaussian", desk1), (1, 1), "cube")


class TestHolderGap:
    def test_equality_case(self, desk1):
        f = sample("indicator:lo=0,hi=1", desk1)
        r = holder_gap(f, f, (2, 2))
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)
        assert abs(r.gap) <= 1e-12

    def test_disjoint_supports(self, desk1):
        f = sample("indicator:lo=0,hi=1", desk1)
        g = sample("indicator:lo=1,hi=2", desk1)
        r = holder_gap(f, g, (2, 2))
        assert r.lhs == pytest.approx(0.0, abs=1e-12)
        assert r.gap == pytest.approx(1.0, abs=1e-12)

    def test_random_inputs_nonnegative(self, desk1):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = bandlimited_random(desk1, int(rng.integers(10000)), 0.25, 4.0)
            g = bandlimited_random(desk1, int(rng.integers(10000)), 0.25, 4.0)
            assert holder_gap(f, g, (1.5, 3.0)).gap >= -1e-12

    def test_needs_conjugates(self, desk1):
        f = sample("gaussian", desk1)
        with pytest.raises(ValueError):
            holder_gap(f, f, (1.0, 2.0))


class TestInterpolationGap:
    def test_alpha_one_collapses(self, desk1):
        g = sample("gaussian:width=2", desk1)
        r = interpolation_gap(g, (1.3, 0.9), 1.0)
        assert r.lhs == pytest.approx(r.rhs, rel=1e-12)

    def test_indicator_saturates(self, desk1):
        g = sample("indicator:lo=0,hi=1", desk1)
        r = interpolation_gap(g, (1, 1), 2.0)
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.rhs == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_nonnegative(self, desk1):
        g = sample("gaussian:width=1", desk1)
        assert interpolation_gap(g, (1, 1), 2.0).gap >= 0

    def test_zero_input_rejected(self, desk1):
        z = GridFunction(desk1, np.zeros(desk1.shape))
        with pytest.raises(ValueError, match="zero"):
            interpolation_gap(z, (1, 1), 2.0)

    def test_random_inputs_nonnegative(self, desk1):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = bandlimited_random(desk1, int(rng.integers(10000)), 0.25, 4.0)
            pq = PQ_SAMPLES[int(rng.integers(3))]
            alpha = float(rng.uniform(1.0, 3.0))
            assert interpolation_gap(g, pq, alpha).gap >= -1e-10
