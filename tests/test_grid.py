import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.grid import (
    FunctionSpec,
    GridFunction,
    bandlimited_random,
    forward,
    fourier_transform,
    inverse,
    lp_norm,
    make_grid,
    read_grid_function,
    sample,
    write_grid_function,
)


class TestMakeGrid:
    def test_spacing_1d(self):
        assert make_grid(1, 32, 1024).h == pytest.approx(1 / 16)

    def test_spacing_2d(self):
        assert make_grid(2, 8, 128).h == pytest.approx(1 / 8)

    def test_divisibility_rejected(self):
        # 16 is a power of two but 16 % 6 != 0: cells straddle unit cubes
        with pytest.raises(ValueError, match="divisible"):
            make_grid(1, 3, 16)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1, 32, 100)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            make_grid(3, 8, 64)

    def test_non_integer_half_extent(self):
        with pytest.raises(ValueError):
            make_grid(1, 2.5, 64)

    def test_nodes_are_cell_left_edges(self):
        spec = make_grid(1, 2, 16)
        x = spec.axis_nodes()
        assert x[0] == -2.0
        assert x[-1] == pytest.approx(2.0 - spec.h)


class TestSample:
    def test_gaussian_values(self):
        spec = make_grid(1, 8, 256)
        f = sample("gaussian:width=1", spec)
        x = spec.axis_nodes()
        np.testing.assert_allclose(f.values.real, np.exp(-(x**2)), rtol=0, atol=0)

    def test_poisson_kernel_at_origin(self, desk1):
        f = sample("poisson_kernel:t=1", desk1)
        assert f.at(0.0).real == pytest.approx(1 / math.pi, abs=1e-12)

    def test_heat_kernel_at_origin(self, desk1):
        f = sample("heat_kernel:t=1", desk1)
        assert f.at(0.0).real == pytest.approx((4 * math.pi) ** -0.5, abs=1e-12)

    def test_kernel_needs_positive_time(self, desk1):
        with pytest.raises(ValueError):
            sample("poisson_kernel:t=-1", desk1)

    def test_unknown_family(self, desk1):
        with pytest.raises(ValueError, match="unknown"):
            sample("sinc", desk1)

    def test_malformed_parameter(self, desk1):
        with pytest.raises(ValueError, match="malformed"):
            sample("gaussian:width", desk1)

    @pytest.mark.parametrize("text, message", [
        ("gaussian:width=abc", "not a number"),
        ("bandlimited_random:seed=1.5", "not a number"),
        ("from_file", "path"),
    ])
    def test_parse_rejects(self, text, message):
        with pytest.raises(ValueError, match=message):
            FunctionSpec.parse(text)


class TestFourier:
    def test_roundtrip(self, desk1):
        f = bandlimited_random(desk1, 12, 0.5, 8.0)
        back = inverse(forward(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_dispatcher_directions(self, desk1):
        f = sample("gaussian:width=1", desk1)
        F = fourier_transform(f, "forward")
        g = fourier_transform(F, "inverse")
        assert np.max(np.abs(g.values - f.values)) <= 1e-12
        with pytest.raises(ValueError):
            fourier_transform(f, "sideways")

    def test_heat_symbol_at_zero(self, desk1):
        W = sample("heat_kernel:t=0.5", desk1)
        F = forward(W)
        assert abs(F.coeffs[0] - 1.0) <= 1e-6

    def test_heat_symbol_at_half(self, desk1):
        W = sample("heat_kernel:t=0.5", desk1)
        F = forward(W)
        k = int(round(0.5 * 2 * desk1.L))  # frequency 1/2 sits at index k = L
        assert F.coeffs[k] == pytest.approx(math.exp(-math.pi**2 / 2), rel=1e-9)

    def test_heat_symbol_resolved_frequencies(self, desk1):
        # sampled W_t transforms to exp(-4 pi^2 t xi^2) across the lattice
        for t in (0.1, 1.0):
            F = forward(sample(f"heat_kernel:t={t}", desk1))
            xi = desk1.axis_freqs()
            np.testing.assert_allclose(F.coeffs.real, np.exp(-4 * np.pi**2 * t * xi**2), atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_parseval(self, desk1, seed):
        f = bandlimited_random(desk1, seed, 0.25, 4.0)
        spatial = desk1.h * np.sum(np.abs(f.values) ** 2)
        assert forward(f).energy() == pytest.approx(spatial, rel=1e-12)

    def test_parseval_2d(self, desk2):
        f = bandlimited_random(desk2, 4, 0.5, 2.0)
        spatial = desk2.h**2 * np.sum(np.abs(f.values) ** 2)
        assert forward(f).energy() == pytest.approx(spatial, rel=1e-12)


class TestLpNorm:
    def test_unit_indicator(self, desk1):
        f = sample("indicator:lo=0,hi=1", desk1)
        assert lp_norm(f, 2) == pytest.approx(1.0, abs=1e-12)

    def test_double_indicator(self, desk1):
        f = sample("indicator:lo=0,hi=2", desk1)
        assert lp_norm(f, 1) == pytest.approx(2.0, abs=1e-12)

    def test_gaussian_l2(self, desk1):
        f = sample("gaussian:width=1", desk1)
        assert lp_norm(f, 2) == pytest.approx((math.pi / 2) ** 0.25, rel=1e-9)

    def test_rejects_nonpositive_exponent(self, desk1):
        with pytest.raises(ValueError):
            lp_norm(sample("gaussian", desk1), 0.0)

    @given(c=st.floats(min_value=-8, max_value=8).filter(lambda v: abs(v) > 1e-3),
           p=st.sampled_from([0.75, 1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=25, deadline=None)
    def test_absolute_homogeneity(self, c, p):
        spec = make_grid(1, 4, 128)
        f = bandlimited_random(spec, 3, 0.5, 2.0)
        assert lp_norm(c * f, p) == pytest.approx(abs(c) * lp_norm(f, p), rel=1e-12)


class TestFileFormat:
    def test_binary_roundtrip(self, tmp_path, small1):
        f = bandlimited_random(small1, 5, 0.5, 2.0)
        path = tmp_path / "f.grid"
        write_grid_function(f, path)
        g = read_grid_function(path)
        assert g.spec == small1
        np.testing.assert_array_equal(g.values, f.values)

    def test_csv_roundtrip(self, tmp_path):
        spec = make_grid(1, 2, 16)
        f = GridFunction(spec, np.arange(16) + 1j)
        path = tmp_path / "f.csv"
        write_grid_function(f, path)
        g = read_grid_function(str(path))
        np.testing.assert_allclose(g.values, f.values)

    def test_csv_roundtrip_2d(self, tmp_path):
        spec = make_grid(2, 1, 8)
        rng = np.random.default_rng(0)
        f = GridFunction(spec, rng.standard_normal((8, 8)))
        path = tmp_path / "f2.csv"
        write_grid_function(f, path)
        np.testing.assert_allclose(read_grid_function(str(path)).values, f.values)

    @pytest.mark.parametrize("delta", [1, -1])
    def test_payload_length_checked(self, tmp_path, small1, delta):
        path = tmp_path / "f.grid"
        write_grid_function(bandlimited_random(small1, 5, 0.5, 2.0), path)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\0" if delta > 0 else raw[:-1])
        expected = small1.size * 16
        with pytest.raises(ValueError, match=rf"{expected + delta} bytes, expected 1 x {small1.size} x 16 = {expected}$"):
            read_grid_function(path)

    def test_from_file_family(self, tmp_path, small1):
        f = bandlimited_random(small1, 1, 0.5, 2.0)
        path = tmp_path / "g.grid"
        write_grid_function(f, path)
        g = sample(f"from_file:path={path}", small1)
        np.testing.assert_array_equal(g.values, f.values)


class TestGridFunction:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            GridFunction(make_grid(1, 2, 16), np.zeros(8))

    def test_nonfinite_rejected(self):
        v = np.zeros(16)
        v[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            GridFunction(make_grid(1, 2, 16), v)

    def test_values_immutable(self, small1):
        f = sample("gaussian", small1)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_arithmetic(self, small1):
        f = sample("gaussian:width=1", small1)
        g = sample("gaussian:width=2", small1)
        np.testing.assert_allclose((f - g).values, f.values - g.values)
        np.testing.assert_allclose((2.0 * f).values, 2.0 * f.values)
