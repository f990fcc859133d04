import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from amalgam.extension import ExtensionStack, TimeGrid, kernel_block, read_stack, write_stack
from amalgam.grid import (
    FUNCTION_FAMILIES,
    FunctionSpec,
    GridFunction,
    _family_params,
    _full,
    apply_symbols,
    bandlimited_random,
    lp_norm,
    make_grid,
    read_grid_function,
    sample,
    write_grid_function,
)
from amalgam.hardy import AtomSpec, make_atom
from amalgam.oracle import SpectralFunction, forward, inverse
from amalgam.spectral import SphereSymbol, read_symbol, riesz, write_symbol


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

    def test_family_keys_are_builder_parameters(self):
        # the keys a spec may set, and parse's messages name, in order
        assert {name: list(_family_params(name)) for name in FUNCTION_FAMILIES} == {
            "gaussian": ["center", "width"], "poisson_kernel": ["t"], "heat_kernel": ["t"],
            "indicator": ["lo", "hi"], "haar": ["corner", "side"],
            "bandlimited_random": ["seed", "lo", "hi"], "from_file": ["path"]}

    def test_direct_spec_with_unknown_key(self, desk1):
        # parse refuses the key, and so does sample for a spec built directly
        with pytest.raises(ValueError, match="unknown parameter 'seed' of gaussian; choose from"):
            sample(FunctionSpec("gaussian", {"width": 1, "seed": 1}), desk1)

    def test_direct_spec_without_required_key(self, desk1):
        # a key whose builder parameter has no default is named, not a TypeError
        with pytest.raises(ValueError, match="missing parameter 'path' of from_file"):
            sample(FunctionSpec("from_file", {}), desk1)

    @pytest.mark.parametrize("family, given, full", [
        ("gaussian", {"center": (1, -2), "width": 2}, {"center": (1.0, -2.0), "width": 2.0}),
        ("haar", {"corner": 0, "side": 2}, {"corner": (0.0, 0.0), "side": 2.0}),
        ("indicator", {"lo": -1}, {"lo": -1.0, "hi": 1.0}),
        ("poisson_kernel", {"t": 2}, {"t": 2.0}),
        ("heat_kernel", {}, {"t": 1.0}),
        ("bandlimited_random", {"lo": 1, "hi": 2}, {"seed": 0, "lo": 1.0, "hi": 2.0}),
        ("bandlimited_random", {}, {"seed": 0, "lo": 0.125, "hi": 0.5}),
    ])
    def test_int_params_and_defaults(self, family, given, full):
        # int values sample as their floats, and a missing key as its default
        spec = make_grid(2, 4, 64)
        got, want = sample(FunctionSpec(family, given), spec), sample(FunctionSpec(family, full), spec)
        assert got.values.tobytes() == want.values.tobytes()

    def test_malformed_parameter(self, desk1):
        with pytest.raises(ValueError, match="malformed"):
            sample("gaussian:width", desk1)

    @pytest.mark.parametrize("text, message", [
        ("gaussian:width=abc", "not a number"),
        ("bandlimited_random:seed=1.5", "not a number"),
        ("from_file", "path"),
        ("gaussian:center=1e400", "'center=1e400' is not finite"),
        ("indicator:lo=-inf", "not finite"),
        ("heat_kernel:t=nan", "not finite"),
        ("gaussian:width=1,width=2", "repeated function parameter 'width'"),
    ])
    def test_parse_rejects(self, text, message):
        with pytest.raises(ValueError, match=message):
            FunctionSpec.parse(text)

    @pytest.mark.parametrize("text", ["gaussian:widht=3", "gaussian:=1", "gaussian:seed=1",
                                      "from_file:path=f.grid,width=2", "indicator: lo=0"])
    def test_parse_rejects_unknown_parameter(self, text):
        # a misspelt key used to be dropped, so the family ran with its default
        with pytest.raises(ValueError, match="unknown parameter"):
            FunctionSpec.parse(text)


_SPEC_TEXT = st.text(alphabet=st.sampled_from("gaussian_:=,.-+e0123456789 pathwidhseedtlocorner"),
                     max_size=40)


class TestFunctionSpecProperties:
    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(st.text(max_size=40), _SPEC_TEXT,
                          st.sampled_from(sorted(FUNCTION_FAMILIES)).flatmap(
                              lambda name: _SPEC_TEXT.map(lambda rest: f"{name}:{rest}"))))
    def test_parse_accepts_or_raises_value_error(self, text):
        # any text parses to a known family with documented keys, or is refused
        # with a ValueError, never another exception
        try:
            spec = FunctionSpec.parse(text)
        except ValueError:
            return
        assert spec.family in FUNCTION_FAMILIES
        assert set(spec.params) <= set(_family_params(spec.family))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(FUNCTION_FAMILIES)))
    def test_well_formed_spec_round_trips(self, data, name):
        keys = data.draw(st.lists(st.sampled_from(list(_family_params(name))), unique=True,
                                  min_size=name == "from_file"))
        params = {}
        for key in keys:
            if key == "path":
                params[key] = data.draw(st.text(alphabet="abc_./-0123456789", min_size=1))
            elif key == "seed":
                params[key] = data.draw(st.integers(-2**40, 2**40))
            else:
                params[key] = data.draw(st.floats(allow_nan=False))
        items = ",".join(f"{k}={v if k == 'path' else repr(v)}" for k, v in params.items())
        text = f"{name}:{items}" if items else name
        if all(math.isfinite(v) for k, v in params.items() if k != "path"):
            assert FunctionSpec.parse(text) == FunctionSpec(name, params)
        else:  # an infinite value is refused
            with pytest.raises(ValueError, match="not finite"):
                FunctionSpec.parse(text)


class TestFourier:
    def test_roundtrip(self, desk1):
        f = bandlimited_random(desk1, 12, 0.5, 8.0)
        back = inverse(forward(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_roundtrip_gaussian(self, desk1):
        f = sample("gaussian:width=1", desk1)
        g = inverse(forward(f))
        assert np.max(np.abs(g.values - f.values)) <= 1e-12

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


def _old_route(f, m):
    """The multiplier pass written out through forward and inverse."""
    return inverse(SpectralFunction(f.spec, m * forward(f).coeffs)).values


class TestApplySymbols:
    """apply_symbols against the forward/inverse route, bit for bit."""

    @pytest.fixture(params=[(1, 32, 4096), (2, 8, 128)], ids=["d1", "d2"])
    def case(self, request):
        spec = make_grid(*request.param)
        f = bandlimited_random(spec, 11, 0.25, 4.0)
        ts = np.array([1e-3, 0.05, 0.7, 3.0])
        xi = spec.freq_norm()
        heat = np.exp(-4.0 * np.pi**2 * ts.reshape((-1,) + (1,) * spec.d) * xi**2).astype(complex)
        # Riesz direction plus a constant: real and imaginary parts both nonzero
        riesz = -1j * spec.freqs()[0] / np.where(xi > 0, xi, 1.0)
        return spec, f, heat, (0.3 + riesz) * np.exp(-xi)

    def test_one_slice(self, case):
        spec, f, heat, mixed = case
        for m in (heat[1].real, heat[1], mixed, heat[2] * mixed):
            np.testing.assert_array_equal(apply_symbols(spec, f.values, m.copy()), _old_route(f, m))

    def test_batched_symbols(self, case):
        spec, f, heat, mixed = case
        for block in (heat, heat * mixed):
            want = np.array([_old_route(f, m) for m in block])
            buffer = block.copy()
            got = apply_symbols(spec, f.values, buffer)
            assert got.shape == (len(block),) + spec.shape
            np.testing.assert_array_equal(got, want)
            # the symbol block is consumed as the output: a pass holds one stack
            assert np.shares_memory(got, buffer)

    def test_real_or_read_only_block_left_intact(self, case):
        spec, f, heat, mixed = case
        want = np.array([_old_route(f, m) for m in heat])
        frozen = heat.copy()
        frozen.setflags(write=False)
        for block in (heat.real.copy(), frozen):
            before = block.copy()
            got = apply_symbols(spec, f.values, block)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(block, before)
            assert not np.shares_memory(got, block)

    def test_batched_values(self, case):
        spec, f, heat, mixed = case
        stack = apply_symbols(spec, f.values, heat.copy())
        want = np.array([_old_route(GridFunction(spec, v), mixed) for v in stack])
        np.testing.assert_array_equal(apply_symbols(spec, stack, mixed), want)

    def test_unbatched_symbols_and_values_left_alone(self, case):
        spec, f, heat, mixed = case
        values, symbol, stack = f.values.copy(), mixed.copy(), heat.copy()
        apply_symbols(spec, values, symbol)
        apply_symbols(spec, stack, symbol)
        np.testing.assert_array_equal(values, f.values)
        np.testing.assert_array_equal(symbol, mixed)
        np.testing.assert_array_equal(stack, heat)

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([1, 2]), log_n=st.integers(1, 7), log_l=st.integers(0, 3),
           batch=st.sampled_from([None, 1, 3]), sym_batch=st.sampled_from([None, 1, 3]),
           complex_values=st.booleans(), complex_symbols=st.booleans(), seed=st.integers(0, 2**16))
    def test_property_against_forward_inverse(self, d, log_n, log_l, batch, sym_batch,
                                              complex_values, complex_symbols, seed):
        n = 2 ** (log_n + (d == 1) * 3)
        spec = make_grid(d, min(2**log_l, n // 2), n)
        rng = np.random.default_rng(seed)

        def draw(count, is_complex):
            shape = spec.shape if count is None else (count,) + spec.shape
            a = rng.standard_normal(shape)
            return a + 1j * rng.standard_normal(shape) if is_complex else a

        if batch and sym_batch and sym_batch != 1:
            sym_batch = batch  # a symbol block has one row or one per value slice
        values, symbols = draw(batch, complex_values), draw(sym_batch, complex_symbols)
        rows = max(batch or 1, sym_batch or 1)
        pick = lambda a, count, i: a if count is None else a[i % count]
        want = np.array([_old_route(GridFunction(spec, pick(values, batch, i)), pick(symbols, sym_batch, i))
                         for i in range(rows)])
        got = apply_symbols(spec, values, symbols.copy())
        if batch is None and sym_batch is None:
            want = want[0]
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    # the inverse transform of an inf warns under numpy's default error
    # state before the check raises
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nonfinite_output_raises(self, small1):
        f = bandlimited_random(small1, 2, 0.5, 4.0)
        m = np.ones(small1.shape)
        m[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            apply_symbols(small1, f.values, m)

    def test_shape_mismatch_raises(self, small1, small2):
        f = bandlimited_random(small1, 2, 0.5, 4.0)
        with pytest.raises(ValueError, match="grid shape"):
            apply_symbols(small1, f.values, np.ones(small1.n // 2))
        with pytest.raises(ValueError, match="grid shape"):
            apply_symbols(small2, np.ones(small2.shape), np.ones((2, 3) + small2.shape))
        with pytest.raises(ValueError, match="slices"):
            apply_symbols(small2, np.ones((1,) + small2.shape), np.ones((3,) + small2.shape))


_HALF_CASE = dict(d=st.sampled_from([1, 2]), log_n=st.integers(2, 7), log_l=st.integers(0, 3),
                  batch=st.sampled_from([None, 1, 3]), sym_batch=st.sampled_from([None, 1, 3]),
                  kernel=st.sampled_from(["heat", "poisson"]), seed=st.integers(0, 2**16))


def _half_case(d, log_n, log_l, batch, sym_batch, kernel, seed):
    """A grid, real values and a half-lattice kernel block, as drawn."""
    n = 2 ** (log_n + (d == 1) * 3)
    spec = make_grid(d, min(2**log_l, n // 2), n)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(spec.shape if batch is None else (batch,) + spec.shape)
    if batch and sym_batch and sym_batch != 1:
        sym_batch = batch  # a symbol block has one row or one per value slice
    ts = np.geomspace(1e-3, 4.0, sym_batch or 1) * rng.uniform(0.5, 2.0)
    block = kernel_block(kernel, spec, ts)
    return spec, values, block if sym_batch else block[0]


class TestHalfLatticeSymbols:
    """Half-lattice (real, even) symbols: the real route on real values and
    the full-lattice complex route on complex values."""

    @settings(max_examples=60, deadline=None)
    @given(**_HALF_CASE)
    def test_real_route_matches_complex_values(self, **case):
        # the same values typed complex take the complex route
        spec, values, block = _half_case(**case)
        got = apply_symbols(spec, values, block)
        want = apply_symbols(spec, values.astype(complex), block)
        assert got.dtype == float and want.dtype == complex and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @settings(max_examples=60, deadline=None)
    @given(**_HALF_CASE)
    def test_complex_values_take_the_full_block(self, **case):
        spec, values, block = _half_case(**case)
        values = values * (0.6 - 0.8j)
        got = apply_symbols(spec, values, block)
        want = apply_symbols(spec, values, _full(spec, block))
        assert got.dtype == complex and got.shape == want.shape
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))

    def test_riesz_keeps_its_nyquist_imaginary_part(self, desk1):
        # -i xi/|xi| does not flip sign under xi -> -xi at the Nyquist bin,
        # so R_1 of a real input is not real: it must stay complex
        atom = make_atom(AtomSpec((0.0,), 0.5, 0, 1.0, 1.0), desk1)
        assert atom.values.dtype == float
        r = riesz(atom, 1).values
        assert r.dtype == complex
        assert 4e-4 < np.max(np.abs(r.imag)) < 6e-4
        assert 1.5 < np.max(np.abs(r.real)) < 2.5

    def test_real_values_and_full_symbols_stay_complex(self, small1):
        f = bandlimited_random(small1, 2, 0.5, 4.0)
        assert apply_symbols(small1, f.values, small1.freq_norm()).dtype == complex


class TestLatticeCache:
    @pytest.mark.parametrize("d, L, n", [(1, 16, 1024), (2, 4, 64)])
    def test_read_only_and_intact(self, d, L, n):
        spec = make_grid(d, L, n)
        xi = np.fft.fftfreq(n, d=spec.h)
        fs = spec.freqs()
        arrays = (spec.axis_freqs(), spec.freq_norm(), *fs)
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 123.0
            with pytest.raises(ValueError):
                a *= 2.0
        assert spec.freqs() is fs and make_grid(d, L, n).freq_norm() is spec.freq_norm()
        np.testing.assert_array_equal(spec.axis_freqs(), xi)
        grids = (xi,) if d == 1 else np.meshgrid(xi, xi, indexing="ij")
        for f, want in zip(spec.freqs(), grids):
            np.testing.assert_array_equal(f, want)
        np.testing.assert_array_equal(spec.freq_norm(), np.sqrt(sum(g**2 for g in grids)))


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

    @pytest.mark.parametrize("delta", [1, -1])
    def test_payload_length_checked(self, tmp_path, small1, delta):
        f = bandlimited_random(small1, 5, 0.5, 2.0)
        for g, size in ((f, 8), ((1 + 1j) * f, 16)):  # float64 and complex128 samples
            path = tmp_path / "f.grid"
            write_grid_function(g, path)
            raw = path.read_bytes()
            path.write_bytes(raw + b"\0" if delta > 0 else raw[:-1])
            expected = small1.size * size
            with pytest.raises(ValueError, match=rf"{expected + delta} bytes, expected 1 x {small1.size} "
                                                 rf"x {size} = {expected}$"):
                read_grid_function(path)

    def test_complex_file_header_unchanged(self, tmp_path):
        # complex files keep the header every earlier file has, so both
        # directions read them bit for bit; real files name float64
        spec = make_grid(1, 1, 4)
        values = np.array([1.5 - 0.0j, -2.0 + 1e-300j, 0.0, 3.25 + 4.0j])
        old = (b"dim=1\nL=1\nn=4\nlayout=row-major\ndtype=complex-float64-little-endian\n\n"
               + values.astype("<c16").tobytes())
        path = tmp_path / "f.grid"
        path.write_bytes(old)
        f = read_grid_function(path)
        assert f.values.dtype == complex and _same_bits(f.values, values)
        write_grid_function(f, path)
        assert path.read_bytes() == old
        write_grid_function(GridFunction(spec, values.real), path)
        assert b"dtype=float64-little-endian\n\n" in path.read_bytes()

    @pytest.mark.parametrize("key", ["dim", "L", "n"])
    @pytest.mark.parametrize("suffix", [".grid", ".csv"])
    def test_header_without_grid_key(self, tmp_path, key, suffix):
        # a missing key is bad input, a ValueError that names it and the
        # file; the suffix is not read, so a .csv path holds the same format
        path = tmp_path / f"f{suffix}"
        write_grid_function(GridFunction(make_grid(1, 1, 4), np.arange(4.0)), path)
        _drop_header_key(path, key)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the file header has no {key}= field$"):
            read_grid_function(path)

    @pytest.mark.parametrize("key", ["tmin", "tmax", "tcount"])
    def test_stack_header_without_time_key(self, tmp_path, key):
        spec, tg = make_grid(1, 1, 4), TimeGrid(0.5, 2.0, 3)
        path = tmp_path / "s.stack"
        write_stack(ExtensionStack(spec, tg, np.ones((3, 4))), path)
        _drop_header_key(path, key)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the file header has no {key}= field$"):
            read_stack(path)

    @pytest.mark.parametrize("edit, message", [
        ((b"dtype=", b"type="), "the file header has no dtype= field"),
        ((b"layout=", b"order="), "the file header has no layout= field"),
        ((b"dtype=float64", b"dtype=float32"), "unsupported dtype 'float32-little-endian'"),
        ((b"layout=row-major", b"layout=column-major"), "unsupported layout 'column-major'"),
        ((b"n=4", b"n=5"), "points per axis n must be a power of two >= 2, got 5"),
        ((b"tmin=0.5", b"tmin=x"), "could not convert string to float: 'x'"),
    ], ids=["dtype", "layout", "bad-dtype", "bad-layout", "bad-n", "bad-tmin"])
    def test_stack_header_refusal_names_path(self, tmp_path, edit, message):
        path = tmp_path / "s.stack"
        write_stack(ExtensionStack(make_grid(1, 1, 4), TimeGrid(0.5, 2.0, 3), np.ones((3, 4))), path)
        path.write_bytes(path.read_bytes().replace(*edit, 1))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_stack(path)

    def test_from_file_family(self, tmp_path, small1):
        f = bandlimited_random(small1, 1, 0.5, 2.0)
        path = tmp_path / "g.grid"
        write_grid_function(f, path)
        g = sample(f"from_file:path={path}", small1)
        np.testing.assert_array_equal(g.values, f.values)


def _drop_header_key(path, key: str) -> None:
    """Remove key's field from the header of a grid or stack file."""
    head, _, payload = path.read_bytes().partition(b"\n\n")
    lines = [line for line in head.split(b"\n") if not line.startswith(key.encode() + b"=")]
    path.write_bytes(b"\n".join(lines) + b"\n\n" + payload)


_FINITE = st.complex_numbers(allow_nan=False, allow_infinity=False)
_FINITE_REAL = st.floats(allow_nan=False, allow_infinity=False)


def _same_bits(a, b) -> bool:
    a, b = np.atleast_1d(np.asarray(a)), np.atleast_1d(np.asarray(b))
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def _samples(data, shape):
    """Finite float64 or complex128 samples of the given shape."""
    if data.draw(st.booleans()):
        return data.draw(arrays(float, shape, elements=_FINITE_REAL))
    return data.draw(arrays(complex, shape, elements=_FINITE))


class TestFileRoundTripProperties:
    """Grid (whatever the path's suffix), .stack and symbol files give back
    every bit and the dtype (float64 or complex128) written, signed zeros
    and subnormals included."""

    @staticmethod
    def grid(d, log_n, log_l):
        n = 2 ** (log_n + (d == 1) * 2)
        return make_grid(d, min(2**log_l, n // 2), n)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.sampled_from([1, 2]), log_n=st.integers(1, 4),
           log_l=st.integers(0, 3), suffix=st.sampled_from([".grid", ".csv"]))
    def test_grid_file(self, tmp_path_factory, data, d, log_n, log_l, suffix):
        spec = self.grid(d, log_n, log_l)
        f = GridFunction(spec, _samples(data, spec.shape))
        path = tmp_path_factory.mktemp("grid") / f"f{suffix}"
        write_grid_function(f, path)
        g = read_grid_function(path)
        assert g.spec == spec and _same_bits(g.values, f.values)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.sampled_from([1, 2]), log_n=st.integers(1, 4),
           log_l=st.integers(0, 3), tcount=st.integers(2, 5),
           t_min=st.floats(1e-4, 1e3), span=st.floats(1e-6, 1e3),
           kernel=st.sampled_from(["poisson", "heat", "custom"]))
    def test_stack_file(self, tmp_path_factory, data, d, log_n, log_l, tcount, t_min, span, kernel):
        spec = self.grid(d, log_n, log_l)
        tg = TimeGrid(t_min, t_min * (1.0 + span), tcount)
        values = _samples(data, (tcount,) + spec.shape)
        stack = ExtensionStack(spec, tg, values, kernel)
        path = tmp_path_factory.mktemp("stack") / "u.stack"
        write_stack(stack, path)
        back = read_stack(path)
        assert (back.spec, back.tgrid, back.kernel) == (spec, tg, kernel)
        assert _same_bits(back.values, stack.values)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), d=st.sampled_from([1, 2]), dc=_FINITE)
    def test_symbol_file(self, tmp_path_factory, data, d, dc):
        if d == 1:
            theta = SphereSymbol.from_pair(data.draw(_FINITE), data.draw(_FINITE), dc)
        else:
            samples = data.draw(st.integers(64, 160))
            theta = SphereSymbol.from_samples(data.draw(arrays(complex, samples, elements=_FINITE)), dc)
        path = tmp_path_factory.mktemp("symbol") / "theta.json"
        write_symbol(theta, path)
        back = read_symbol(path)
        assert back.d == d and _same_bits(back.dc_value, theta.dc_value)
        if d == 1:
            assert _same_bits([back.plus, back.minus], [theta.plus, theta.minus])
        else:
            assert _same_bits(back.angle_samples, theta.angle_samples)


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
