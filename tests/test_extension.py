import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.extension import (
    BALL_BYTES,
    AnnularWindow,
    ExtensionStack,
    TimeGrid,
    _ball,
    _ball_symbol,
    _dilation_block,
    _disc_offsets_maxfilter,
    area_integral,
    extend,
    extension_symbol,
    h1_certificate,
    hl_maximal,
    kernel_block,
    nontangential_max,
    radial_maximal,
    read_stack,
    tpq_norm,
    write_stack,
)
from amalgam.grid import (GridFunction, _full, _half, apply_symbols, bandlimited_random, lp_norm,
                          make_grid, sample)
from amalgam.hardy import caloric_lift
from amalgam.kernels import heat_kernel
from amalgam.norms import _as_exponents, amalgam_norm

from conftest import rel_l2


def _disc_mask(n: int, rho_cells: float) -> np.ndarray:
    """0/1 mask over index offsets with wrap-distance strictly below rho_cells."""
    k = np.arange(n)
    dist = np.minimum(k, n - k)
    d2 = dist[:, None] ** 2 + dist[None, :] ** 2
    return (d2 < rho_cells * rho_cells).astype(float)


def _ball_matrix(spec, rho_cells: float) -> np.ndarray:
    """0/1 matrix over node pairs (x, y), row-major, that is 1 where the
    wrapped lattice distance |x - y| / h is strictly below rho_cells."""
    k = np.arange(spec.n)
    wrap = np.abs(k[:, None] - k[None, :])
    wrap = np.minimum(wrap, spec.n - wrap) ** 2
    if spec.d == 2:
        wrap = (wrap[:, None, :, None] + wrap[None, :, None, :]).reshape(spec.size, spec.size)
    return (wrap < rho_cells * rho_cells).astype(float)


class TestTimeGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1e-5, 1.0, 8)  # below the resolvability floor
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.5, 8)
        with pytest.raises(ValueError):
            TimeGrid(0.1, 1.0, 1)

    @pytest.mark.parametrize("bounds", [(math.nan, 1.0), (0.1, math.nan), (0.1, math.inf)])
    def test_nonfinite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(*bounds, 8)

    def test_log_spacing(self):
        tg = TimeGrid(0.001, 64.0, 48)
        t = tg.values
        ratios = t[1:] / t[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)

    def test_trapezoid_weights_cover_span(self):
        tg = TimeGrid(0.01, 4.0, 33)
        assert tg.trapezoid_weights().sum() == pytest.approx(tg.t_max - tg.t_min, rel=1e-12)


class TestExtend:
    def test_heat_semigroup_slices(self, desk1):
        w = heat_kernel(desk1, 0.1)
        tg = TimeGrid(0.1, 10.0, 6)
        stack = extend(w, "heat", tg)
        for i, t in enumerate(stack.times):
            want = heat_kernel(desk1, 0.1 + float(t))
            assert lp_norm(stack.slice(i) - want, 2) <= 1e-8

    def test_boundary_limit(self, desk1, tg48):
        f = bandlimited_random(desk1, 1, 1 / 16, 1 / 8)
        stack = extend(f, "heat", tg48)
        assert rel_l2(stack.slice(0).values, f.values) <= 1e-3

    def test_poisson_stack_satisfies_laplace(self, desk1):
        # second differences in x plus in t; dense log grid and a low band
        # keep both finite-difference errors under the stated tolerance
        f = bandlimited_random(desk1, 9, 1 / 16, 1 / 4)
        tg = TimeGrid(0.25, 4.0, 301)
        u = extend(f, "poisson", tg)
        ts, h = tg.values, desk1.h
        i = tg.count // 2
        dp, dm = ts[i + 1] - ts[i], ts[i] - ts[i - 1]
        u_tt = 2 * (dm * u.values[i + 1] - (dp + dm) * u.values[i] + dp * u.values[i - 1]) / (
            dp * dm * (dp + dm)
        )
        ui = u.values[i]
        u_xx = (np.roll(ui, -1) - 2 * ui + np.roll(ui, 1)) / h**2
        resid = np.linalg.norm(u_tt + u_xx) / np.linalg.norm(u_xx)
        assert resid <= 1e-4

    def test_unknown_kernel(self, desk1, tg48):
        with pytest.raises(ValueError):
            extend(sample("gaussian", desk1), "biharmonic", tg48)


class TestStackValidation:
    """A stack over an apply_symbols output is not scanned for non-finite
    entries again; every other way of building one is."""

    def test_scan_only_where_no_pass_checked(self, monkeypatch, tmp_path, small1, tg16):
        scans = []
        validate = ExtensionStack._validate

        def spy(self, scan_finite):
            scans.append(scan_finite)
            validate(self, scan_finite)

        monkeypatch.setattr(ExtensionStack, "_validate", spy)
        f = bandlimited_random(small1, 16, 0.5, 2.0)
        stack = extend(f, "heat", tg16)
        assert scans == [False]
        caloric_lift(f, tg16).components  # a lifted field's stacks, built on first use
        assert scans == [False] * 3
        write_stack(stack, tmp_path / "u.stack")
        read_stack(tmp_path / "u.stack")
        stack.map_values(lambda v: 2.0 * v)
        ExtensionStack(small1, tg16, stack.values)
        assert scans == [False] * 3 + [True] * 3

    def test_pass_stack_keeps_the_other_checks(self, small1, tg16):
        stack = extend(bandlimited_random(small1, 17, 0.5, 2.0), "poisson", tg16)
        assert not stack.values.flags.writeable and stack.values.flags.c_contiguous
        with pytest.raises(ValueError, match="does not match"):
            ExtensionStack._from_pass(small1, tg16, stack.values[1:], "heat")
        with pytest.raises(ValueError, match="kernel tag"):
            ExtensionStack._from_pass(small1, tg16, stack.values, "wave")

    def test_direct_construction_rejects_nonfinite(self, small1, tg16):
        values = np.zeros((tg16.count,) + small1.shape, dtype=complex)
        values[3, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ExtensionStack(small1, tg16, values)
        stack = ExtensionStack(small1, tg16, np.zeros_like(values))
        with pytest.raises(ValueError, match="non-finite"):
            stack.map_values(lambda v: values)


class TestKernelBlock:
    """Heat and Poisson symbol blocks, real and on the half lattice: every
    call fills a fresh, read-only block."""

    @staticmethod
    def per_slice(kernel, spec, ts):
        return np.array([extension_symbol(kernel, spec, float(t)) for t in ts])

    @pytest.mark.parametrize("kernel", ["heat", "poisson"])
    def test_d1_block(self, desk1, tg48, kernel):
        block = kernel_block(kernel, desk1, tg48.values)
        assert block.dtype == float and not block.flags.writeable
        assert block.shape == (tg48.count, desk1.n // 2 + 1)
        want = self.per_slice(kernel, desk1, tg48.values)
        np.testing.assert_array_equal(block, _half(desk1, want))
        # the symbols are even: the mirrored block is the full-lattice one
        np.testing.assert_array_equal(_full(desk1, block), want)

    @pytest.mark.parametrize("kernel", ["heat", "poisson"])
    def test_repeat_request_gets_a_fresh_block(self, desk1, tg48, kernel):
        # nothing is kept between calls: a second request fills a second,
        # distinct read-only block with the same bits
        first = kernel_block(kernel, desk1, tg48.values)
        second = kernel_block(kernel, desk1, tg48.values)
        assert second is not first and not np.shares_memory(first, second)
        assert not first.flags.writeable and not second.flags.writeable
        assert first.tobytes() == second.tobytes()

    def test_dilation_block(self, desk1, tg48):
        # the maximal profile dilated by t is the heat kernel at t^2
        ts = tg48.values
        np.testing.assert_array_equal(_dilation_block(desk1, ts),
                                      _half(desk1, self.per_slice("heat", desk1, [t**2 for t in ts])))
        np.testing.assert_array_equal(_dilation_block(desk1, ts), kernel_block("heat", desk1, ts**2))

    def test_desk_d2_block_not_retained(self, desk2, tg48):
        block = kernel_block("heat", desk2, tg48.values)
        assert block.dtype == float and block.shape == (tg48.count, desk2.n, desk2.n // 2 + 1)
        assert not block.flags.writeable
        assert kernel_block("heat", desk2, tg48.values) is not block
        np.testing.assert_array_equal(block[[0, 47]],
                                      _half(desk2, self.per_slice("heat", desk2, tg48.values[[0, 47]])))

    @pytest.mark.parametrize("kernel", ["heat", "poisson"])
    def test_desk_d2_block_matches_per_slice(self, desk2, tg48, kernel):
        # every row, including the underflowing and subnormal entries, and
        # the mirrored rest of the lattice
        block = kernel_block(kernel, desk2, tg48.values)
        want = self.per_slice(kernel, desk2, tg48.values)
        assert np.any((want > 0) & (want < np.finfo(float).tiny)) and np.any(want == 0)
        np.testing.assert_array_equal(block, _half(desk2, want))
        np.testing.assert_array_equal(_full(desk2, block), want)

    def test_apply_symbols_leaves_block_unchanged(self, desk1, tg48):
        # a pass reads the block and never writes into it
        block = kernel_block("heat", desk1, tg48.values)
        before = block.copy()
        stack = apply_symbols(desk1, sample("gaussian:width=1", desk1).values, block)
        assert not np.shares_memory(stack, block)
        np.testing.assert_array_equal(block, before)


class TestRadialMaximal:
    def test_magnitude_taken_in_place(self, desk2, tg48):
        # a real pass's magnitude is taken in place: the same bits as
        # |pass|, and no second stack beside the pass output
        f = sample("gaussian:width=1", desk2)
        tracemalloc.start()
        try:
            M = radial_maximal(f, tg48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = np.abs(apply_symbols(desk2, f.values, _dilation_block(desk2, tg48.values))).max(axis=0)
        assert M.values.tobytes() == want.tobytes()
        assert peak < 1.25 * tg48.count * desk2.size * 8

    def test_dominates_members(self, desk1, tg48):
        f = sample("gaussian:width=1", desk1)  # nonnegative
        M = radial_maximal(f, tg48)
        t_mid = float(tg48.values[tg48.count // 2])
        from amalgam.oracle import SpectralFunction, forward, inverse

        sym = extension_symbol("heat", desk1, t_mid**2)  # the heat profile dilated by t_mid
        member = inverse(SpectralFunction(desk1, sym * forward(f).coeffs))
        assert np.all(M.values.real >= np.abs(member.values) - 1e-12)

    def test_indicator_center_value(self, desk1, tg48):
        f = sample("indicator:lo=0,hi=1", desk1)
        M = radial_maximal(f, tg48)
        # small dilations reproduce the plateau: the recorded constant is ~1
        assert M.at(0.5).real >= 0.9

    def test_supersets_never_decrease(self, desk1):
        f = sample("gaussian:width=1", desk1)
        M1 = radial_maximal(f, TimeGrid(0.01, 4.0, 16))
        M2 = radial_maximal(f, TimeGrid(0.01, 16.0, 32))
        # M2's grid is not a superset, so compare against an actual refinement
        M3 = radial_maximal(f, TimeGrid(0.01, 4.0, 31))
        assert np.all(M3.values.real >= M1.values.real - 1e-12)

    @pytest.mark.parametrize("grid", ["small1", "small2"])
    def test_level_zero_of_the_mollified_blocks(self, grid, request):
        # the maximal quantity of the equivalence sweep, a running maximum
        # over the chunks of its mollified stack (level 0), reads the same profile
        from amalgam.hardy import _member_values

        spec = request.getfixturevalue(grid)
        f, tg = bandlimited_random(spec, 4, 0.25, 2.0), TimeGrid(1e-3, 16.0, 12)
        es = [_as_exponents(e) for e in ((1.0, 1.0), (2.0, 0.5), (0.7, 3.0))]
        (vals,) = _member_values([("f", f)], es, tg, ("maximal",))
        assert vals["maximal"] == [amalgam_norm(radial_maximal(f, tg), e) for e in es]


class TestNontangential:
    def test_dominates_vertical_sup(self, desk1, tg48):
        f = bandlimited_random(desk1, 2, 0.25, 2.0)
        u = extend(f, "poisson", tg48)
        star = nontangential_max(u)
        vert = np.max(np.abs(u.values), axis=0)
        assert np.all(star.values.real >= vert - 1e-13)

    def test_translation_equivariance(self, small1, tg16):
        f = bandlimited_random(small1, 3, 0.5, 2.0)
        u = extend(f, "poisson", tg16)
        star = nontangential_max(u)
        cells = int(round(1.0 / small1.h))  # whole-cell shift by one unit
        shifted = GridFunction(small1, np.roll(f.values, cells))
        star_shifted = nontangential_max(extend(shifted, "poisson", tg16))
        np.testing.assert_allclose(star_shifted.values.real,
                                   np.roll(star.values.real, cells), atol=1e-12)

    def test_aperture_monotone(self, small1, tg16):
        f = bandlimited_random(small1, 4, 0.5, 2.0)
        u = extend(f, "poisson", tg16)
        s1 = nontangential_max(u, 1.0)
        s2 = nontangential_max(u, 2.0)
        assert np.all(s2.values.real >= s1.values.real - 1e-13)

    def test_2d_matches_bruteforce(self, small2, tg16):
        f = bandlimited_random(small2, 5, 0.4, 2.0)
        u = extend(f, "poisson", tg16)
        star = nontangential_max(u)
        n, h = small2.n, small2.h
        brute = np.zeros(small2.shape)
        for i, t in enumerate(u.times):
            absu = np.abs(u.values[i])
            w = math.ceil(float(t) / h) - 1
            cand = np.copy(absu)
            for a in range(-w, w + 1):
                for b in range(-w, w + 1):
                    if (a * a + b * b) * h * h < float(t) ** 2 - 1e-15:
                        cand = np.maximum(cand, np.roll(np.roll(absu, -a, 0), -b, 1))
            brute = np.maximum(brute, cand)
        np.testing.assert_allclose(star.values.real, brute, atol=1e-14)

    @given(n=st.sampled_from([8, 16, 32]),
           frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_disc_maxfilter_matches_every_offset(self, n, frac, seed):
        # rho in (0, n]: chords run from one cell (a power of two) to the full row
        rho = frac * n
        rng = np.random.default_rng(seed)
        absu = rng.integers(0, 4, size=(n, n)).astype(float) + rng.random((n, n))
        want = np.copy(absu)
        reach = math.ceil(rho)
        for a in range(-reach, reach + 1):
            for b in range(-reach, reach + 1):
                if a * a + b * b < rho * rho:
                    want = np.maximum(want, np.roll(absu, (-a, -b), axis=(0, 1)))
        assert np.array_equal(_disc_offsets_maxfilter(absu, rho, n), want)

    def test_tpq_dominated_by_nontangential_norm(self, desk1, tg48):
        f = bandlimited_random(desk1, 6, 0.25, 2.0)
        u = extend(f, "poisson", tg48)
        e = (1.0, 1.0)
        assert tpq_norm(u, e) <= amalgam_norm(nontangential_max(u), e) + 1e-10

    def test_aperture_positive(self, desk1, tg48):
        u = extend(sample("gaussian", desk1), "poisson", tg48)
        with pytest.raises(ValueError):
            nontangential_max(u, 0.0)


class TestHlMaximal:
    def test_constant_exact(self, small1):
        c = GridFunction(small1, np.full(small1.shape, 3.0 - 4.0j))
        M = hl_maximal(c, 2.0)
        np.testing.assert_allclose(M.values.real, 5.0, atol=1e-12)

    def test_dominates_pointwise(self, small1):
        f = bandlimited_random(small1, 7, 0.5, 4.0)
        M = hl_maximal(f, 1.5)
        assert np.all(M.values.real >= np.abs(f.values) - 1e-12)

    def test_indicator_maximization(self, desk1):
        f = sample("indicator:lo=0,hi=1", desk1)
        M = hl_maximal(f, 1.0)
        # continuum maximization gives 1/4 at radius 2; lattice means hit it to O(h)
        assert M.at(2.0).real == pytest.approx(0.25, abs=0.01)

    def test_2d_runs(self, small2):
        f = bandlimited_random(small2, 8, 0.5, 1.5)
        M = hl_maximal(f, 1.0)
        assert np.all(M.values.real >= np.abs(f.values) - 1e-12)

    def test_rejects_bad_exponent(self, small1):
        with pytest.raises(ValueError):
            hl_maximal(sample("gaussian", small1), 0.0)

    def test_2d_matches_per_radius_transform(self):
        # one batched real pass of the density against every radius's
        # normalized ball symbol, against a complex transform per radius
        spec = make_grid(2, 8, 128)
        f = bandlimited_random(spec, 9, 0.5, 2.0)
        dens = np.abs(f.values) ** 1.5
        acc = None
        for m in (1, 2, 4, 8, 16, 32, 64):
            mask = _disc_mask(spec.n, m)
            mean = np.fft.ifftn(np.fft.fftn(dens) * np.fft.fftn(mask)).real / mask.sum()
            acc = mean if acc is None else np.maximum(acc, mean)
        np.testing.assert_allclose(hl_maximal(f, 1.5).values, acc ** (1.0 / 1.5), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec", [make_grid(1, 4, 512), make_grid(2, 2, 32)], ids=["d1", "d2"])
    def test_matches_direct_ball_means(self, spec):
        # every dyadic ball (at d=1 the wrapped runs of 2m - 1 cells, up to
        # n - 1) summed node by node
        f = bandlimited_random(spec, 10, 0.5, 4.0)
        dens = np.abs(f.values).reshape(-1) ** 1.5
        acc = 0.0
        for m in (2**k for k in range(spec.n.bit_length() - 1)):
            ball = _ball_matrix(spec, m)
            acc = np.maximum(acc, ball @ dens / ball.sum(axis=1))
        want = (acc ** (1.0 / 1.5)).reshape(spec.shape)
        np.testing.assert_allclose(hl_maximal(f, 1.5).values, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_real_on_two_point_grid(self, d):
        # at n = 2 the half lattice is the whole lattice and the pass is complex
        spec = make_grid(d, 1, 2)
        f = GridFunction(spec, np.arange(spec.size, dtype=float).reshape(spec.shape) - 0.5)
        assert hl_maximal(f, 1.0).values.dtype == np.float64
        assert area_integral(f, None, TimeGrid(0.5, 8.0, 4)).values.dtype == np.float64


class TestBallSymbols:
    def test_cached_read_only_same_bits(self, desk2):
        sym, count = _ball_symbol(desk2, 5.5)
        assert _ball_symbol(desk2, 5.5)[0] is sym  # a repeat request: the same object
        assert not sym.flags.writeable
        built, want = _ball(desk2, 5.5)
        assert sym.tobytes() == built.tobytes() and count == want

    def test_whole_box_balls_share_one_entry(self, desk2):
        # no wrapped offset reaches n cells, so every larger radius is the box
        sym = _ball_symbol(desk2, 1e6)[0]
        assert _ball_symbol(desk2, 400.0)[0] is sym
        assert sym.tobytes() == _ball(desk2, 1e6)[0].tobytes()
        assert sym[0, 0] == desk2.size and np.count_nonzero(sym) == 1

    def test_large_symbols_not_kept(self):
        spec = make_grid(2, 8, 512)
        assert spec.n * (spec.n // 2 + 1) * 8 > BALL_BYTES
        assert _ball_symbol(spec, 3.0)[0] is not _ball_symbol(spec, 3.0)[0]


class TestAreaIntegral:
    def test_zero_input(self, small1):
        z = GridFunction(small1, np.zeros(small1.shape))
        S = area_integral(z, None, TimeGrid(0.1, 2.0, 8))
        assert np.max(S.values.real) == 0.0

    def test_homogeneity(self, small1):
        f = bandlimited_random(small1, 9, 1.0, 4.0)
        tg = TimeGrid(0.1, 2.0, 8)
        S1 = area_integral(f, None, tg)
        S2 = area_integral(3.0 * f, None, tg)
        np.testing.assert_allclose(S2.values.real, 3.0 * S1.values.real, atol=1e-12)

    def test_d1_peak_memory(self, desk1, tg48):
        """At d=1 the passes run eight slices at a time and no d=2
        accumulator (n x (n/2+1) complex, 134 MB here) is allocated."""
        f = bandlimited_random(desk1, 5, 1.0, 4.0)
        tracemalloc.start()
        try:
            area_integral(f, None, tg48)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * f.values.nbytes  # 4 MiB; about 1.3 MiB measured

    def test_window_bounds(self):
        win = AnnularWindow()
        rho = np.linspace(0, 10, 2001)
        prof = win.profile(rho)
        assert np.all(prof[(rho >= 2) & (rho <= 4)] >= 1.0 - 1e-12)
        assert np.all(prof[(rho <= 1) | (rho >= 8)] == 0.0)
        assert np.all((prof >= 0) & (prof <= 1 + 1e-12))

    def test_matches_direct_cone_sum(self):
        spec = make_grid(1, 4, 128)
        f = bandlimited_random(spec, 6, 2.5, 3.5)  # spectrum inside the annulus at t=1
        tg = TimeGrid(0.25, 4.0, 12)
        S = area_integral(f, None, tg)
        win = AnnularWindow()
        from amalgam.oracle import SpectralFunction, forward, inverse

        F = forward(f)
        x = spec.axis_nodes()
        S2 = np.zeros(spec.n)
        for t, dt in zip(tg.values, tg.trapezoid_weights()):
            g = inverse(SpectralFunction(spec, win.multiplier(spec, float(t)) * F.coeffs)).values
            for i in range(spec.n):
                acc = 0.0
                for j in range(spec.n):
                    d = abs(x[i] - x[j])
                    d = min(d, 2 * spec.L - d)
                    if d < float(t) - 1e-15:
                        acc += abs(g[j]) ** 2
                S2[i] += acc * spec.h * dt / float(t) ** 2
        np.testing.assert_allclose(S.values.real, np.sqrt(S2), atol=1e-10)

    def test_matches_direct_cone_sum_2d(self):
        spec = make_grid(2, 2, 16)
        f = bandlimited_random(spec, 3, 1.5, 3.5)
        tg = TimeGrid(0.25, 2.0, 6)
        S = area_integral(f, None, tg)
        win = AnnularWindow()
        from amalgam.oracle import SpectralFunction, forward, inverse

        F = forward(f)
        x = spec.axis_nodes()
        n, h, L = spec.n, spec.h, spec.L
        S2 = np.zeros(spec.shape)
        for t, dt in zip(tg.values, tg.trapezoid_weights()):
            g = inverse(SpectralFunction(spec, win.multiplier(spec, float(t)) * F.coeffs)).values
            for i1 in range(n):
                for i2 in range(n):
                    acc = 0.0
                    for j1 in range(n):
                        d1 = min(abs(x[i1] - x[j1]), 2 * L - abs(x[i1] - x[j1]))
                        if d1 >= t:
                            continue
                        for j2 in range(n):
                            d2 = min(abs(x[i2] - x[j2]), 2 * L - abs(x[i2] - x[j2]))
                            if d1 * d1 + d2 * d2 < float(t) ** 2 - 1e-15:
                                acc += abs(g[j1, j2]) ** 2
                    S2[i1, i2] += acc * h * h * dt / float(t) ** 3
        np.testing.assert_allclose(S.values.real, np.sqrt(S2), atol=1e-10)

    def test_multiplier_is_profile_on_lattice(self, desk1, desk2, tg48):
        # the profile is evaluated only off its exact 0 and 1 plateaus
        win = AnnularWindow()
        for spec in (desk1, desk2, make_grid(2, 2, 16)):
            for t in list(tg48.values) + [0.25, 0.5, 1.0, 2.0, 4.0]:
                np.testing.assert_array_equal(win.multiplier(spec, float(t)),
                                              win.profile(float(t) * spec.freq_norm()))

    def test_matches_direct_cone_sum_2d_shortcuts(self):
        # h = 0.25 and sqrt(2) n/2 h = 2.83: the grid has slices with t < h
        # (window zero on the lattice) and with a disc that covers the box
        spec = make_grid(2, 2, 16)
        tg = TimeGrid(0.05, 6.0, 9)
        ts = tg.values
        assert ts[0] < spec.h and ts[-1] / spec.h > math.sqrt(2.0) * spec.n / 2
        f = bandlimited_random(spec, 4, 0.5, 3.5)
        S = area_integral(f, None, tg)
        win = AnnularWindow()
        n, h, L = spec.n, spec.h, spec.L
        x = spec.axis_nodes()
        dx = np.abs(x[:, None] - x[None, :])
        dx = np.minimum(dx, 2 * L - dx)
        dist2 = (dx[:, None, :, None] ** 2 + dx[None, :, None, :] ** 2).reshape(n * n, n * n)
        S2 = np.zeros(n * n)
        for t, dt in zip(ts, tg.trapezoid_weights()):
            g = apply_symbols(spec, f.values, win.multiplier(spec, float(t)))
            inside = dist2 < float(t) ** 2 - 1e-15
            S2 += inside @ (np.abs(g) ** 2).reshape(-1) * h * h * dt / float(t) ** 3
        np.testing.assert_allclose(S.values.real, np.sqrt(S2).reshape(spec.shape), atol=1e-10)

    def test_2d_matches_per_slice_transforms(self, desk2, tg48):
        # each slice's ball sum inverted on its own, with three complex
        # transforms, against one real inverse of the summed products
        f = bandlimited_random(desk2, 12, 0.25, 2.0)
        win = AnnularWindow()
        n, h = desk2.n, desk2.h
        S2 = np.zeros(desk2.shape)
        for t, dt in zip(tg48.values, tg48.trapezoid_weights()):
            g = apply_symbols(desk2, f.values, win.profile(float(t) * desk2.freq_norm()))
            mask = _disc_mask(n, float(t) / h)
            ball = np.fft.ifftn(np.fft.fftn(np.abs(g) ** 2) * np.fft.fftn(mask)).real
            S2 += ball * h**2 * dt / float(t) ** 3
        want = np.sqrt(np.maximum(S2, 0.0))
        np.testing.assert_allclose(area_integral(f, None, tg48).values.real, want,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec, tg", [(make_grid(1, 4, 512), TimeGrid(0.01, 8.0, 12)),
                                          (make_grid(2, 2, 32), TimeGrid(0.05, 4.0, 9))],
                             ids=["d1", "d2"])
    def test_matches_direct_ball_sums(self, spec, tg):
        # the grids have slices with t < h (window zero on the lattice) and
        # balls that cover the wrapped box; every ball summed node by node
        f = bandlimited_random(spec, 7, 0.5, 3.5)
        win, h = AnnularWindow(), spec.h
        S2 = np.zeros(spec.size)
        for t, dt in zip(tg.values, tg.trapezoid_weights()):
            g = apply_symbols(spec, f.values, win.multiplier(spec, float(t)))
            ball = _ball_matrix(spec, float(t) / h)
            S2 += ball @ (np.abs(g) ** 2).reshape(-1) * h**spec.d * dt / float(t) ** (spec.d + 1)
        want = np.sqrt(S2).reshape(spec.shape)
        np.testing.assert_allclose(area_integral(f, None, tg).values, want, rtol=1e-12, atol=0)

    def test_in_band_content_passes_at_unit_time(self):
        spec = make_grid(1, 4, 128)
        f = bandlimited_random(spec, 6, 2.5, 3.5)
        win = AnnularWindow()
        mult = win.multiplier(spec, 1.0)
        from amalgam.oracle import forward

        F = forward(f)
        passed = np.sum(np.abs(mult * F.coeffs) ** 2)
        total = np.sum(np.abs(F.coeffs) ** 2)
        assert passed == pytest.approx(total, rel=1e-12)


class TestH1Certificate:
    def test_frozen_bound(self, desk1, tg48):
        from amalgam.frozen import FrozenStore
        from amalgam.hardy import grid_run_id, reference_family

        store = FrozenStore.load()
        gid = grid_run_id(desk1, tg48)
        members = reference_family(desk1)
        for (p, q) in ((1.0, 1.0), (2.0, 3.0)):
            frozen = store.get("reference-d1", "h1_ratio", p, q, gid)
            cmax = 0.0
            for _, f in members:
                cmax = max(cmax, h1_certificate(extend(f, "heat", tg48), (p, q)).max_ratio)
            assert cmax <= frozen * 1.1


class TestTpqNorm:
    def test_max_of_slice_norms(self, small1, tg16):
        u = extend(bandlimited_random(small1, 3, 0.25, 4.0), "heat", tg16)
        for pq in [(1.0, 1.0), (0.7, 2.0), (2.0, 0.8)]:
            want = max(amalgam_norm(u.slice(i), pq) for i in range(tg16.count))
            assert tpq_norm(u, pq) == want


class TestStackDump:
    def test_roundtrip(self, tmp_path, small1, tg16):
        f = bandlimited_random(small1, 10, 0.5, 2.0)
        stack = extend(f, "heat", tg16)
        path = tmp_path / "u.stack"
        write_stack(stack, path)
        back = read_stack(path)
        assert back.spec == stack.spec
        assert back.tgrid == stack.tgrid
        assert back.kernel == "heat"
        np.testing.assert_array_equal(back.values, stack.values)

    @staticmethod
    def stacks(spec, tg):
        """A real heat stack (8-byte samples) and a complex one (16-byte)."""
        f = bandlimited_random(spec, 10, 0.5, 2.0)
        return [(extend(g, "heat", tg), size) for g, size in ((f, 8), ((1 + 1j) * f, 16))]

    @pytest.mark.parametrize("delta", [1, -1])
    def test_payload_length_checked(self, tmp_path, small1, tg16, delta):
        for stack, size in self.stacks(small1, tg16):
            path = tmp_path / "u.stack"
            write_stack(stack, path)
            raw = path.read_bytes()
            path.write_bytes(raw + b"\0" if delta > 0 else raw[:-1])
            expected = tg16.count * small1.size * size
            with pytest.raises(ValueError, match=rf"{expected + delta} bytes, expected "
                                                 rf"{tg16.count} x {small1.size} x {size} = {expected}$"):
                read_stack(path)

    def test_short_read_checked(self, tmp_path, monkeypatch, small1, tg16):
        # a payload that shrinks after its length was checked
        fstat = os.fstat
        for stack, size in self.stacks(small1, tg16):
            path = tmp_path / "u.stack"
            write_stack(stack, path)
            path.write_bytes(path.read_bytes()[:-size])
            with monkeypatch.context() as m:
                m.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=fstat(fd).st_size + size))
                expected = tg16.count * small1.size * size
                with pytest.raises(ValueError, match=rf"short read, {expected - size} of {expected} "):
                    read_stack(path)

    def test_numpy_float_time_bounds(self, tmp_path, small1):
        # bounds taken from an array are numpy floats; the header must hold
        # plain numbers that read_stack can parse back
        tg = TimeGrid(*np.array([0.05, 8.0]), 4)
        path = tmp_path / "u.stack"
        write_stack(extend(bandlimited_random(small1, 10, 0.5, 2.0), "heat", tg), path)
        assert read_stack(path).tgrid == tg

    def test_roundtrip_2d(self, tmp_path, small2, tg16):
        f = bandlimited_random(small2, 11, 0.5, 2.0)
        stack = extend(f, "poisson", tg16)
        path = tmp_path / "u2.stack"
        write_stack(stack, path)
        back = read_stack(path)
        assert back.spec == small2 and back.kernel == "poisson"
        np.testing.assert_array_equal(back.values, stack.values)


