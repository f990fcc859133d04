import tracemalloc

import numpy as np
import pytest

from amalgam.crsys import (
    ConjugateField,
    _quadrature_half,
    caloric_cr_residual,
    harmonic_cr_residual,
    majorization_report,
    sup_vector_amalgam_norm,
)
from amalgam.extension import TimeGrid, extend
from amalgam.grid import GridFunction, bandlimited_random, make_grid, sample
from amalgam.hardy import caloric_lift, harmonic_lift
from amalgam.norms import amalgam_norm
from amalgam.oracle import caloric_cr_residual_direct
from amalgam.spectral import riesz

from conftest import (assert_lifted_as_stored, assert_same_bits, assert_within_pin,
                      lifted_and_stored_reports, stored)


class TestConjugateField:
    def test_component_count(self, small1, tg16):
        u = extend(sample("gaussian", small1), "poisson", tg16)
        with pytest.raises(ValueError, match="components"):
            ConjugateField((u, u, u), "harmonic")

    def test_flavor_checked(self, small1, tg16):
        u = extend(sample("gaussian", small1), "poisson", tg16)
        with pytest.raises(ValueError, match="flavor"):
            ConjugateField((u, u), "parabolic")

    def test_mismatched_grids(self, small1, tg16):
        u = extend(sample("gaussian", small1), "poisson", tg16)
        v = extend(sample("gaussian", small1), "poisson", TimeGrid(0.05, 8.0, 8))
        with pytest.raises(ValueError, match="share"):
            ConjugateField((u, v), "harmonic")


class TestHarmonicResidual:
    def test_lift_is_conjugate(self, desk1, tg48):
        F = harmonic_lift(sample("gaussian:width=1", desk1), tg48)
        rep = harmonic_cr_residual(F)
        assert rep.max_of("sym_res") <= 1e-6
        assert rep.max_of("div_res") <= 1e-6
        assert rep.time_derivative_mode == "exact-symbol"

    def test_scaling_perturbation_detected(self, desk1, tg48):
        F = harmonic_lift(sample("gaussian:width=1", desk1), tg48)
        rep = harmonic_cr_residual(F.scaled_component(0, 2.0))
        assert rep.max_of("div_res") > 1e-2

    def test_zero_field_rejected(self, small1, tg16):
        z = GridFunction(small1, np.zeros(small1.shape))
        F = ConjugateField((extend(z, "poisson", tg16),) * 2, "harmonic")
        with pytest.raises(ValueError, match="zero"):
            harmonic_cr_residual(F)

    def test_flavor_guard(self, desk1, tg48):
        G = caloric_lift(sample("gaussian", desk1), tg48)
        with pytest.raises(ValueError, match="harmonic"):
            harmonic_cr_residual(G)

    def test_2d_lift(self, small2, tg16):
        f = bandlimited_random(small2, 5, 0.4, 2.0)
        rep = harmonic_cr_residual(harmonic_lift(f, tg16))
        assert rep.max_of("sym_res") <= 1e-6
        assert rep.max_of("div_res") <= 1e-6

    def test_refinement_halves_fd_residual(self, small1):
        # spatial parts are spectral; the finite-difference error lives in t,
        # so refinement doubles the time-grid resolution
        f = bandlimited_random(small1, 3, 1 / 16, 1 / 4)
        coarse = TimeGrid(0.05, 8.0, 24)
        worst = {}
        for tg in (coarse, TimeGrid(0.05, 8.0, 47)):  # twice the resolution
            F = harmonic_lift(f, tg)
            Fc = ConjugateField(
                tuple(c.map_values(lambda v: v, kernel="custom") for c in F.components),
                "harmonic",
            )
            rep = harmonic_cr_residual(Fc)
            assert rep.time_derivative_mode == "log-grid-differences"
            worst[tg.count] = max(rep.max_of("sym_res"), rep.max_of("div_res"))
        assert worst[47] <= 0.5 * worst[24]

    def test_mode_names_any_log_grid_component(self, small1, tg16):
        # first component differenced in t, last one with its exact symbol
        F = harmonic_lift(sample("gaussian:width=1", small1), tg16)
        mixed = ConjugateField(
            (F.components[0].map_values(lambda v: v, kernel="custom"), F.components[1]),
            "harmonic",
        )
        assert harmonic_cr_residual(mixed).time_derivative_mode == "log-grid-differences"

    def test_nonfinite_norms_rejected(self, small1, tg16):
        F = harmonic_lift(sample("gaussian:width=1", small1), tg16)
        huge = ConjugateField(tuple(c.map_values(lambda v: 1e200 * v) for c in F.components),
                              "harmonic")
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            harmonic_cr_residual(huge)


class TestCaloricResidual:
    def test_lift_spectral(self, desk1, tg48):
        G = caloric_lift(sample("gaussian:width=1", desk1), tg48)
        rep = caloric_cr_residual(G, "spectral")
        assert rep.max_of("a_res") <= 1e-6
        assert rep.max_of("b_res") <= 1e-6
        assert rep.max_of("c_res") <= 1e-6

    def test_lift_quadrature(self, desk1, tg48):
        G = caloric_lift(sample("gaussian:width=1", desk1), tg48)
        rep = caloric_cr_residual(G, "quadrature")
        assert rep.max_of("a_res") <= 1e-2
        assert rep.max_of("b_res") <= 1e-2
        assert rep.max_of("c_res") <= 1e-2

    def test_sign_flip_detected(self, desk1, tg48):
        G = caloric_lift(sample("gaussian:width=1", desk1), tg48)
        flipped = G.scaled_component(G.spec.d, -1.0)  # u_{d+1}
        rep = caloric_cr_residual(flipped, "spectral")
        assert rep.max_of("a_res") > 1e-1
        assert rep.max_of("c_res") > 1e-1

    def test_b_vacuous_in_1d(self, desk1, tg48):
        G = caloric_lift(sample("gaussian:width=1", desk1), tg48)
        rep = caloric_cr_residual(G, "spectral")
        assert np.all(rep.per_slice["b_res"] == 0.0)

    def test_2d_spectral(self, small2, tg16):
        f = bandlimited_random(small2, 5, 0.4, 2.0)
        rep = caloric_cr_residual(caloric_lift(f, tg16), "spectral")
        for key in ("a_res", "b_res", "c_res"):
            assert rep.max_of(key) <= 1e-6

    def test_spectral_needs_heat_stacks(self, desk1, tg48):
        G = caloric_lift(sample("gaussian", desk1), tg48)
        custom = ConjugateField(
            tuple(c.map_values(lambda v: v, kernel="custom") for c in G.components), "caloric"
        )
        with pytest.raises(ValueError, match="heat"):
            caloric_cr_residual(custom, "spectral")

    def test_unknown_mode(self, desk1, tg48):
        G = caloric_lift(sample("gaussian", desk1), tg48)
        with pytest.raises(ValueError, match="mode"):
            caloric_cr_residual(G, "hybrid")

    def test_quadrature_refinement_improves(self, small1):
        f = bandlimited_random(small1, 2, 1 / 8, 1 / 2)
        worst = {}
        for count in (16, 31):
            G = caloric_lift(f, TimeGrid(0.05, 32.0, count))
            rep = caloric_cr_residual(G, "quadrature")
            worst[count] = max(rep.max_of("a_res"), rep.max_of("c_res"))
        assert worst[31] <= 0.5 * worst[16]

    def test_stored_quadrature_rows_alike_in_any_chunk(self, small2, tg16):
        # a stored field's half-derivative of a slice is one product of its
        # own, so the same bits in a chunk of any height (complex and real
        # components both)
        F = stored(bandlimited_random(small2, 2, 0.5, 2.0), tg16, "caloric")
        rows, half = _quadrature_half(F)
        U = [np.empty((len(rows),) + small2.shape, complex)] * 3
        for a in range(3):
            whole = half({}, a, U, rows.start, rows.stop)  # each call its own buffers
            ones = [half({}, a, [u[:1] for u in U], i, i + 1) for i in rows]
            assert_same_bits(whole, np.concatenate(ones))

    def test_2d_quadrature(self):
        # documented gate of the quadrature mode; measured a_res 3.0e-5,
        # b_res ~1e-15, c_res 2.1e-5
        spec = make_grid(2, 8, 64)
        G = caloric_lift(sample("gaussian:width=1", spec), TimeGrid(1e-3, 64.0, 48))
        rep = caloric_cr_residual(G, "quadrature")
        for key in ("a_res", "b_res", "c_res"):
            assert rep.max_of(key) <= 1e-2

    def test_nonfinite_norms_rejected(self, small1, tg16):
        G = caloric_lift(sample("gaussian:width=1", small1), tg16)
        huge = ConjugateField(tuple(c.map_values(lambda v: 1e200 * v) for c in G.components),
                              "caloric")
        for mode in ("spectral", "quadrature"):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
                caloric_cr_residual(huge, mode)

    def test_report_serializes(self, desk1, tg48):
        G = caloric_lift(sample("gaussian", desk1), tg48)
        doc = caloric_cr_residual(G, "spectral").to_jsonable()
        assert doc["flavor"] == "caloric"
        assert set(doc["max"]) == {"a_res", "b_res", "c_res"}


class TestResidualMemory:
    """A residual call works through chunks of time slices in frequency
    space: its peak allocation stays below the size of one component stack."""

    @pytest.fixture(scope="class")
    def f(self):
        return sample("gaussian:width=1", make_grid(2, 8, 64))

    @staticmethod
    def peak_bytes(fn, F):
        tracemalloc.start()
        try:
            fn(F)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_harmonic(self, f, tg48):
        F = harmonic_lift(f, tg48)
        assert self.peak_bytes(harmonic_cr_residual, F) < F.components[0].values.nbytes

    def test_caloric_spectral(self, f, tg48):
        G = caloric_lift(f, tg48)
        peak = self.peak_bytes(lambda F: caloric_cr_residual(F, "spectral"), G)
        assert peak < G.components[0].values.nbytes

    def test_caloric_quadrature(self, f, tg48):
        G = caloric_lift(f, tg48)
        peak = self.peak_bytes(lambda F: caloric_cr_residual(F, "quadrature"), G)
        assert peak < G.components[0].values.nbytes


class TestSupVectorNorm:
    @pytest.mark.parametrize("grid", [(1, 16, 1024), (2, 4, 64)], ids=["d1", "d2"])
    def test_batched_equals_per_slice_definition(self, grid):
        spec = make_grid(*grid)
        tg = TimeGrid(0.05, 8.0, 15)  # odd count: the last chunk holds one slice
        G = caloric_lift(bandlimited_random(spec, 3, 0.5, 2.0), tg)
        pairs = [(1.0, 1.0), (2.0, 3.0), (1.2, 0.9)]

        def magnitude(i):
            return GridFunction(spec, np.sqrt(sum(np.abs(c.values[i]) ** 2 for c in G.components)))

        want = [max(amalgam_norm(magnitude(i), e) for i in range(tg.count)) for e in pairs]
        assert [sup_vector_amalgam_norm(G, e) for e in pairs] == want

    def test_single_component_reduces(self, small1, tg16):
        f = bandlimited_random(small1, 4, 0.5, 2.0)
        u = extend(f, "heat", tg16)
        z = u.map_values(np.zeros_like)
        F = ConjugateField((u, z), "caloric")
        want = max(amalgam_norm(u.slice(i), (1, 1)) for i in range(tg16.count))
        assert sup_vector_amalgam_norm(F, (1, 1)) == pytest.approx(want, rel=1e-12)

    def test_scaling(self, small1, tg16):
        f = bandlimited_random(small1, 4, 0.5, 2.0)
        G = caloric_lift(f, tg16)
        a = sup_vector_amalgam_norm(G, (2, 3))
        G2 = ConjugateField(tuple(c.map_values(lambda v: -2.5 * v) for c in G.components), "caloric")
        assert sup_vector_amalgam_norm(G2, (2, 3)) == pytest.approx(2.5 * a, rel=1e-12)

    def test_component_domination(self, small1, tg16):
        f = bandlimited_random(small1, 5, 0.5, 2.0)
        G = caloric_lift(f, tg16)
        last = max(amalgam_norm(G.components[-1].slice(i), (1, 1)) for i in range(tg16.count))
        assert sup_vector_amalgam_norm(G, (1, 1)) >= last - 1e-12

    def test_refinement_oracle(self, tg48):
        # the haar pattern samples identically at both resolutions
        vals = {}
        for n in (2048, 4096):
            spec = make_grid(1, 32, n)
            F = harmonic_lift(sample("haar:corner=0,side=1", spec), tg48)
            vals[n] = sup_vector_amalgam_norm(F, (1, 1))
        assert abs(vals[4096] - vals[2048]) <= 0.02 * vals[4096]


class TestMajorization:
    def test_harmonic_lift_majorized(self, desk1, tg48):
        F = harmonic_lift(sample("gaussian:width=1", desk1), tg48)
        rep = majorization_report(F)
        assert rep.max_violation <= 1e-3 * rep.peak


class TestLiftedField:
    """A lifted field builds its slices where a walk reads them: every report
    is the same bits as from the field of whole stacks, but the quadrature
    residual, which takes another route on each and is pinned to the oracle
    (the d=2 grids that split across CPUs are covered in
    tests/test_threads.py)."""

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("grid", [(1, 16, 1024), (2, 4, 64)], ids=["d1", "d2"])
    def test_same_bits_as_stored(self, grid, kind):
        spec = make_grid(*grid)
        f = bandlimited_random(spec, 7, 0.5, 2.0)
        if kind == "complex":
            f = GridFunction(spec, (1 + 0.5j) * f.values + 0.25j * np.roll(f.values, 3))
        lifted, kept = lifted_and_stored_reports(f, TimeGrid(1e-3, 16.0, 19))
        assert_lifted_as_stored(lifted, kept)

    def test_components_are_the_extension_stacks(self, small2, tg16):
        f = bandlimited_random(small2, 2, 0.5, 2.0)
        F = caloric_lift(f, tg16)
        assert [c.values.dtype for c in F.components] == [complex] * small2.d + [float]
        assert F.components[0] is F.components[0]  # built once
        assert_same_bits([c.values for c in F.components],
                         [c.values for c in stored(f, tg16, "caloric").components])

    def test_record_kept_by_the_caloric_residual_only(self, small2, tg16):
        f = bandlimited_random(small2, 2, 0.5, 2.0)
        F, G = harmonic_lift(f, tg16), caloric_lift(f, tg16)
        sup_vector_amalgam_norm(G, (1, 1))
        harmonic_cr_residual(F)
        assert F._mag is None and G._mag is None
        caloric_cr_residual(G)
        want = np.sqrt(sum(np.abs(c.values) ** 2 for c in stored(f, tg16, "caloric").components))
        assert_same_bits(G._mag, want)

    def test_holds_block_spectra_and_one_real_stack(self, desk2, tg48):
        """The lift holds the half-lattice block (in a mapping of its own)
        and the d+1 spectra, no stack; the residual walk adds one real
        stack, |F| (mapped too), and keeps less than a component stack."""
        f = sample("gaussian:width=1", desk2)
        rs = [riesz(f, j) for j in (1, 2)]
        stack = tg48.count * desk2.size * 16  # one complex component stack
        tracemalloc.start()
        try:
            G = ConjugateField._lifted(desk2, [g.values for g in rs + [f]], tg48, "heat", "caloric")
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            caloric_cr_residual(G)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block, spectra, real = G._source
        assert real and block.dtype == float and block.shape == (tg48.count, 256, 129)
        assert [x.shape for x in spectra] == [(256, 256)] * 2 + [(256, 129)]
        assert G._stacks == [None] * 3
        assert held < sum(x.nbytes for x in spectra) + 2**16
        assert G._mag.dtype == float and G._mag.nbytes == stack // 2
        assert after - held < 2**16
        assert peak - held < stack

    def test_quadrature_builds_no_stack(self, desk2, tg48):
        """The quadrature residual of a lifted field reads its block and
        spectra, not its stacks: no component is built, and the walk keeps
        less than one component stack at its peak (W @ block, the window's
        rows of the block, is most of it)."""
        f = sample("gaussian:width=1", desk2)
        rs = [riesz(f, j) for j in (1, 2)]
        stack = tg48.count * desk2.size * 16  # one complex component stack
        tracemalloc.start()
        try:
            G = ConjugateField._lifted(desk2, [g.values for g in rs + [f]], tg48, "heat", "caloric")
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            caloric_cr_residual(G, "quadrature")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G._stacks == [None] * 3
        assert peak - held < stack

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_quadrature_on_the_desk_grid_within_oracle_pin(self, desk1, tg48, kind):
        f = bandlimited_random(desk1, 5, 0.4, 2.0)
        if kind == "complex":
            f = GridFunction(desk1, (1 + 0.5j) * f.values + 0.25j * np.roll(f.values, 3))
        F = caloric_lift(f, tg48)
        new = caloric_cr_residual(F, "quadrature").per_slice
        assert F._stacks == [None] * 2  # the lifted route
        assert_within_pin(new, caloric_cr_residual_direct(F, "quadrature"))
        G = stored(f, tg48, "caloric")  # one product a slice
        assert_within_pin(caloric_cr_residual(G, "quadrature").per_slice,
                          caloric_cr_residual_direct(G, "quadrature"))
