import json
import sys
import tracemalloc

import numpy as np
import pytest

from amalgam import grid
from amalgam.crsys import sup_vector_amalgam_norm
from amalgam.extension import BLOCK_BYTES, TimeGrid, extend, nontangential_max
from amalgam.frozen import FrozenStore, GridMismatchError
from amalgam.grid import GridFunction, bandlimited_random, sample
from amalgam.hardy import (
    AtomSpec,
    caloric_lift,
    default_multiplier_family,
    equivalence_report,
    equivalence_reports,
    freeze_constants,
    hardy_norm_maximal,
    hardy_quantity_multiplier,
    hardy_quantity_riesz,
    harmonic_lift,
    make_atom,
    reference_family,
)
from amalgam.kernels import caloric_conjugate_kernel
from amalgam.norms import amalgam_norm
from amalgam.spectral import convolve, riesz

from conftest import rel_l2


class TestAtoms:
    def test_haar_pattern_is_an_atom(self, desk1):
        # +1 on [0,1/2), -1 on [1/2,1): support, mean zero, sup bound 1
        a = sample("haar:corner=0,side=1", desk1)
        x = desk1.axis_nodes()
        assert np.all(a.values.real[(x < 0) | (x >= 1)] == 0)
        assert abs(np.sum(a.values) * desk1.h) <= 1e-12
        assert np.max(np.abs(a.values)) == 1.0
        assert amalgam_norm(sample("indicator:lo=0,hi=1", desk1), (1, 1)) == pytest.approx(1.0)

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("side", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_moments_vanish(self, desk1, m, side):
        a = make_atom(AtomSpec((0.0,), side, m, 1.0, 1.0), desk1)
        x = desk1.axis_nodes()
        for alpha in range(m + 1):
            assert abs(desk1.h * np.sum(a.values * x**alpha)) <= 1e-12

    def test_support_and_sup_bound(self, desk1):
        a = make_atom(AtomSpec((0.0,), 2.0, 1, 1.0, 1.0), desk1)
        x = desk1.axis_nodes()
        assert np.all(a.values.real[(x < 0) | (x >= 2)] == 0)
        cube = sample("indicator:lo=0,hi=2", desk1)
        want = 1.0 / amalgam_norm(cube, (1, 1))
        assert np.max(np.abs(a.values)) == pytest.approx(want, rel=1e-12)

    def test_2d_atom(self, desk2):
        a = make_atom(AtomSpec((0.0, 0.0), 1.0, 1, 1.0, 1.0), desk2)
        x1, x2 = desk2.nodes()
        for a1 in range(2):
            for a2 in range(2):
                mom = desk2.h**2 * np.sum(a.values * x1**a1 * x2**a2)
                assert abs(mom) <= 1e-12

    def test_misaligned_corner_rejected(self, desk1):
        with pytest.raises(ValueError, match="aligned"):
            make_atom(AtomSpec((1 / 3,), 1.0, 0, 1.0, 1.0), desk1)

    def test_cube_must_stay_in_box(self, desk1):
        with pytest.raises(ValueError, match="box"):
            make_atom(AtomSpec((31.0,), 4.0, 0, 1.0, 1.0), desk1)

    def test_side_catalog(self, desk1):
        with pytest.raises(ValueError, match="side"):
            AtomSpec((0.0,), 3.0, 0, 1.0, 1.0)


class TestQuantities:
    def test_zero_function(self, desk1, tg48):
        z = GridFunction(desk1, np.zeros(desk1.shape))
        assert hardy_norm_maximal(z, (1, 1), tg48) == 0.0

    def test_homogeneity(self, desk1, tg48):
        f = bandlimited_random(desk1, 7, 0.25, 2.0)
        for quantity in (
            lambda g: hardy_norm_maximal(g, (1, 1), tg48),
            lambda g: hardy_quantity_riesz(g, (1, 1), tg48).value,
            lambda g: hardy_quantity_multiplier(g, default_multiplier_family(1), (1, 1)).value,
        ):
            assert quantity(3.0 * f) == pytest.approx(3.0 * quantity(f), rel=1e-12)

    def test_positive_on_nonzero(self, desk1, tg48):
        f = bandlimited_random(desk1, 8, 0.25, 2.0)
        assert hardy_norm_maximal(f, (1, 1), tg48) > 0
        assert hardy_quantity_riesz(f, (1, 1), tg48).value > 0
        assert hardy_quantity_multiplier(f, default_multiplier_family(1), (1, 1)).value > 0

    def test_riesz_quantity_dominates_mollified_norm(self, desk1, tg48):
        f = bandlimited_random(desk1, 9, 0.25, 2.0)
        r = hardy_quantity_riesz(f, (1, 1), tg48, order=1)
        sup_term = max(
            amalgam_norm(convolve_with_heat(f, float(t)), (1, 1)) for t in tg48.values
        )
        assert r.value >= sup_term - 1e-12

    def test_riesz_order_monotone(self, desk1, tg48):
        f = bandlimited_random(desk1, 10, 0.25, 2.0)
        v1 = hardy_quantity_riesz(f, (1, 1), tg48, order=1).value
        v2 = hardy_quantity_riesz(f, (1, 1), tg48, order=2).value
        assert v2 >= v1

    def test_riesz_threshold_flag(self, desk2, tg16):
        f = bandlimited_random(desk2, 2, 0.5, 2.0)
        r = hardy_quantity_riesz(f, (0.4, 2.0), tg16, order=1)
        assert not r.threshold_ok  # (d-1)/d = 1/2 in d=2
        assert r.value > 0  # computed anyway, with the flag raised

    def test_multiplier_semantics(self, desk1, tg48):
        f = bandlimited_random(desk1, 11, 0.25, 2.0)
        fam = default_multiplier_family(1)
        got = hardy_quantity_multiplier(f, fam, (1, 1)).value
        want = amalgam_norm(f, (1, 1)) + amalgam_norm(riesz(f, 1), (1, 1))
        # theta = {1, sign}: identity plus Hilbert transform, sign() = i*(-i sgn)
        assert got == pytest.approx(want, rel=1e-10)

    def test_duplicated_family_doubles(self, desk1):
        from amalgam.spectral import MultiplierFamily, SphereSymbol

        f = bandlimited_random(desk1, 12, 0.25, 2.0)
        one = SphereSymbol.constant(1.0, 1)
        sgn = SphereSymbol.sign()
        single = hardy_quantity_multiplier(f, MultiplierFamily((one, sgn)), (1, 1)).value
        double = hardy_quantity_multiplier(f, MultiplierFamily((one, sgn, one, sgn)), (1, 1)).value
        assert double == pytest.approx(2.0 * single, rel=1e-12)


def convolve_with_heat(f, t):
    from amalgam.oracle import SpectralFunction, forward, inverse

    sym = np.exp(-4 * np.pi**2 * t**2 * f.spec.freq_norm() ** 2)
    return inverse(SpectralFunction(f.spec, sym * forward(f).coeffs))


class TestLifts:
    def test_harmonic_last_component_is_poisson_extension(self, desk1, tg48):
        f = bandlimited_random(desk1, 1, 0.25, 2.0)
        F = harmonic_lift(f, tg48)
        want = extend(f, "poisson", tg48)
        np.testing.assert_array_equal(F.components[-1].values, want.values)

    def test_harmonic_first_component_is_hilbert_extension(self, desk1, tg48):
        f = bandlimited_random(desk1, 2, 0.25, 2.0)
        F = harmonic_lift(f, tg48)
        want = extend(riesz(f, 1), "poisson", tg48)
        assert np.max(np.abs(F.components[0].values - want.values)) <= 1e-12

    def test_caloric_components_are_kernel_convolutions(self, desk1, tg48):
        f = bandlimited_random(desk1, 3, 0.25, 2.0)
        G = caloric_lift(f, tg48)
        for i in (0, 12, 24):
            t = float(tg48.values[i])
            want = convolve(f, caloric_conjugate_kernel(desk1, t, 1))
            got = G.components[0].slice(i)
            assert np.max(np.abs(got.values - want.values)) <= 1e-12

    def test_caloric_boundary_recovery(self, desk1, tg48):
        f = bandlimited_random(desk1, 4, 1 / 16, 1 / 8)
        G = caloric_lift(f, tg48)
        assert rel_l2(G.components[-1].slice(0).values, f.values) <= 1e-3

    @pytest.mark.parametrize("lift,kernel", [(harmonic_lift, "poisson"), (caloric_lift, "heat")],
                             ids=["harmonic", "caloric"])
    def test_d2_components_are_extensions(self, desk2, tg16, lift, kernel):
        # one kernel block for all d+1 passes (f's on the half lattice, the
        # R_j f passes on its full-lattice copy), the same bits as extending
        # each component on its own
        assert tg16.count * desk2.size * 8 > BLOCK_BYTES
        f = bandlimited_random(desk2, 5, 0.25, 2.0)
        F = lift(f, tg16)
        for g, comp in zip((riesz(f, 1), riesz(f, 2), f), F.components):
            np.testing.assert_array_equal(comp.values, extend(g, kernel, tg16).values)


class TestLiftMemory:
    """A lift builds its kernel block once and the last pass consumes it: the
    peak allocation stays below d+1 component stacks plus one."""

    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("lift", [harmonic_lift, caloric_lift], ids=["harmonic", "caloric"])
    def test_desk2_peak(self, desk2, tg48, lift):
        f = sample("gaussian:width=1", desk2)
        peak, F = self.peak_bytes(lift, f, tg48)
        assert peak < (desk2.d + 2) * F.components[0].values.nbytes

    @pytest.mark.parametrize("lift", [harmonic_lift, caloric_lift], ids=["harmonic", "caloric"])
    def test_desk2_real_input_holds_no_block(self, desk2, tg48, lift):
        # a real f gives a real f stack, and past f's pass the lift holds its
        # d+1 stacks and no separate symbol block (a half-lattice one is a
        # quarter of a complex stack)
        f = sample("gaussian:width=1", desk2)
        peak, F = self.peak_bytes(lift, f, tg48)
        assert [c.values.dtype for c in F.components] == [complex] * desk2.d + [float]
        stacks = sum(c.values.nbytes for c in F.components)
        assert peak < stacks + F.components[0].values.nbytes / 4


class TestReferenceFamily:
    def test_size_and_mean_zero(self, desk1):
        members = reference_family(desk1)
        assert len(members) == 20
        for name, f in members:
            mean = abs(np.sum(f.values)) * desk1.h
            assert mean <= 1e-10, name

    def test_members_stay_real(self, desk1):
        # removing the mean keeps a real member real
        assert all(f.values.dtype == float for _, f in reference_family(desk1))

    def test_deterministic(self, desk1):
        a = reference_family(desk1)
        b = reference_family(desk1)
        for (_, f), (_, g) in zip(a, b):
            np.testing.assert_array_equal(f.values, g.values)

    def test_d2_rejected(self, desk2):
        with pytest.raises(ValueError):
            reference_family(desk2)


class TestEquivalenceReport:
    def test_single_member_two_methods(self, desk1, tg48):
        members = reference_family(desk1)[:1]
        rep = equivalence_report(members, (1, 1), tg48, methods=("maximal", "riesz1"))
        info = rep.pairs["maximal/riesz1"]
        assert info["spread"] == pytest.approx(1.0)
        assert info["min"] == pytest.approx(info["max"])

    def test_frozen_comparison(self, desk1, tg48):
        store = FrozenStore.load()
        members = reference_family(desk1)
        rep = equivalence_report(members, (1, 1), tg48,
                                 methods=("maximal", "riesz1"), store=store)
        info = rep.pairs["maximal/riesz1"]
        assert info["frozen"] is not None
        assert info["ok"] is True
        assert rep.ok

    def test_grid_mismatch_refused(self, desk1):
        store = FrozenStore.load()
        tg_other = TimeGrid(1e-3, 32.0, 24)
        members = reference_family(desk1)[:2]
        with pytest.raises(GridMismatchError):
            equivalence_report(members, (1, 1), tg_other,
                               methods=("maximal", "riesz1"), store=store)

    def test_empty_family_rejected(self, desk1, tg48):
        with pytest.raises(ValueError, match="empty"):
            equivalence_report([], (1, 1), tg48)

    def test_report_serializes(self, desk1, tg48):
        members = reference_family(desk1)[:2]
        doc = equivalence_report(members, (1, 1), tg48,
                                 methods=("maximal", "multiplier")).to_jsonable()
        assert doc["family"] == "reference-d1"
        assert "maximal/multiplier" in doc["pairs"]

    def test_zero_member_excluded_from_ratios(self, desk1, tg48):
        members = reference_family(desk1)[:2]
        zero = GridFunction(desk1, np.zeros(desk1.shape))
        rep = equivalence_report(members + [("zero", zero)], (1, 1), tg48,
                                 methods=("maximal", "riesz1"))
        info = rep.pairs["maximal/riesz1"]
        # the zero member contributes no ratio and raises no flag
        assert np.isfinite(info["spread"])
        assert rep.excluded == []
        assert rep.values["maximal"]["zero"] == 0.0


    def test_pair_without_ratios_is_null(self, small1, tg16):
        # the multiplier quantity of a constant is 0, so the pair has no ratio
        const = GridFunction(small1, np.ones(small1.shape))
        rep = equivalence_report([("const", const)], (1, 1), tg16,
                                 methods=("maximal", "multiplier"))
        info = rep.pairs["maximal/multiplier"]
        assert info["spread"] is None and info["min"] is None and info["max"] is None
        assert info["ok"] is False and len(rep.excluded) == 1
        doc = json.loads(json.dumps(rep.to_jsonable(), allow_nan=False))
        assert doc["pairs"]["maximal/multiplier"]["spread"] is None


class TestEquivalenceSweep:
    PQS = ((1.0, 1.0), (0.8, 2.5))

    @pytest.fixture(scope="class")
    def family(self, small1):
        # a gaussian, an atom, a band-limited draw and a conjugate-kernel difference
        members = reference_family(small1)
        return [members[i] for i in (1, 9, 13, 18)]

    def test_sweep_equals_one_report_per_pair(self, family, tg16):
        reps = equivalence_reports(family, self.PQS, tg16)
        assert len(reps) == len(self.PQS)
        for rep, pq in zip(reps, self.PQS):
            assert (rep.p, rep.q) == pq
            assert rep == equivalence_report(family, pq, tg16)

    def test_swept_values_equal_the_per_method_functions(self, family, tg16):
        theta = default_multiplier_family(1)
        for rep, pq in zip(equivalence_reports(family, self.PQS, tg16), self.PQS):
            for name, f in family:
                want = {
                    "maximal": hardy_norm_maximal(f, pq, tg16),
                    "riesz1": hardy_quantity_riesz(f, pq, tg16, order=1).value,
                    "riesz2": hardy_quantity_riesz(f, pq, tg16, order=2).value,
                    "multiplier": hardy_quantity_multiplier(f, theta, pq).value,
                    "nontangential": amalgam_norm(nontangential_max(extend(f, "poisson", tg16)), pq),
                    "caloric_sup": sup_vector_amalgam_norm(caloric_lift(f, tg16), pq),
                }
                assert {m: rep.values[m][name] for m in want} == want

    @pytest.mark.parametrize("methods", [("riesz2", "maximal"), ("maximal",), ("caloric_sup", "riesz1")])
    def test_method_subsets_read_the_same_values(self, family, tg16, methods):
        full = equivalence_reports(family, self.PQS, tg16)
        for rep, whole in zip(equivalence_reports(family, self.PQS, tg16, methods=methods), full):
            assert rep.values == {m: whole.values[m] for m in methods}

    def test_unknown_method_rejected(self, family, tg16):
        with pytest.raises(ValueError, match="unknown method 'sorcery'"):
            equivalence_reports(family, self.PQS, tg16, methods=("maximal", "sorcery"))


class TestFreezePasses:
    def test_reference_freeze_batched_pass_count(self, desk1, tg48, monkeypatch):
        real = grid.apply_symbols
        batched = []

        def counting(spec, values, symbols):
            batched.append(max(np.ndim(values), np.ndim(symbols)) > spec.d)
            return real(spec, values, symbols)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("amalgam") and \
                    getattr(mod, "apply_symbols", None) is real:
                monkeypatch.setattr(mod, "apply_symbols", counting)
        freeze_constants(desk1, tg48, FrozenStore())
        # per member of the 20: the mollified block and its two Riesz
        # compositions, the Poisson stack and the two caloric heat stacks,
        # which also feed the sup decay and Riesz-bound constants; one more
        # per probe atom
        assert sum(batched) <= 20 * 6 + 10


class TestFrozenStorePut:
    @pytest.mark.parametrize("value", [None, float("nan"), float("inf")])
    def test_nonfinite_constant_refused(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            FrozenStore().put("reference-d1", "maximal/multiplier", 1.0, 1.0, "g", value)


class TestHarmonicExtensionChain:
    def test_nontangential_leg_at_p_above_q(self, desk1, tg48):
        # the maximal <-> nontangential comparison also holds at (1.2, 0.9);
        # only that leg is asserted there
        store = FrozenStore.load()
        members = reference_family(desk1)
        rep = equivalence_report(members, (1.2, 0.9), tg48,
                                 methods=("maximal", "nontangential"), store=store)
        assert rep.pairs["maximal/nontangential"]["ok"] is True
