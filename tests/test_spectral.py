import json

import numpy as np
import pytest

from amalgam.frozen import FrozenStore
from amalgam.grid import GridFunction, bandlimited_random, lp_norm, make_grid, sample
from amalgam.hardy import grid_run_id, reference_family
from amalgam.kernels import conjugate_poisson_kernel, poisson_kernel
from amalgam.norms import amalgam_norm
from amalgam.oracle import convolve_direct
from amalgam.spectral import (
    MultiplierFamily,
    SphereSymbol,
    apply_multiplier,
    convolve,
    rank2_check,
    read_symbol,
    riesz,
    riesz_compose,
    write_symbol,
)

from conftest import rel_l2


class TestApplyMultiplier:
    def test_identity_symbol(self, desk1):
        f = bandlimited_random(desk1, 3, 0.25, 4.0)
        one = SphereSymbol.constant(1.0, d=1, dc_value=1.0)
        g = apply_multiplier(f, one)
        assert np.max(np.abs(g.values - f.values)) <= 1e-12

    def test_hilbert_symbol_on_poisson(self, desk1):
        theta = SphereSymbol.from_pair(-1j, 1j)  # -i z on the two-point sphere
        got = apply_multiplier(poisson_kernel(desk1, 1.0), theta)
        want = conjugate_poisson_kernel(desk1, 1.0)
        assert rel_l2(got.values, want.values) <= 1e-3

    def test_plancherel_contraction(self, desk1):
        rng = np.random.default_rng(5)
        theta = SphereSymbol.from_pair(complex(rng.normal(), rng.normal()),
                                       complex(rng.normal(), rng.normal()))
        bound = max(abs(theta.plus), abs(theta.minus))
        for seed in range(5):
            f = bandlimited_random(desk1, seed, 0.25, 4.0)
            assert lp_norm(apply_multiplier(f, theta), 2) <= bound * lp_norm(f, 2) + 1e-12

    def test_multiplicativity(self, desk1):
        f = bandlimited_random(desk1, 8, 0.25, 4.0)
        t1 = SphereSymbol.from_pair(1.0 + 2j, -0.5j)
        t2 = SphereSymbol.from_pair(0.25, 3.0 - 1j)
        prod = SphereSymbol.from_pair(t1.plus * t2.plus, t1.minus * t2.minus)
        g1 = apply_multiplier(apply_multiplier(f, t1), t2)
        g2 = apply_multiplier(f, prod)
        assert np.max(np.abs(g1.values - g2.values)) <= 1e-12 * max(1.0, np.max(np.abs(g2.values)))

    def test_linearity(self, desk1):
        f = bandlimited_random(desk1, 1, 0.25, 4.0)
        g = bandlimited_random(desk1, 2, 0.25, 4.0)
        theta = SphereSymbol.from_pair(2.0, -1j)
        lhs = apply_multiplier(GridFunction(desk1, 2.0 * f.values + 1j * g.values), theta)
        rhs = 2.0 * apply_multiplier(f, theta)
        rhs = GridFunction(desk1, rhs.values + 1j * apply_multiplier(g, theta).values)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12

    def test_dimension_mismatch(self, desk1):
        f = sample("gaussian", desk1)
        with pytest.raises(ValueError, match="dimension"):
            apply_multiplier(f, SphereSymbol.riesz_axis(1, 2))


class TestRiesz:
    def test_involution_up_to_sign(self, desk1):
        f = bandlimited_random(desk1, 4, 0.25, 4.0)  # mean-zero by construction
        rr = riesz(riesz(f, 1), 1)
        assert np.max(np.abs(rr.values + f.values)) <= 1e-10

    def test_riesz_of_heat_matches_caloric_kernel(self, desk1):
        from amalgam.kernels import caloric_conjugate_kernel, heat_kernel

        got = riesz(heat_kernel(desk1, 1.0), 1)
        assert lp_norm(got - caloric_conjugate_kernel(desk1, 1.0), 2) <= 1e-10

    def test_real_input_real_output(self, desk1):
        f = bandlimited_random(desk1, 6, 0.25, 4.0)
        g = riesz(f, 1)
        assert np.max(np.abs(g.values.imag)) <= 1e-12

    def test_axis_out_of_range(self, desk1):
        with pytest.raises(ValueError):
            riesz(sample("gaussian", desk1), 2)


class TestRieszCompose:
    def test_two_dim_laplacian_identity(self, desk2):
        f = bandlimited_random(desk2, 11, 0.5, 3.0)
        s = riesz_compose(f, [1, 1]).values + riesz_compose(f, [2, 2]).values
        assert np.max(np.abs(s + f.values)) <= 1e-10

    def test_order_invariance(self, desk2):
        f = bandlimited_random(desk2, 12, 0.5, 3.0)
        a = riesz_compose(f, [1, 2])
        b = riesz_compose(f, [2, 1])
        assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_single_index_reduces(self, desk2):
        f = bandlimited_random(desk2, 13, 0.5, 3.0)
        assert np.max(np.abs(riesz_compose(f, [2]).values - riesz(f, 2).values)) <= 1e-12

    def test_empty_composition_rejected(self, desk1):
        with pytest.raises(ValueError, match="empty"):
            riesz_compose(sample("gaussian", desk1), [])

    def test_order_cap(self, desk1):
        f = sample("gaussian", desk1)
        assert np.all(np.isfinite(riesz_compose(f, [1, 1, 1]).values))
        with pytest.raises(ValueError, match="MAX_COMPOSITION_ORDER=3"):
            riesz_compose(f, [1, 1, 1, 1])


class TestConvolve:
    def test_heat_semigroup(self, desk1):
        from amalgam.kernels import heat_kernel

        got = convolve(heat_kernel(desk1, 0.25), heat_kernel(desk1, 0.25))
        assert rel_l2(got.values, heat_kernel(desk1, 0.5).values) <= 1e-8

    def test_delta_cell_identity(self, small1):
        g = sample("gaussian:width=2", small1)
        v = np.zeros(small1.shape)
        v[small1.index_of(0.0)] = 1.0 / small1.h
        delta = GridFunction(small1, v)
        assert np.max(np.abs(convolve(delta, g).values - g.values)) <= 1e-12

    def test_matches_direct_oracle(self):
        spec = make_grid(1, 4, 128)
        f = bandlimited_random(spec, 5, 0.5, 4.0)
        g = sample("gaussian:width=0.5", spec)
        got = convolve(f, g)
        want = convolve_direct(f, g)
        assert np.max(np.abs(got.values - want.values)) <= 1e-10

    def test_spec_mismatch(self, desk1, small1):
        with pytest.raises(ValueError, match="mismatch"):
            convolve(sample("gaussian", desk1), sample("gaussian", small1))


class TestSphereSymbol2d:
    def test_interpolant_reproduces_samples(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        s = SphereSymbol.from_samples(vals)
        phi = 2 * np.pi * np.arange(64) / 64
        np.testing.assert_allclose(s.at_angles(phi), vals, atol=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="64"):
            SphereSymbol.from_samples(np.ones(32))

    def test_riesz_axis_matches_exact_multiplier(self, desk2):
        f = bandlimited_random(desk2, 5, 0.5, 3.0)
        got = apply_multiplier(f, SphereSymbol.riesz_axis(2, 2))
        want = riesz(f, 2)
        assert np.max(np.abs(got.values - want.values)) <= 1e-8

    def test_trig_constructor(self):
        s = SphereSymbol.from_function(lambda phi: np.exp(1j * phi))
        phi = np.linspace(0, 2 * np.pi, 7)[:-1]
        np.testing.assert_allclose(s.at_angles(phi), np.exp(1j * phi), atol=1e-9)


class TestRank2Check:
    def test_identity_sign_family(self):
        fam = MultiplierFamily((SphereSymbol.constant(1.0, 1), SphereSymbol.sign()))
        r = rank2_check(fam)
        assert r.ok
        assert r.min_sigma2 == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_single_symbol_rejected(self):
        r = rank2_check(MultiplierFamily((SphereSymbol.constant(1.0, 1),)))
        assert not r.ok and "size" in r.reason

    def test_duplicate_columns_rejected(self):
        z = SphereSymbol.riesz_axis(1, 1)
        r = rank2_check(MultiplierFamily((z, z)))
        assert not r.ok
        assert r.min_sigma2 <= 1e-12

    def test_2d_families(self):
        # identity plus both Riesz directions has rank 2 everywhere ...
        full = MultiplierFamily((
            SphereSymbol.constant(1.0, 2),
            SphereSymbol.riesz_axis(1, 2),
            SphereSymbol.riesz_axis(2, 2),
        ))
        assert rank2_check(full).ok
        # ... but dropping one direction loses rank at its zero meridian
        partial = MultiplierFamily((
            SphereSymbol.constant(1.0, 2),
            SphereSymbol.riesz_axis(1, 2),
        ))
        assert not rank2_check(partial).ok

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            MultiplierFamily(())


class TestSymbolFiles:
    def test_roundtrip_1d(self, tmp_path):
        s = SphereSymbol.from_pair(1.5 - 2j, 0.25j, dc_value=1.0)
        path = tmp_path / "sym1.json"
        write_symbol(s, path)
        t = read_symbol(path)
        assert t.plus == s.plus and t.minus == s.minus and t.dc_value == s.dc_value

    def test_roundtrip_2d(self, tmp_path):
        s = SphereSymbol.from_function(lambda phi: np.cos(phi) + 1j * np.sin(2 * phi))
        path = tmp_path / "sym2.json"
        write_symbol(s, path)
        t = read_symbol(path)
        np.testing.assert_allclose(t.angle_samples, s.angle_samples, atol=1e-15)

    @pytest.mark.parametrize("change, message", [
        (lambda doc: {**doc, "d": 3}, "dimension must be 1 or 2, got 3"),
        (lambda doc: {**doc, "d": 2.0}, "dimension must be 1 or 2, got 2.0"),
        (lambda doc: {"d": True, "plus": [1, 0], "minus": [1, 0]}, "dimension must be 1 or 2"),
        # samples on the half circle would be read as the whole circle
        (lambda doc: {**doc, "samples": [[a / 2, re, im] for a, re, im in doc["samples"]]},
         "angle column is not 2 pi m / M for the 128 samples"),
        (lambda doc: {**doc, "samples": [[re, im] for _, re, im in doc["samples"]]},
         r"not \(angle, re, im\) triples"),
        (lambda doc: {**doc, "samples": []}, r"not \(angle, re, im\) triples"),
    ], ids=["d3", "d-float", "d-bool", "half-circle-angles", "pairs", "empty"])
    def test_malformed_file_refused(self, tmp_path, change, message):
        path = tmp_path / "sym.json"
        write_symbol(SphereSymbol.from_function(np.cos), path)
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=message):
            read_symbol(path)


class TestAmalgamBoundednessRegression:
    def test_riesz_ratio_within_frozen(self, desk1, tg48):
        store = FrozenStore.load()
        gid = grid_run_id(desk1, tg48)
        members = reference_family(desk1)
        for (p, q) in ((1.5, 1.5), (2.0, 3.0), (3.0, 1.5)):
            frozen = store.get("riesz-bound-d1", "ratio_max", p, q, gid)
            rmax = 0.0
            for _, f in members:
                denom = amalgam_norm(f, (p, q))
                if denom > 0:
                    rmax = max(rmax, amalgam_norm(riesz(f, 1), (p, q)) / denom)
            assert rmax <= frozen * 1.1
