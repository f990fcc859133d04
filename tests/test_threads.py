"""Stack passes split across CPUs give the same bits as one part.

The grid is make_grid(2, 4, 128), whose complex slice is exactly
grid.SPLIT_BYTES, with an odd number of time slices.  The CPU count is
patched, so the split is exercised (with 2 and 3 parts) on any machine,
including a one-CPU affinity mask.
"""

import threading

import numpy as np
import pytest

from amalgam import extension, grid
from amalgam.crsys import (
    ConjugateField,
    _parseval_norms,
    caloric_cr_residual,
    harmonic_cr_residual,
    sup_vector_amalgam_norms,
)
from amalgam.extension import TimeGrid, extend, kernel_block, nontangential_max
from amalgam.grid import SPLIT_BYTES, _full, _run_parts, _slice_parts, apply_symbols, make_grid, sample
from amalgam.hardy import caloric_lift, harmonic_lift

SPLITS = (2, 3)
GATE = make_grid(2, 4, 128)


@pytest.fixture(scope="module")
def gate2():
    assert GATE.size * 16 == SPLIT_BYTES
    return GATE


@pytest.fixture(scope="module")
def tg7():
    # the last slices' cones cover the whole box (the global-max branch)
    return TimeGrid(1e-3, 16.0, 7)


@pytest.fixture(scope="module")
def f2(gate2):
    return grid.bandlimited_random(gate2, 5, 0.25, 2.0)


def serial_and_split(monkeypatch, fn):
    """fn() on one part, then on each split, restoring the CPU count."""
    with monkeypatch.context() as m:
        m.setattr(grid, "_cpus", lambda: 1)
        serial = fn()
    splits = []
    for k in SPLITS:
        with monkeypatch.context() as m:
            m.setattr(grid, "_cpus", lambda k=k: k)
            assert len(_slice_parts(GATE, 7)) == k
            splits.append(fn())
    return serial, splits


def assert_same_bits(a, b):
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same_bits(a[key], b[key])
        return
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestParts:
    def test_below_gate_is_one_part(self, monkeypatch):
        monkeypatch.setattr(grid, "_cpus", lambda: 4)
        assert _slice_parts(make_grid(2, 4, 64), 48) == [range(48)]

    def test_one_cpu_is_one_part(self, monkeypatch):
        monkeypatch.setattr(grid, "_cpus", lambda: 1)
        assert _slice_parts(make_grid(2, 8, 256), 48) == [range(48)]

    def test_contiguous_parts_are_aligned(self, monkeypatch):
        monkeypatch.setattr(grid, "_cpus", lambda: 2)
        assert _slice_parts(GATE, 7) == [range(0, 3), range(3, 7)]
        assert _slice_parts(GATE, 17, align=8) == [range(0, 8), range(8, 17)]
        assert _slice_parts(GATE, 5, align=8) == [range(5)]
        assert _slice_parts(GATE, 0) == [range(0)]

    def test_nontangential_parts_interleave_every_slice_once(self, monkeypatch, f2, tg7):
        # late slices only take a global max, so they are dealt out in turn
        stack = extend(f2, "poisson", tg7)
        seen = []

        def record(fn, parts):
            seen.append(parts)
            return _run_parts(fn, parts)

        monkeypatch.setattr(grid, "_cpus", lambda: 3)
        monkeypatch.setattr(extension, "_run_parts", record)
        nontangential_max(stack)
        assert seen == [[range(0, 7, 3), range(1, 7, 3), range(2, 7, 3)]]

    def test_results_in_part_order(self, monkeypatch):
        monkeypatch.setattr(grid, "_cpus", lambda: 3)
        parts = _slice_parts(GATE, 7)
        assert _run_parts(lambda part: list(part), parts) == [list(p) for p in parts]

    def test_one_part_runs_on_the_calling_thread(self):
        assert _run_parts(lambda part: threading.current_thread(), [range(3)]) == [
            threading.current_thread()]

    def test_worker_error_propagates(self, monkeypatch):
        monkeypatch.setattr(grid, "_cpus", lambda: 2)

        def fail_late(part):
            if part.start:
                raise ValueError("late part")

        with pytest.raises(ValueError, match="late part"):
            _run_parts(fail_late, _slice_parts(GATE, 7))


class TestApplySymbols:
    def test_batched_values(self, monkeypatch, gate2, f2, tg7):
        stack = extend(f2, "heat", tg7).values
        sym = 2j * np.pi * gate2.freqs()[0]
        serial, splits = serial_and_split(monkeypatch, lambda: apply_symbols(gate2, stack, sym))
        for s in splits:
            assert_same_bits(serial, s)

    def test_batched_real_values(self, monkeypatch, gate2, f2, tg7):
        stack = np.ascontiguousarray(extend(f2, "heat", tg7).values.real)
        sym = gate2.freq_norm()
        serial, splits = serial_and_split(monkeypatch, lambda: apply_symbols(gate2, stack, sym))
        for s in splits:
            assert_same_bits(serial, s)

    def test_writable_symbols_are_consumed(self, monkeypatch, gate2, f2, tg7):
        block = _full(gate2, kernel_block("heat", gate2, tg7.values))

        def run():
            sym = block.copy()
            out = apply_symbols(gate2, f2.values, sym)
            assert out is sym
            return out

        serial, splits = serial_and_split(monkeypatch, run)
        for s in splits:
            assert_same_bits(serial, s)

    def test_read_only_symbols_are_kept(self, monkeypatch, gate2, f2, tg7):
        block = kernel_block("poisson", gate2, tg7.values)
        assert not block.flags.writeable
        before = block.copy()
        serial, splits = serial_and_split(monkeypatch, lambda: apply_symbols(gate2, f2.values, block))
        for s in splits:
            assert_same_bits(serial, s)
        assert_same_bits(block, before)

    # inf * 0 warns under numpy's default error state before the check raises
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_in_a_late_part_raises(self, monkeypatch, gate2, f2, tg7):
        monkeypatch.setattr(grid, "_cpus", lambda: 2)
        sym = _full(gate2, kernel_block("heat", gate2, tg7.values))
        sym[-1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            apply_symbols(gate2, f2.values, sym)

    def test_workers_keep_the_callers_error_state(self, monkeypatch, gate2, f2, tg7):
        monkeypatch.setattr(grid, "_cpus", lambda: 2)
        sym = _full(gate2, kernel_block("heat", gate2, tg7.values))
        sym[-1, 0, 0] = np.inf
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            apply_symbols(gate2, f2.values, sym)


class TestExtension:
    def test_kernel_block(self, monkeypatch, gate2):
        # 41 half-lattice slices: above extension.BLOCK_BYTES, so built fresh, not cached
        ts = TimeGrid(1e-3, 16.0, 41).values
        for kernel in ("heat", "poisson"):
            serial, splits = serial_and_split(monkeypatch, lambda: kernel_block(kernel, gate2, ts))
            assert serial.flags.writeable
            for s in splits:
                assert_same_bits(serial, s)

    def test_nontangential_max(self, monkeypatch, f2, tg7):
        stack = extend(f2, "poisson", tg7)
        serial, splits = serial_and_split(monkeypatch, lambda: nontangential_max(stack).values)
        for s in splits:
            assert_same_bits(serial, s)


class TestResiduals:
    def test_parseval_norms_independent_of_chunk_height(self, gate2, f2, tg7):
        coeffs = np.fft.fftn(extend(f2, "heat", tg7).values, axes=(1, 2))
        block = _parseval_norms(coeffs, gate2)
        for i in range(len(coeffs)):
            assert_same_bits(block[i:i + 1], _parseval_norms(coeffs[i:i + 1], gate2))
        assert_same_bits(block[4:7], _parseval_norms(coeffs[4:7], gate2))

    def test_harmonic(self, monkeypatch, f2, tg7):
        F = harmonic_lift(f2, tg7)
        serial, splits = serial_and_split(monkeypatch, lambda: harmonic_cr_residual(F).per_slice)
        for s in splits:
            assert_same_bits(serial, s)

    def test_harmonic_custom_kernel(self, monkeypatch, f2, tg7):
        # centered time differences read neighbour slices across part boundaries
        F = harmonic_lift(f2, tg7)
        F = ConjugateField(tuple(c.map_values(lambda v: v, kernel="custom") for c in F.components),
                           "harmonic")
        serial, splits = serial_and_split(monkeypatch, lambda: harmonic_cr_residual(F).per_slice)
        for s in splits:
            assert_same_bits(serial, s)

    def test_caloric_spectral(self, monkeypatch, f2, tg7):
        F = caloric_lift(f2, tg7)
        serial, splits = serial_and_split(monkeypatch, lambda: caloric_cr_residual(F).per_slice)
        for s in splits:
            assert_same_bits(serial, s)

    def test_caloric_quadrature(self, monkeypatch, gate2):
        # 17 slices, 15 in the window: parts split at slice 8, a QUAD_ROWS boundary
        f = sample("gaussian:width=0.7", gate2)
        F = caloric_lift(f, TimeGrid(1e-3, 16.0, 17))
        serial, splits = serial_and_split(
            monkeypatch, lambda: caloric_cr_residual(F, "quadrature").per_slice)
        assert len(serial["a_res"]) > 8
        for s in splits:
            assert_same_bits(serial, s)

    def test_sup_vector_amalgam_norms(self, monkeypatch, f2, tg7):
        F = caloric_lift(f2, tg7)
        es = [(1.5, 1.5), (1.0, 2.0), (3.0, 1.2)]
        serial, splits = serial_and_split(monkeypatch, lambda: sup_vector_amalgam_norms(F, es))
        for s in splits:
            assert_same_bits(serial, s)
