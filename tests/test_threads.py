"""Stack passes split across CPUs give the same bits as one part.

The grid is make_grid(2, 4, 128), whose complex slice is exactly
grid.SPLIT_BYTES, with an odd number of time slices.  The CPU count is
patched, so the split is exercised (with 2 and 3 parts) on any machine,
including a one-CPU affinity mask.
"""

import importlib
import inspect
import sys
import threading

import numpy as np
import pytest

from amalgam import crsys, extension, grid, hardy, norms
from amalgam.crsys import (
    ConjugateField,
    _parseval_norms,
    caloric_cr_residual,
    harmonic_cr_residual,
    sup_vector_amalgam_norm,
)
from amalgam.extension import TimeGrid, extend, kernel_block, nontangential_max
from amalgam.frozen import FrozenStore
from amalgam.grid import SPLIT_BYTES, _full, _run_parts, _slice_parts, apply_symbols, make_grid, sample
from amalgam.hardy import caloric_lift, harmonic_lift

from conftest import assert_lifted_as_stored, assert_same_bits, lifted_and_stored_reports

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
        monkeypatch.setattr(grid, "_run_parts", record)  # the walk's one call
        nontangential_max(stack)
        assert seen == [[range(0, 7, 3), range(1, 7, 3), range(2, 7, 3)]]

    def test_walk_chunks(self, monkeypatch):
        # rows slices in flight over all parts, none across a multiple of
        # align or across two stacks; rows None makes a part one chunk
        def chunks(n, rows, **kwargs):
            seen = []
            grid._walk(GATE, n, rows, lambda bufs, i0, i1: seen.append((i0, i1)), **kwargs)
            return sorted(seen)

        monkeypatch.setattr(grid, "_cpus", lambda: 1)
        assert chunks(7, 4) == [(0, 4), (4, 7)]
        monkeypatch.setattr(grid, "_cpus", lambda: 2)
        assert chunks(7, 4) == [(0, 2), (2, 3), (3, 5), (5, 7)]
        assert chunks(7, None) == [(0, 3), (3, 7)]
        assert chunks(17, 12, align=8) == [(i, i + 2) for i in range(0, 16, 2)] + [(16, 17)]
        assert chunks(5, 6, stacks=3) == [(0, 3), (3, 5), (5, 8), (8, 10), (10, 13), (13, 15)]
        monkeypatch.setattr(grid, "_cpus", lambda: 3)
        assert chunks(7, 1, strided=True) == [(i, i + 1) for i in range(7)]

    def test_walk_folds_in_slice_order(self, monkeypatch):
        monkeypatch.setattr(grid, "_cpus", lambda: 2)
        first = lambda bufs, i0, i1: [i0]
        assert grid._walk(GATE, 7, 4, first, lambda a, b: a + b) == [0, 2, 3, 5]

    def test_results_in_part_order(self, monkeypatch):
        monkeypatch.setattr(grid, "_cpus", lambda: 3)
        parts = _slice_parts(GATE, 7)
        assert _run_parts(lambda part: list(part), parts) == [list(p) for p in parts]

    def test_one_part_runs_on_the_calling_thread(self):
        assert _run_parts(lambda part: threading.current_thread(), [range(3)]) == [
            threading.current_thread()]

    def test_a_part_that_splits_again_runs_inline(self, monkeypatch):
        # a part on a pool thread that calls _run_parts runs its inner parts
        # there, in order, and never submits to the pool it runs on
        monkeypatch.setattr(grid, "_cpus", lambda: 2)
        _run_parts(lambda part: None, [range(1), range(1, 2)])  # the pool exists
        pool, submitted, ran = grid._POOL[0], [], []
        submit = pool.submit

        def checked(*args, **kwargs):
            submitted.append(threading.current_thread())
            return submit(*args, **kwargs)

        def inner(part):
            ran.append((list(part), threading.current_thread()))
            return list(part)

        def outer(part):
            return _run_parts(inner, [range(part.start, part.start + 1), range(part.start + 1, part.stop)])

        monkeypatch.setattr(pool, "submit", checked)
        assert _run_parts(outer, [range(0, 2), range(2, 4)]) == [[[0], [1]], [[2], [3]]]
        assert submitted and set(submitted) == {threading.current_thread()}
        worker = [t for p, t in ran if p == [2]]
        assert worker[0] is not threading.current_thread()
        assert [t for p, t in ran if p == [3]] == worker

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
        ts = TimeGrid(1e-3, 16.0, 41).values
        for kernel in ("heat", "poisson"):
            serial, splits = serial_and_split(monkeypatch, lambda: kernel_block(kernel, gate2, ts))
            assert not serial.flags.writeable
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
        serial, splits = serial_and_split(monkeypatch, lambda: [sup_vector_amalgam_norm(F, e) for e in es])
        for s in splits:
            assert_same_bits(serial, s)


class TestSweep:
    """The reference family's members split over the CPUs give the same
    values, and the same constants, as one walk of them all."""

    def test_equivalence_reports(self, monkeypatch, small1, tg16):
        family = [hardy.reference_family(small1)[i] for i in (1, 9, 13, 18)]
        run = lambda: [rep.to_jsonable() for rep in hardy.equivalence_reports(
            family, [(1.0, 1.0), (0.8, 2.5)], tg16)]
        serial, splits = serial_and_split(monkeypatch, run)
        for s in splits:
            assert s == serial

    def test_freeze_constants(self, monkeypatch, small1, tg16):
        run = lambda: hardy.freeze_constants(small1, tg16, FrozenStore())
        serial, splits = serial_and_split(monkeypatch, run)
        for s in splits:
            assert s == serial


class TestLiftedField:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_same_bits_as_stored(self, monkeypatch, f2, tg7, kind):
        # every walk over a lifted field builds its chunks on the parts'
        # threads; the reports match the stored field's and the serial run's
        f = f2 if kind == "real" else grid.GridFunction(GATE, (1 + 0.5j) * f2.values
                                                        + 0.25j * np.roll(f2.values, 3))
        serial, splits = serial_and_split(monkeypatch, lambda: lifted_and_stored_reports(f, tg7))
        for lifted, kept in [serial] + splits:
            assert_lifted_as_stored(lifted, kept)
        for s in splits:
            assert_same_bits(serial, s)


LAYERS = ("grid", "spectral", "norms", "kernels", "extension", "weyl", "crsys", "hardy", "frozen", "cli")


def test_public_functions_stay_on_the_calling_thread(monkeypatch, tmp_path, f2, tg7, small1, tg16):
    """Code on the worker threads calls no public function of the ten layer
    modules.  Each is wrapped, as a profiler's per-call hook would wrap it,
    and rebound in every amalgam module that imported it; a split d=2
    field pass (the benchmark's field-d2 operations on a two-part grid), an
    equivalence sweep with all six methods and a freeze, whose members are
    split, must call every wrapped function from the calling thread."""
    caller, off, calls, workers = threading.current_thread(), [], [], set()

    def hook(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            if threading.current_thread() is not caller:
                off.append(name)
            return fn(*args, **kwargs)
        return wrapper

    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"amalgam.{layer}")
        for name, fn in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrapped[fn] = hook(f"{layer}.{name}", fn)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "amalgam" or mod_name.startswith("amalgam."):
            for name, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrapped:
                    monkeypatch.setattr(mod, name, wrapped[fn])
    product = grid._product

    def seen(*args):
        workers.add(threading.current_thread())
        return product(*args)

    monkeypatch.setattr(grid, "_product", seen)
    monkeypatch.setattr(crsys, "_product", seen)
    monkeypatch.setattr(grid, "_cpus", lambda: 2)
    crsys.harmonic_cr_residual(hardy.harmonic_lift(f2, tg7))
    G = hardy.caloric_lift(f2, tg7)
    crsys.caloric_cr_residual(G, "spectral")
    crsys.sup_vector_amalgam_norm(G, (1.5, 1.5))
    crsys.majorization_report(G)
    crsys.caloric_cr_residual(G, "quadrature")
    stack = extension.extend(f2, "poisson", tg7)
    extension.nontangential_max(stack)
    extension.hl_maximal(f2, 1.0)
    extension.area_integral(f2, None, tg7)
    for window in ("ball", "discrete"):
        norms.amalgam_norm(f2, (1.5, 1.5), window)
    extension.write_stack(stack, tmp_path / "u.stack")
    extension.read_stack(tmp_path / "u.stack")
    assert caller in workers and len(workers) > 1  # the passes did split
    # the equivalence sweep and the freeze on d=1 grids, whose slices never
    # split: the pool threads run member walks
    workers.clear()
    family = [hardy.reference_family(small1)[i] for i in (1, 9, 13, 18)]
    hardy.equivalence_reports(family, [(1.0, 1.0), (2.0, 3.0)], tg16)
    hardy.freeze_constants(make_grid(1, 8, 256), TimeGrid(0.01, 8.0, 10), FrozenStore())
    assert caller in workers and len(workers) > 1
    assert len(set(calls)) > 20
    assert off == []
