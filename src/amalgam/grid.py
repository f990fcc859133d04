"""Periodic sampling grids, analytic-family sampling and the multiplier pass.

Everything downstream lives on the periodic box [-L, L)^d with n samples per
axis and spacing h = 2L/n, nodes at cell left edges x_k = -L + k*h.  The
divisibility constraint n % (2L) == 0 makes every unit cube anchored at an
integer lattice point a whole number of cells, which the discrete amalgam
norm relies on.

Fourier convention: the forward transform approximates

    F(xi) = integral f(x) exp(-2 pi i x.xi) dx

on the frequency lattice xi_k = k/(2L), k in {-n/2, ..., n/2-1}^d, so the
heat kernel at time t transforms to exp(-4 pi^2 t |xi|^2) and the Poisson
kernel to exp(-2 pi t |xi|).  Every operator is a multiplier of that
transform, applied by apply_symbols; the transform itself, as a separate
forward/inverse pair, is the reference in amalgam.oracle.

Values are float64 or complex128 and keep their dtype: under a real, even
symbol a real input stays real, through the real-input transforms of
Sorensen, Jones, Heideman and Burrus (IEEE Trans. ASSP 35, 1987).
"""

from __future__ import annotations

import contextvars
import inspect
import math
import mmap
import os
import threading
from concurrent.futures import wait
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from . import analytic

__all__ = [
    "GridSpec",
    "GridFunction",
    "FunctionSpec",
    "make_grid",
    "sample",
    "apply_symbols",
    "lp_norm",
    "sup_norm",
    "write_grid_function",
    "read_grid_function",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic box [-L, L)^d with n samples per axis."""

    d: int
    L: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if not isinstance(self.L, (int, np.integer)) or self.L < 1:
            raise ValueError(f"half extent L must be a positive integer, got {self.L!r}")
        n = self.n
        if not isinstance(n, (int, np.integer)) or n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"points per axis n must be a power of two >= 2, got {n!r}")
        if n % (2 * self.L) != 0:
            raise ValueError(
                f"n={n} is not divisible by 2L={2 * self.L}: unit cubes would not "
                "contain a whole number of cells"
            )

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    def axis_nodes(self) -> np.ndarray:
        """Cell-left-edge nodes -L + k*h of one axis."""
        return -self.L + self.h * np.arange(self.n)

    def nodes(self) -> list:
        """Per-axis node arrays broadcast to the full grid shape ('ij' order)."""
        x = self.axis_nodes()
        if self.d == 1:
            return [x]
        return list(np.meshgrid(x, x, indexing="ij"))

    def axis_freqs(self) -> np.ndarray:
        """Frequencies k/(2L) of one axis in FFT order (cached, read-only)."""
        return _lattice(self)[0]

    def freqs(self) -> tuple:
        """Per-axis frequency arrays broadcast to the full grid shape (cached, read-only)."""
        return _lattice(self)[1]

    def freq_norm(self) -> np.ndarray:
        """|xi| on the frequency lattice (cached, read-only)."""
        return _lattice(self)[2]

    def index_of(self, point) -> tuple:
        """Grid index of a point that lies exactly on a node."""
        pt = np.atleast_1d(np.asarray(point, dtype=float))
        idx = (pt + self.L) / self.h
        k = np.rint(idx).astype(int)
        if not np.allclose(idx, k, atol=1e-9):
            raise ValueError(f"point {point} is not a grid node")
        return tuple(k % self.n)

    def grid_id(self) -> str:
        return f"d{self.d}-L{self.L}-n{self.n}"


def _mapped(shape, dtype=float, populate=False) -> np.ndarray:
    """A zeroed array (float64 by default) in a private anonymous mapping of
    its own, returned to the system when freed.  For an array that outlives
    the stacks allocated after it, or is freed while they live: on the
    malloc heap the first keeps the memory freed below it resident, and the
    second leaves a resident hole below them.  populate maps every page up
    front, for an array that is written whole: one call instead of a fault
    per page, half the time of faulting them in (Linux)."""
    flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | (getattr(mmap, "MAP_POPULATE", 0) if populate else 0)
    size = np.dtype(dtype).itemsize * math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, size, flags=flags), dtype).reshape(shape)


def _as_dtype(values) -> np.ndarray:
    """values as float64 when real, else complex128: the two dtypes of grid values."""
    return np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)


def _as_values(spec: GridSpec, values) -> np.ndarray:
    v = _as_dtype(values)
    if v.shape == (spec.size,):
        v = v.reshape(spec.shape)
    if v.shape != spec.shape:
        raise ValueError(f"values shape {v.shape} does not match grid shape {spec.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("values contain non-finite entries")
    v = np.ascontiguousarray(v)
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class GridFunction:
    """Real (float64) or complex (complex128) samples on a grid, row-major
    over axes, immutable."""

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.spec, self.values))

    def _binary(self, other, op):
        if not isinstance(other, GridFunction):
            return NotImplemented
        if other.spec != self.spec:
            raise ValueError("grid mismatch")
        return GridFunction(self.spec, op(self.values, other.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, c):
        if isinstance(c, (int, float, complex, np.number)):
            return GridFunction(self.spec, self.values * c)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.spec, -self.values)

    def at(self, point) -> complex:
        """Value at a point lying exactly on a node."""
        return complex(self.values[self.spec.index_of(point)])


def make_grid(d: int, L: int, n: int) -> GridSpec:
    """Validated grid: d in {1,2}, integer L >= 1, n a power of two, n % 2L == 0."""
    return GridSpec(d, L, n)


@lru_cache(maxsize=8)
def _lattice(spec: GridSpec) -> tuple:
    """(axis frequencies, per-axis frequencies, |xi|, (-1)^k phase) of one
    grid, built once per spec and read-only."""
    xi = np.fft.fftfreq(spec.n, d=spec.h)
    fs = (xi,) if spec.d == 1 else tuple(np.meshgrid(xi, xi, indexing="ij"))
    norm = np.sqrt(sum(f**2 for f in fs))
    # (-1)^k per axis carries the node offset -L into the standard DFT (n is even)
    p = np.where(np.arange(spec.n) % 2 == 0, 1.0, -1.0)
    phase = p if spec.d == 1 else np.multiply.outer(p, p)
    for a in (xi, *fs, norm, phase):
        a.setflags(write=False)
    return xi, fs, norm, phase


# Stack passes of slices of at least SPLIT_BYTES (complex) are split across
# the CPUs this process may run on: at d=2, grids from n=128 up (at d=1 from
# n=16384).  numpy and pocketfft release the GIL for the whole of a slice's
# work, so threads run it side by side.  Below the gate (every d=1 desk grid,
# 64 KiB slices) the hand-off costs more than it saves.
SPLIT_BYTES = 256 * 2**10
_POOL = []  # the process-wide worker pool, created by the first split pass
_POOL_LOCK = threading.Lock()
_ON_POOL = threading.local()  # .set is True on the pool's own threads


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slice_parts(spec: GridSpec, n: int) -> list:
    """range(n), n slices on the grid spec, as contiguous parts for
    _run_parts: one part when a complex slice is below SPLIT_BYTES or there
    is one CPU, else one per CPU (at most one per slice)."""
    k = max(min(_cpus(), n), 1) if spec.size * 16 >= SPLIT_BYTES else 1
    bounds = [n * i // k for i in range(k)] + [n]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _run_parts(fn, parts: list) -> list:
    """[fn(part) for part in parts]: one part is a plain call, more run on
    the worker pool, the first on the calling thread.  Each part must write
    only its own slices.  A pool thread that calls it (a part that splits
    again) runs every part itself, in order, so no part waits on its own
    pool.  Worker parts run in a copy of the caller's context, so they keep
    its numpy floating-point error state (a context variable)."""
    if len(parts) == 1 or getattr(_ON_POOL, "set", False):
        return [fn(part) for part in parts]
    with _POOL_LOCK:
        if not _POOL:
            # imported here: the thread module costs start-up that an
            # unsplit run never uses
            from concurrent.futures import ThreadPoolExecutor
            _POOL.append(ThreadPoolExecutor(_cpus(), thread_name_prefix="amalgam",
                                            initializer=setattr, initargs=(_ON_POOL, "set", True)))
    futures = [_POOL[0].submit(contextvars.copy_context().run, fn, part) for part in parts[1:]]
    try:
        first = fn(parts[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


def _walk(spec: GridSpec, n: int, rows, each, fold=None, strided: bool = False, stacks: int | None = None):
    """The one walk over time slices: the n slices of a stack on the grid
    spec, or of each of a number of stacks, in parts across the CPUs and in
    chunks of slices within a part.

    Parts: _slice_parts's; strided, as many, slice i in part i mod k; over
    stacks, contiguous ranges of whole stacks, one per CPU (at most one per
    stack) at any slice size.  Chunks: rows // parts slices (rows in flight
    over all parts), at least one, none across two stacks; with rows None,
    the part.  each must give a slice the same bits in any chunk, so that
    the results do not depend on the split.
    each(bufs, i0, i1) is called per chunk in slice order (slice i of stack
    s is s * n + i), bufs the part's dict: its buffers (_buffer) and what
    else the walk keeps per part.  The parts run through _run_parts, all but
    the first on worker threads, so each calls nothing public and writes
    only its own slices.  Returns fold(acc, value) over the chunks' values
    in slice order, within each part and then across the parts; without a
    fold, each returns None and so does the walk.
    """
    if stacks is not None:
        k = min(_cpus(), stacks)
        parts = [range(stacks * i // k, stacks * (i + 1) // k) for i in range(k)]
    else:
        parts = _slice_parts(spec, n)
    k = len(parts)
    if strided:
        parts = [range(i, n, k) for i in range(k)]
    step = n if rows is None else max(rows // k, 1)

    def run(part):
        bufs, acc = {}, None
        for seg in [part] if stacks is None else [range(s * n, s * n + n) for s in part]:
            for i in seg[::step]:
                value = each(bufs, i, min(i + step, seg.stop))
                acc = value if acc is None else fold(acc, value)
        return acc

    results = _run_parts(run, parts)
    return reduce(fold, results) if fold else None


def _buffer(bufs: dict, key, shape: tuple, dtype=complex) -> np.ndarray:
    """shape[0] rows of a part's buffer for key and dtype (see _walk), made
    anew only for a larger chunk: reused from chunk to chunk."""
    a = bufs.get((key, dtype))
    if a is None or len(a) < shape[0] or a.shape[1:] != shape[1:]:
        a = bufs[(key, dtype)] = np.empty(shape, dtype)
    return a[:shape[0]]


def _fftn(a: np.ndarray, d: int, out=None, transform=np.fft.fft) -> np.ndarray:
    """The DFT of the array a over its last d axes, into out (a new complex
    array by default; out may be a itself): one numpy.fft call per axis,
    the first space axis first, the order every stored constant was
    computed in.  numpy.fft.fftn would add about 15 us a call of wrapper
    code, a fifth of a 4096-point transform."""
    out = np.empty(a.shape, complex) if out is None else out
    if not np.iscomplexobj(a):  # cast into out, where numpy.fft would cast into a new copy
        out[...] = a
        a = out
    for axis in range(-d, 0):
        a = transform(a, axis=axis, out=out)
    return out


def _ifftn(a: np.ndarray, d: int, out=None) -> np.ndarray:
    """The inverse DFT of _fftn, likewise."""
    return _fftn(a, d, out, np.fft.ifft)


def _rfftn(a: np.ndarray, d: int, out=None) -> np.ndarray:
    """_fftn of the real array a on the half lattice, in numpy.fft.rfftn's order."""
    out = np.fft.rfft(a, axis=-1, out=out)
    return np.fft.fft(out, axis=-2, out=out) if d == 2 else out


def _irfftn(a: np.ndarray, d: int, out: np.ndarray) -> np.ndarray:
    """The inverse of _rfftn, into the real array out; a is overwritten."""
    if d == 2:
        np.fft.ifft(a, axis=-2, out=a)
    return np.fft.irfft(a, n=out.shape[-1], axis=-1, out=out)


def _half(spec: GridSpec, a: np.ndarray) -> np.ndarray:
    """The half lattice, frequencies 0..n/2 of the last axis, of an array
    over the lattice: all the values of a symbol even in each coordinate."""
    return a[..., :spec.n // 2 + 1]


def _full(spec: GridSpec, half: np.ndarray, out=None) -> np.ndarray:
    """The full-lattice block of a half-lattice one, complex and writable
    (into out when given): frequency -k of the last axis takes the value at
    +k."""
    out = np.empty(half.shape[:-1] + (spec.n,), dtype=complex) if out is None else out
    out[..., :half.shape[-1]] = half
    out[..., half.shape[-1]:] = half[..., -2:0:-1]
    return out


def _hermitian(spec: GridSpec, half: np.ndarray) -> np.ndarray:
    """The full-lattice transform of a real array from its half lattice
    (_rfftn): the coefficient at -xi is the conjugate of the one at xi."""
    mirror = half[..., -2:0:-1]
    for axis in range(-spec.d, -1):
        mirror = np.roll(np.flip(mirror, axis), 1, axis)
    return np.concatenate([half, mirror.conj()], axis=-1)


def apply_symbols(spec: GridSpec, values, symbols) -> np.ndarray:
    """One multiplier pass inverse(symbols * forward(values)), as an array.

    values or symbols may carry one leading batch axis (time slices).  The
    (-1)^k phases and h^d factors cancel exactly (h is a power of two), so a
    complex pass is fftn, product in place, ifftn in place, bit-identical to
    the forward/inverse route of amalgam.oracle, and holds one stack.  A
    real symbol even in each frequency coordinate may come on the half
    lattice (_half): on real values the pass is then rfftn, product,
    irfftn, with a real output; complex values take the complex pass of
    the block's full-lattice copy (_full).  A writable complex symbol block
    with the only batch axis is consumed as the output buffer; a real or
    read-only one (such as an extension.kernel_block) is left intact.  The
    batch rows are one walk (_walk): a real pass's chunks have a complex
    buffer of at most SPLIT_BYTES, a complex pass's part is one chunk, and
    each slice's arithmetic is the same in any split.  Non-finite output
    raises.
    """
    m = spec.n // 2 + 1
    half = np.isrealobj(symbols) and np.shape(symbols)[-1:] == (m,) != (spec.n,)
    lattice = spec.shape[:-1] + (m,) if half else spec.shape
    if (np.shape(values)[-spec.d:] != spec.shape or np.shape(symbols)[-spec.d:] != lattice
            or max(np.ndim(values), np.ndim(symbols)) > spec.d + 1):
        raise ValueError(f"shapes {np.shape(values)}, {np.shape(symbols)}: not the grid shape "
                         f"{spec.shape} with at most one batch axis")
    values, sym = np.asarray(values), np.asarray(symbols)
    batched = values.ndim > spec.d
    if batched and sym.ndim > spec.d and len(sym) not in (1, len(values)):
        raise ValueError(f"{len(values)} value slices but {len(sym)} symbol slices")
    if half and np.iscomplexobj(values):
        sym, half, lattice = _full(spec, sym), False, spec.shape
    fwd = _rfftn if half else _fftn
    spectrum = None if batched else fwd(values, spec.d)
    if not (batched or half) and sym.ndim == spec.d:
        out = spectrum
    elif not (batched or half) and np.iscomplexobj(sym) and sym.flags.writeable:
        out = sym
    else:
        out = np.empty(values.shape if batched else sym.shape[:-spec.d] + spec.shape,
                       float if half else complex)
    # output and symbols with one batch axis (of length 1 when unbatched)
    rows = out.reshape((-1,) + spec.shape)
    sym = sym.reshape((-1,) + lattice)

    def run(bufs, i, j):
        work = _buffer(bufs, "work", (j - i,) + lattice) if half else None
        x = spectrum if spectrum is not None else fwd(values[i:j], spec.d, work if half else rows[i:j])
        return _product(spec, sym if len(sym) == 1 else sym[i:j], x, rows[i:j], work)

    if not _walk(spec, len(rows), SPLIT_BYTES // (16 * sym[0].size) if half else None, run,
                 lambda a, b: a and b):
        raise ValueError("multiplier pass produced non-finite values")
    return out


def _product(spec: GridSpec, s: np.ndarray, x: np.ndarray, o: np.ndarray, work=None) -> bool:
    """The rows o of a multiplier pass, the inverse transform of the symbol
    rows s times the transform x: in o itself, or, for a real o (s and x on
    the half lattice), through the complex buffer work[:len(o)].  Returns
    whether o is finite.  The one body of every pass, apply_symbols's and a
    lifted field's (amalgam.crsys), so their rows are the same bits; being
    private, it may run on worker threads."""
    w = o if work is None else work[:len(o)]
    np.multiply(s, x, out=w)
    (_ifftn if work is None else _irfftn)(w, spec.d, o)
    return bool(np.all(np.isfinite(o)))


def lp_norm(f: GridFunction, p: float) -> float:
    """(h^d sum |f|^p)^(1/p); a quasi-norm for p < 1."""
    if p <= 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    h = f.spec.h
    return float((h**f.spec.d * np.sum(np.abs(f.values) ** p)) ** (1.0 / p))


def sup_norm(f: GridFunction) -> float:
    return float(np.max(np.abs(f.values)))


# ---------------------------------------------------------------------------
# Analytic family sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSpec:
    """Named analytic family with parameters, e.g. FunctionSpec('gaussian', {'width': 1})."""

    family: str
    params: dict = field(default_factory=dict)

    @staticmethod
    def parse(text: str) -> "FunctionSpec":
        """Parse 'name' or 'name:key=val,key=val', each key at most once.
        Each value takes the type of its parameter's default in the family's
        builder: a finite float, an int (seed), or the string itself where
        there is none (path)."""
        name, _, rest = text.partition(":")
        name, params = name.strip(), {}
        items = [item.partition("=") for item in rest.split(",")] if rest else []
        known = _family_params(name, [key for key, _, _ in items])
        for key, sep, val in items:
            item = key + sep + val
            if not sep:
                raise ValueError(f"malformed function parameter {item!r}")
            if key in params:
                raise ValueError(f"repeated function parameter {key!r}")
            default = known[key].default
            kind = str if default is inspect.Parameter.empty else type(default)
            try:
                params[key] = kind(val)
            except ValueError:
                raise ValueError(f"function parameter {item!r} is not a number") from None
            if kind is float and not math.isfinite(params[key]):
                raise ValueError(f"function parameter {item!r} is not finite")
        return FunctionSpec(name, params)


def _family_params(name: str, given=None) -> dict:
    """A family's parameters, its builder's after the grid; a ValueError for
    an unknown family, and, for the keys given, for one the family does not
    take or for a parameter without a default that they lack."""
    if name not in FUNCTION_FAMILIES:
        raise ValueError(f"unknown function family {name!r}; choose from {list(FUNCTION_FAMILIES)}")
    params = dict(list(inspect.signature(FUNCTION_FAMILIES[name]).parameters.items())[1:])
    if unknown := [key for key in given or () if key not in params]:
        raise ValueError(f"unknown parameter {unknown[0]!r} of {name}; choose from {list(params)}")
    if given is not None and (missing := [key for key, p in params.items()
                                          if p.default is inspect.Parameter.empty and key not in given]):
        raise ValueError(f"missing parameter {missing[0]!r} of {name}, which has no default")
    return params


def _centers(spec: GridSpec, c) -> tuple:
    """A centre or corner: one value for every axis, or one per axis."""
    return (float(c),) * spec.d if np.isscalar(c) else tuple(float(v) for v in c)


def _gaussian(spec: GridSpec, center=0.0, width=1.0) -> np.ndarray:
    c, w = _centers(spec, center), float(width)
    if w <= 0:
        raise ValueError(f"gaussian width must be positive, got {w}")
    return np.exp(-sum((a - ci) ** 2 for a, ci in zip(spec.nodes(), c)) / w**2)


def _poisson_kernel(spec: GridSpec, t=1.0) -> np.ndarray:
    return analytic.poisson(spec.nodes(), float(t))


def _heat_kernel(spec: GridSpec, t=1.0) -> np.ndarray:
    return analytic.heat(spec.nodes(), float(t))


def _indicator(spec: GridSpec, lo=0.0, hi=1.0) -> np.ndarray:
    if not float(lo) < float(hi):
        raise ValueError(f"indicator interval must satisfy lo < hi, got [{lo}, {hi})")
    return reduce(np.multiply, [(a >= float(lo)) & (a < float(hi)) for a in spec.nodes()], np.ones(spec.shape))


def _haar(spec: GridSpec, corner=0.0, side=1.0) -> np.ndarray:
    """Per axis +1 on the lower and -1 on the upper half of [c, c + side), 0 off it."""
    side, v = float(side), np.ones(spec.shape)
    if side <= 0:
        raise ValueError(f"haar side must be positive, got {side}")
    for a, c in zip(spec.nodes(), _centers(spec, corner)):
        v = v * ((a >= c) & (a < c + side)) * np.where(a < c + side / 2, 1.0, -1.0)
    return v


def bandlimited_random(spec: GridSpec, seed: int, lo: float, hi: float) -> GridFunction:
    """Real mean-zero sample with spectrum supported on lo <= |xi| <= hi."""
    if not 0 < lo < hi:
        raise ValueError(f"band must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = rng.standard_normal(spec.shape)
    xi = spec.freq_norm()
    # drop unpaired Nyquist bins so the spectrum stays Hermitian
    paired = np.arange(spec.n) != spec.n // 2
    mask = reduce(np.logical_and.outer, [paired] * spec.d) & (xi >= lo) & (xi <= hi)
    v = apply_symbols(spec, noise, _half(spec, mask.astype(float)))
    scale = np.sqrt(spec.h**spec.d * np.sum(v**2))
    if scale == 0:
        raise ValueError(f"band [{lo}, {hi}] contains no frequency lattice points")
    return GridFunction(spec, v / scale)


def _bandlimited(spec: GridSpec, seed=0, lo=0.125, hi=0.5) -> np.ndarray:
    return bandlimited_random(spec, int(seed), float(lo), float(hi)).values


def _from_file(spec: GridSpec, path) -> np.ndarray:
    f = read_grid_function(path)
    if f.spec != spec:
        raise ValueError(f"file grid {f.spec} does not match requested grid {spec}")
    return f.values


# each family's builder (spec, **params) -> values at the grid nodes; its
# keyword parameters are the keys a spec of the family may set
FUNCTION_FAMILIES = {"gaussian": _gaussian, "poisson_kernel": _poisson_kernel, "heat_kernel": _heat_kernel,
                     "indicator": _indicator, "haar": _haar, "bandlimited_random": _bandlimited,
                     "from_file": _from_file}


def sample(family, spec: GridSpec) -> GridFunction:
    """Samples at the grid nodes of an analytic family (a FunctionSpec or its
    text) by its builder in FUNCTION_FAMILIES; kernel families are pointwise
    evaluations, the box-consistent kernels live in amalgam.kernels."""
    if isinstance(family, str):
        family = FunctionSpec.parse(family)
    _family_params(family.family, family.params)
    return GridFunction(spec, FUNCTION_FAMILIES[family.family](spec, **family.params))


# ---------------------------------------------------------------------------
# File format: text header (key=value lines, blank line) + raw binary samples.
# ---------------------------------------------------------------------------

# the header's dtype names, by whether the samples are complex; complex
# files are the format's original
_DTYPES = {True: ("complex-float64-little-endian", "<c16"), False: ("float64-little-endian", "<f8")}


def write_grid_function(f: GridFunction, path) -> None:
    _write_binary(path, f.spec, f.values)


def read_grid_function(path) -> GridFunction:
    _, spec, values = _read_binary(path)
    return GridFunction(spec, values)


def _write_binary(path, spec: GridSpec, values: np.ndarray, **meta) -> None:
    """Header of key=value lines (grid, meta, layout, dtype), a blank line,
    then the raw little-endian complex128 or float64 samples; shared by
    stack files."""
    name, dtype = _DTYPES[np.iscomplexobj(values)]
    header = {"dim": spec.d, "L": spec.L, "n": spec.n, **meta, "layout": "row-major", "dtype": name}
    with open(path, "wb") as fh:
        fh.write("".join(f"{k}={v}\n" for k, v in header.items()).encode("ascii") + b"\n")
        fh.write(memoryview(np.ascontiguousarray(values, dtype=dtype)).cast("B"))


class _Header(dict):
    """A file header's key=value fields; a missing key is a ValueError naming it."""

    def __missing__(self, key):
        raise ValueError(f"the file header has no {key}= field")


def _read_binary(path, count_key: str | None = None) -> tuple:
    """(header, spec, samples) of a file written by _write_binary; the payload
    must be exactly count * n^d samples of the header's dtype, count read
    from the header field count_key (1 without one).  The samples are read
    straight into the returned array, with no intermediate bytes object.
    Every refusal is a ValueError that names the file."""
    try:
        with open(path, "rb") as fh:
            header = _Header()
            while (line := fh.readline().decode("ascii")) not in ("\n", ""):
                key, _, val = line.strip().partition("=")
                header[key] = val
            if (dtype := dict(_DTYPES.values()).get(header["dtype"])) is None:
                raise ValueError(f"unsupported dtype {header['dtype']!r}")
            if header["layout"] != "row-major":
                raise ValueError(f"unsupported layout {header['layout']!r}")
            spec = GridSpec(int(header["dim"]), int(header["L"]), int(header["n"]))
            count = int(header[count_key]) if count_key else 1
            item = np.dtype(dtype).itemsize
            expected = count * spec.size * item
            actual = os.fstat(fh.fileno()).st_size - fh.tell()
            if actual != expected:
                raise ValueError(f"payload is {actual} bytes, expected {count} x {spec.size} "
                                 f"x {item} = {expected}")
            values = np.empty(count * spec.size, dtype=dtype)
            got = fh.readinto(memoryview(values).cast("B"))
            if got != expected:
                raise ValueError(f"short read, {got} of {expected} payload bytes")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return header, spec, values
