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
import math
import mmap
import os
import threading
from concurrent.futures import wait
from dataclasses import dataclass, field
from functools import lru_cache

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


def _mapped(shape) -> np.ndarray:
    """A zeroed float64 array in an anonymous mapping of its own, returned to
    the system when freed.  For an array that outlives the stacks allocated
    after it, or is freed while they live: on the malloc heap the first keeps
    the memory freed below it resident, and the second leaves a resident
    hole below them."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


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


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where there is one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slice_parts(spec: GridSpec, n: int, align: int = 1) -> list:
    """range(n), n slices on the grid spec, as contiguous parts for
    _run_parts, with boundaries at multiples of align: one part when a
    complex slice is below SPLIT_BYTES or there is one CPU, else one per CPU
    (at most one per slice)."""
    units = -(-n // align)
    k = max(min(_cpus(), units), 1) if spec.size * 16 >= SPLIT_BYTES else 1
    bounds = [align * (units * i // k) for i in range(k)] + [n]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def _run_parts(fn, parts: list) -> list:
    """[fn(part) for part in parts]: one part is a plain call, more run on
    the worker pool, the first on the calling thread.  Each part must write
    only its own slices, and fn must not split again.  Worker parts run in
    a copy of the caller's context, so they keep its numpy floating-point
    error state (a context variable)."""
    if len(parts) == 1:
        return [fn(parts[0])]
    with _POOL_LOCK:
        if not _POOL:
            # imported here: the thread module costs start-up that an
            # unsplit run never uses
            from concurrent.futures import ThreadPoolExecutor
            _POOL.append(ThreadPoolExecutor(_cpus(), thread_name_prefix="amalgam"))
    futures = [_POOL[0].submit(contextvars.copy_context().run, fn, part) for part in parts[1:]]
    try:
        first = fn(parts[0])
    finally:
        wait(futures)
    return [first] + [f.result() for f in futures]


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


def _full(spec: GridSpec, half: np.ndarray) -> np.ndarray:
    """The full-lattice block of a half-lattice one, complex and writable:
    frequency -k of the last axis takes the value at +k."""
    out = np.empty(half.shape[:-1] + (spec.n,), dtype=complex)
    out[..., :half.shape[-1]] = half
    out[..., half.shape[-1]:] = half[..., -2:0:-1]
    return out


def apply_symbols(spec: GridSpec, values, symbols) -> np.ndarray:
    """One multiplier pass inverse(symbols * forward(values)), as an array.

    values or symbols may carry one leading batch axis (time slices).  The
    (-1)^k phases and h^d factors cancel exactly (h is a power of two), so a
    complex pass is fftn, product in place, ifftn in place, bit-identical to
    the forward/inverse route of amalgam.oracle, and holds one stack.  A
    real symbol even in each frequency coordinate may come on the half
    lattice (_half): on real values the pass is then rfftn, product,
    irfftn, with a real output and a complex buffer of at most SPLIT_BYTES
    a part; complex values take the complex pass of the block's full-lattice
    copy (_full).  A writable complex symbol block with the only
    batch axis is consumed as the output buffer; a real or read-only one
    (such as a cached extension.kernel_block) is left intact.  The batch
    rows are split across the CPUs (_slice_parts); each slice's arithmetic
    is the same in any split.  Non-finite output raises.
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
    fwd, inv = (_rfftn, _irfftn) if half else (_fftn, _ifftn)
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
    step = max(SPLIT_BYTES // (16 * sym[0].size), 1) if half else len(rows)

    def run(part):
        work = np.empty((min(step, len(part)),) + lattice, complex) if half else None
        finite = True
        for i in range(part.start, part.stop, step):
            j = min(i + step, part.stop)
            o, s = rows[i:j], sym if len(sym) == 1 else sym[i:j]
            w = work[:j - i] if half else o
            x = fwd(values[i:j], spec.d, w) if spectrum is None else spectrum
            np.multiply(s, x, out=w)
            inv(w, spec.d, o)
            finite = finite and np.all(np.isfinite(o))
        return finite

    if not all(_run_parts(run, _slice_parts(spec, len(rows)))):
        raise ValueError("multiplier pass produced non-finite values")
    return out


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


# each family's parameters, the only keys a spec may set (see sample)
FUNCTION_FAMILIES = {"gaussian": ("center", "width"), "poisson_kernel": ("t",),
                     "heat_kernel": ("t",), "indicator": ("lo", "hi"), "haar": ("corner", "side"),
                     "bandlimited_random": ("seed", "lo", "hi"), "from_file": ("path",)}


@dataclass(frozen=True)
class FunctionSpec:
    """Named analytic family with parameters, e.g. FunctionSpec('gaussian', {'width': 1})."""

    family: str
    params: dict = field(default_factory=dict)

    @staticmethod
    def parse(text: str) -> "FunctionSpec":
        """Parse 'name' or 'name:key=val,key=val' (values float unless key is path/seed)."""
        name, _, rest = text.partition(":")
        name = name.strip()
        if name not in FUNCTION_FAMILIES:
            raise ValueError(f"unknown function family {name!r}; choose from {list(FUNCTION_FAMILIES)}")
        params = {}
        if rest:
            for item in rest.split(","):
                key, sep, val = item.partition("=")
                if not sep:
                    raise ValueError(f"malformed function parameter {item!r}")
                if key not in FUNCTION_FAMILIES[name]:
                    raise ValueError(f"unknown parameter {key!r} of {name}; "
                                     f"choose from {list(FUNCTION_FAMILIES[name])}")
                try:
                    if key == "path":
                        params[key] = val
                    elif key == "seed":
                        params[key] = int(val)
                    else:
                        params[key] = float(val)
                except ValueError:
                    raise ValueError(f"function parameter {item!r} is not a number") from None
        if name == "from_file" and "path" not in params:
            raise ValueError("from_file needs a path=FILE parameter")
        return FunctionSpec(name, params)


def _centers(spec: GridSpec, params, key="center"):
    c = params.get(key, 0.0)
    if np.isscalar(c):
        return (float(c),) * spec.d
    return tuple(float(v) for v in c)


def bandlimited_random(spec: GridSpec, seed: int, lo: float, hi: float) -> GridFunction:
    """Real mean-zero sample with spectrum supported on lo <= |xi| <= hi."""
    if not 0 < lo < hi:
        raise ValueError(f"band must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = rng.standard_normal(spec.shape)
    xi = spec.freq_norm()
    mask = (xi >= lo) & (xi <= hi)
    # drop unpaired Nyquist bins so the spectrum stays Hermitian
    nyq = spec.n // 2
    if spec.d == 1:
        mask[nyq] = False
    else:
        mask[nyq, :] = False
        mask[:, nyq] = False
    coeffs = np.fft.fftn(noise) * mask
    v = np.fft.ifftn(coeffs).real
    scale = np.sqrt(spec.h**spec.d * np.sum(v**2))
    if scale == 0:
        raise ValueError(f"band [{lo}, {hi}] contains no frequency lattice points")
    return GridFunction(spec, v / scale)


def sample(family, spec: GridSpec) -> GridFunction:
    """Pointwise samples of an analytic family at the grid nodes.

    Families: gaussian{center,width}, poisson_kernel{t}, heat_kernel{t},
    indicator{lo,hi}, haar{corner,side}, bandlimited_random{seed,lo,hi},
    from_file{path}.  Kernel families are plain pointwise evaluations; the
    box-consistent kernels live in amalgam.kernels.
    """
    if isinstance(family, str):
        family = FunctionSpec.parse(family)
    name, params = family.family, family.params
    axes = spec.nodes()

    if name == "gaussian":
        c = _centers(spec, params)
        w = float(params.get("width", 1.0))
        if w <= 0:
            raise ValueError(f"gaussian width must be positive, got {w}")
        r2 = sum((a - ci) ** 2 for a, ci in zip(axes, c))
        return GridFunction(spec, np.exp(-r2 / w**2))

    if name == "poisson_kernel":
        t = float(params.get("t", 1.0))
        return GridFunction(spec, analytic.poisson(axes, t))

    if name == "heat_kernel":
        t = float(params.get("t", 1.0))
        return GridFunction(spec, analytic.heat(axes, t))

    if name == "indicator":
        lo, hi = float(params.get("lo", 0.0)), float(params.get("hi", 1.0))
        v = np.ones(spec.shape)
        for a in axes:
            v = v * ((a >= lo) & (a < hi))
        return GridFunction(spec, v)

    if name == "haar":
        corner = _centers(spec, params, key="corner")
        side = float(params.get("side", 1.0))
        v = np.ones(spec.shape)
        for a, c0 in zip(axes, corner):
            inside = (a >= c0) & (a < c0 + side)
            sgn = np.where(a < c0 + side / 2, 1.0, -1.0)
            v = v * inside * sgn
        return GridFunction(spec, v)

    if name == "bandlimited_random":
        seed = int(params.get("seed", 0))
        lo = float(params.get("lo", 0.125))
        hi = float(params.get("hi", 0.5))
        return bandlimited_random(spec, seed, lo, hi)

    if name == "from_file":
        f = read_grid_function(params["path"])
        if f.spec != spec:
            raise ValueError(f"file grid {f.spec} does not match requested grid {spec}")
        return f

    raise ValueError(f"unknown function family {name!r}")


# ---------------------------------------------------------------------------
# File format: text header (key=value lines, blank line) + raw binary samples,
# or CSV with index columns then re (and im for complex samples).
# ---------------------------------------------------------------------------

# the header's dtype names, by whether the samples are complex; complex
# files are the format's original
_DTYPES = {True: ("complex-float64-little-endian", "<c16"), False: ("float64-little-endian", "<f8")}


def write_grid_function(f: GridFunction, path) -> None:
    path = str(path)
    if path.endswith(".csv"):
        cplx = np.iscomplexobj(f.values)
        with open(path, "w") as fh:
            fh.write(f"# dim={f.spec.d},L={f.spec.L},n={f.spec.n}\n")
            fh.write(",".join(["i", "j"][:f.spec.d] + ["re", "im"][:1 + cplx]) + "\n")
            for k, z in enumerate(f.values.reshape(-1)):
                idx = (k,) if f.spec.d == 1 else divmod(k, f.spec.n)
                parts = (z.real, z.imag) if cplx else (z,)
                fh.write(",".join([*map(str, idx), *(repr(float(x)) for x in parts)]) + "\n")
        return
    _write_binary(path, f.spec, f.values)


def read_grid_function(path) -> GridFunction:
    path = str(path)
    if path.endswith(".csv"):
        with open(path) as fh:
            first = fh.readline().strip()
            is_complex = fh.readline().strip().endswith(",im")
        if not first.startswith("#"):
            raise ValueError("CSV is missing its '# dim=..,L=..,n=..' header line")
        meta = dict(item.split("=") for item in first.lstrip("# ").split(","))
        spec = GridSpec(int(meta["dim"]), int(meta["L"]), int(meta["n"]))
        rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        # a view of the (re, im) columns keeps im = -0.0
        values = np.ascontiguousarray(rows[:, spec.d:]).view(complex if is_complex else float)
        return GridFunction(spec, values[:, 0])
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


def _read_binary(path, count_key: str | None = None) -> tuple:
    """(header, spec, samples) of a file written by _write_binary; the payload
    must be exactly count * n^d samples of the header's dtype, count read
    from the header field count_key (1 without one).  The samples are read
    straight into the returned array, with no intermediate bytes object."""
    with open(path, "rb") as fh:
        header = {}
        while (line := fh.readline().decode("ascii")) not in ("\n", ""):
            key, _, val = line.strip().partition("=")
            header[key] = val
        if (dtype := dict(_DTYPES.values()).get(header.get("dtype"))) is None:
            raise ValueError(f"unsupported dtype {header.get('dtype')!r}")
        if header.get("layout") != "row-major":
            raise ValueError(f"unsupported layout {header.get('layout')!r}")
        spec = GridSpec(int(header["dim"]), int(header["L"]), int(header["n"]))
        count = int(header[count_key]) if count_key else 1
        item = np.dtype(dtype).itemsize
        expected = count * spec.size * item
        actual = os.fstat(fh.fileno()).st_size - fh.tell()
        if actual != expected:
            raise ValueError(f"{path}: payload is {actual} bytes, expected {count} x {spec.size} "
                             f"x {item} = {expected}")
        values = np.empty(count * spec.size, dtype=dtype)
        got = fh.readinto(memoryview(values).cast("B"))
        if got != expected:
            raise ValueError(f"{path}: short read, {got} of {expected} payload bytes")
    return header, spec, values
