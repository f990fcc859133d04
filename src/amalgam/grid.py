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
"""

from __future__ import annotations

import contextvars
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


def _as_values(spec: GridSpec, values) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
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
    """Complex samples on a grid, row-major over axes, immutable."""

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


def _slice_parts(spec: GridSpec, n: int, align: int = 1, interleave: bool = False) -> list:
    """range(n), n slices on the grid spec, as parts for _run_parts: one part
    when a complex slice is below SPLIT_BYTES or there is one CPU, else one
    per CPU (at most one per slice).  Parts are contiguous with boundaries
    at multiples of align, or, with interleave, every k-th slice, for passes
    whose late slices are cheap."""
    units = -(-n // align)
    k = max(min(_cpus(), units), 1) if spec.size * 16 >= SPLIT_BYTES else 1
    if interleave:
        return [range(i, n, k) for i in range(k)]
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
    """The DFT of the complex array a over its last d axes, into out (a new
    array by default; out may be a itself): one numpy.fft call per axis,
    the first space axis first, the order every stored constant was
    computed in.  numpy.fft.fftn would add about 15 us a call of wrapper
    code, a fifth of a 4096-point transform."""
    out = np.empty(a.shape, complex) if out is None else out
    for axis in range(-d, 0):
        a = transform(a, axis=axis, out=out)
    return out


def _ifftn(a: np.ndarray, d: int, out=None) -> np.ndarray:
    """The inverse DFT of _fftn, likewise."""
    return _fftn(a, d, out, np.fft.ifft)


def apply_symbols(spec: GridSpec, values, symbols) -> np.ndarray:
    """One multiplier pass inverse(symbols * forward(values)), as an array.

    values or symbols may carry one leading batch axis (time slices).  The
    (-1)^k phases and h^d factors cancel exactly (h is a power of two), so the
    pass is fftn, product, ifftn, bit-identical to the forward/inverse route
    of amalgam.oracle.  The product is formed in place, and ifftn overwrites
    it, so a pass holds one stack.  When values carry the batch axis, they
    are copied into a fresh output and transformed there.  When only the
    symbols carry it, a writable complex symbol block is consumed as the
    output buffer, while a real or read-only block (such as a cached
    extension.kernel_block) is left intact and the output is allocated.  The
    batch rows are split across the CPUs (_slice_parts); each slice's
    arithmetic is the same in any split.  Non-finite output raises.
    """
    if any(np.shape(a)[-spec.d:] != spec.shape or np.ndim(a) > spec.d + 1 for a in (values, symbols)):
        raise ValueError(f"shapes {np.shape(values)}, {np.shape(symbols)}: not the grid shape "
                         f"{spec.shape} with at most one batch axis")
    values = np.asarray(values)
    spectrum = None
    if values.ndim > spec.d:
        if np.ndim(symbols) > spec.d and len(symbols) not in (1, len(values)):
            raise ValueError(f"{len(values)} value slices but {len(symbols)} symbol slices")
        out = np.empty(values.shape, dtype=complex)
    else:
        spectrum = _fftn(np.asarray(values, dtype=complex), spec.d)
        if np.ndim(symbols) == spec.d:
            out = spectrum
        elif np.iscomplexobj(symbols) and symbols.flags.writeable:
            out = symbols
        else:
            out = np.empty(np.shape(symbols), dtype=complex)
    # output and symbols with one batch axis (of length 1 when unbatched)
    rows = out.reshape((-1,) + spec.shape)
    sym = np.asarray(symbols).reshape((-1,) + spec.shape)

    def run(part):
        o = rows[part.start:part.stop]
        s = sym if len(sym) == 1 else sym[part.start:part.stop]
        if spectrum is None:
            o[...] = values[part.start:part.stop]
            _fftn(o, spec.d, out=o)
            np.multiply(s, o, out=o)
        else:
            np.multiply(s, spectrum, out=o)
        _ifftn(o, spec.d, out=o)
        return np.all(np.isfinite(o))

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
# or CSV with index columns then re, im.
# ---------------------------------------------------------------------------

_HEADER_DTYPE = "complex-float64-little-endian"


def write_grid_function(f: GridFunction, path) -> None:
    path = str(path)
    if path.endswith(".csv"):
        with open(path, "w") as fh:
            fh.write(f"# dim={f.spec.d},L={f.spec.L},n={f.spec.n}\n")
            idx_cols = ["i"] if f.spec.d == 1 else ["i", "j"]
            fh.write(",".join(idx_cols + ["re", "im"]) + "\n")
            for k, z in enumerate(f.values.reshape(-1)):
                idx = (k,) if f.spec.d == 1 else divmod(k, f.spec.n)
                fh.write(",".join(map(str, idx)) + f",{float(z.real)!r},{float(z.imag)!r}\n")
        return
    _write_binary(path, f.spec, f.values)


def read_grid_function(path) -> GridFunction:
    path = str(path)
    if path.endswith(".csv"):
        with open(path) as fh:
            first = fh.readline().strip()
        if not first.startswith("#"):
            raise ValueError("CSV is missing its '# dim=..,L=..,n=..' header line")
        meta = dict(item.split("=") for item in first.lstrip("# ").split(","))
        spec = GridSpec(int(meta["dim"]), int(meta["L"]), int(meta["n"]))
        rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        values = rows[:, -2] + 1j * rows[:, -1]
        return GridFunction(spec, values)
    _, spec, values = _read_binary(path)
    return GridFunction(spec, values)


def _write_binary(path, spec: GridSpec, values: np.ndarray, **meta) -> None:
    """Header of key=value lines (grid, meta, layout, dtype), a blank line,
    then the raw little-endian complex128 samples; shared by stack files."""
    header = {"dim": spec.d, "L": spec.L, "n": spec.n, **meta,
              "layout": "row-major", "dtype": _HEADER_DTYPE}
    with open(path, "wb") as fh:
        fh.write("".join(f"{k}={v}\n" for k, v in header.items()).encode("ascii") + b"\n")
        fh.write(memoryview(np.ascontiguousarray(values, dtype="<c16")).cast("B"))


def _read_binary(path, count_key: str | None = None) -> tuple:
    """(header, spec, samples) of a file written by _write_binary; the payload
    must be exactly count * n^d complex128 samples, count read from the
    header field count_key (1 without one).  The samples are read straight
    into the returned array, with no intermediate bytes object."""
    with open(path, "rb") as fh:
        header = {}
        while (line := fh.readline().decode("ascii")) not in ("\n", ""):
            key, _, val = line.strip().partition("=")
            header[key] = val
        for key, want in (("dtype", _HEADER_DTYPE), ("layout", "row-major")):
            if header.get(key) != want:
                raise ValueError(f"unsupported {key} {header.get(key)!r}")
        spec = GridSpec(int(header["dim"]), int(header["L"]), int(header["n"]))
        count = int(header[count_key]) if count_key else 1
        expected = count * spec.size * 16
        actual = os.fstat(fh.fileno()).st_size - fh.tell()
        if actual != expected:
            raise ValueError(f"{path}: payload is {actual} bytes, expected {count} x {spec.size} "
                             f"x 16 = {expected}")
        values = np.empty(count * spec.size, dtype="<c16")
        got = fh.readinto(memoryview(values).cast("B"))
        if got != expected:
            raise ValueError(f"{path}: short read, {got} of {expected} payload bytes")
    return header, spec, values
