"""Harmonic/caloric extensions over a time grid and the maximal operators.

All continuum suprema over t > 0 are maxima over a log-spaced TimeGrid; the
grid travels with every stack so refinement studies are reproducible.  Cone
windows wrap periodically at the box boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .grid import (GridFunction, GridSpec, _as_dtype, _half, _mapped, _read_binary, _run_parts,
                   _slice_parts, _write_binary, apply_symbols)
from .norms import _as_exponents, slice_norms

__all__ = [
    "TimeGrid",
    "ExtensionStack",
    "grid_run_id",
    "extend",
    "extension_symbol",
    "kernel_block",
    "radial_maximal",
    "nontangential_max",
    "hl_maximal",
    "AnnularWindow",
    "area_integral",
    "tpq_norm",
    "h1_certificate",
    "write_stack",
    "read_stack",
]

T_MIN_FLOOR = 1e-4


@dataclass(frozen=True)
class TimeGrid:
    """Log-spaced times in [t_min, t_max], strictly increasing."""

    t_min: float
    t_max: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)):
            raise ValueError(f"time bounds must be finite, got [{self.t_min}, {self.t_max}]")
        if self.t_min < T_MIN_FLOOR:
            raise ValueError(f"t_min must be >= {T_MIN_FLOOR}, got {self.t_min}")
        if self.t_max <= self.t_min:
            raise ValueError(f"t_max must exceed t_min, got [{self.t_min}, {self.t_max}]")
        if self.count < 2:
            raise ValueError(f"need at least 2 time points, got {self.count}")

    @property
    def values(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.count)

    def trapezoid_weights(self) -> np.ndarray:
        t = self.values
        w = np.empty_like(t)
        w[1:-1] = 0.5 * (t[2:] - t[:-2])
        w[0] = 0.5 * (t[1] - t[0])
        w[-1] = 0.5 * (t[-1] - t[-2])
        return w

    def grid_id(self) -> str:
        return f"t{self.count}x{self.t_min:g}-{self.t_max:g}"


def grid_run_id(spec: GridSpec, tg: TimeGrid) -> str:
    """The run id that reports and the frozen store record."""
    return f"{spec.grid_id()}-{tg.grid_id()}"


@dataclass(frozen=True)
class ExtensionStack:
    """Time-indexed family of slices u(., t), one GridFunction per t, real
    (float64) or complex (complex128) like a GridFunction.

    kernel records how the slices were produced: 'poisson' and 'heat' stacks
    carry exact per-slice symbols (enabling exact time derivatives), anything
    else is 'custom'.
    """

    spec: GridSpec
    tgrid: TimeGrid
    values: np.ndarray = field(repr=False)
    kernel: str = "custom"

    def __post_init__(self):
        self._validate(scan_finite=True)

    @classmethod
    def _from_pass(cls, spec: GridSpec, tgrid: TimeGrid, values: np.ndarray,
                   kernel: str) -> "ExtensionStack":
        """A stack over the output of apply_symbols, which has already raised
        on any non-finite entry, so the values are not scanned again."""
        stack = object.__new__(cls)
        stack.__dict__.update(spec=spec, tgrid=tgrid, values=values, kernel=kernel)
        stack._validate(scan_finite=False)
        return stack

    def _validate(self, scan_finite: bool) -> None:
        v = _as_dtype(self.values)
        want = (self.tgrid.count,) + self.spec.shape
        if v.shape != want:
            raise ValueError(f"stack shape {v.shape} does not match {want}")
        if scan_finite and not np.all(np.isfinite(v)):
            raise ValueError("stack contains non-finite entries")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.kernel not in ("poisson", "heat", "custom"):
            raise ValueError(f"unknown stack kernel tag {self.kernel!r}")

    @property
    def times(self) -> np.ndarray:
        return self.tgrid.values

    def slice(self, i: int) -> GridFunction:
        return GridFunction(self.spec, self.values[i])

    def map_values(self, fn, kernel=None) -> "ExtensionStack":
        return ExtensionStack(self.spec, self.tgrid, fn(self.values),
                              self.kernel if kernel is None else kernel)


def extension_symbol(kernel: str, spec: GridSpec, t: float) -> np.ndarray:
    """Per-slice multiplier: exp(-2 pi t |xi|) or exp(-4 pi^2 t |xi|^2)."""
    rate, base = _extension_rate(kernel, spec)
    return np.exp(rate * t * base)


def _extension_rate(kernel: str, spec: GridSpec) -> tuple:
    """(c, b) with extension_symbol(kernel, spec, t) = exp(c t b)."""
    xi = spec.freq_norm()
    if kernel == "poisson":
        return -2.0 * np.pi, xi
    if kernel == "heat":
        return -4.0 * np.pi**2, xi**2
    raise ValueError(f"no extension symbol for kernel {kernel!r}")


# Heat and Poisson blocks of at most BLOCK_BYTES are cached, the
# CACHED_BLOCKS most recently used, so the cache holds at most 8 MiB.  One
# freeze run asks for the same three d=1 blocks (48 x 2049 x 8 B = 0.75 MiB
# each) once per member; a desk-scale d=2 block (48 x 256 x 129 x 8 B =
# 12 MiB) is never kept.
BLOCK_BYTES = 2 * 2**20
CACHED_BLOCKS = 4


def kernel_block(kernel: str, spec: GridSpec, ts) -> np.ndarray:
    """extension_symbol(kernel, spec, t) over the times ts on the half
    lattice (grid._half), the same bits: a real block that apply_symbols
    takes as an even symbol, so a real input gives a real stack.

    A block of at most BLOCK_BYTES is read-only and cached (a repeat request
    returns the same object), a larger one fresh on every call.  Each gets a
    mapping of its own (grid._mapped): a cached block outlives the stacks
    freed around it, and a fresh one is freed below a live stack, the
    pass's output.  Rows are filled eight at a time over the CPU parts
    (_slice_parts), so no second full-size array is alive beside the block,
    and exp is taken only where its argument exceeds -746: below that exp is
    exactly 0, which the zeroed block holds, and numpy reaches that 0
    several times slower.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.size * _half(spec, spec.freq_norm()).nbytes <= BLOCK_BYTES:
        return _cached_block(kernel, spec, ts.tobytes())
    return _fill_block(kernel, spec, ts)


@lru_cache(maxsize=CACHED_BLOCKS)
def _cached_block(kernel: str, spec: GridSpec, ts_bytes: bytes) -> np.ndarray:
    block = _fill_block(kernel, spec, np.frombuffer(ts_bytes))
    block.setflags(write=False)
    return block


def _fill_block(kernel: str, spec: GridSpec, ts: np.ndarray) -> np.ndarray:
    """The block of kernel_block, in a mapping of its own (grid._mapped)."""
    rate, base = _extension_rate(kernel, spec)
    base = _half(spec, base)
    block = _mapped((ts.size,) + base.shape)
    parts = _slice_parts(spec, ts.size)
    step = max(8 // len(parts), 1)

    def fill(part):
        for i in range(part.start, part.stop, step):
            j = min(i + step, part.stop)
            arg = np.multiply.outer(rate * ts[i:j], base)
            np.exp(arg, out=block[i:j], where=arg > -746.0)

    _run_parts(fill, parts)
    return block


def extend(f: GridFunction, kernel: str, tg: TimeGrid) -> ExtensionStack:
    """Extension stack with slice_t = f convolved with the t-kernel, one
    multiplier pass over the whole time grid."""
    sym = kernel_block(kernel, f.spec, tg.values)
    return ExtensionStack._from_pass(f.spec, tg, apply_symbols(f.spec, f.values, sym), kernel)


# -- radial maximal function --------------------------------------------------


def _dilation_block(spec: GridSpec, ts) -> np.ndarray:
    """phi_t^ over the times ts for the maximal profile phi = W_1: by
    phi_t^(xi) = phi^(t xi), phi_t is the heat kernel at t^2 (see kernel_block)."""
    return kernel_block("heat", spec, np.asarray(ts, dtype=float) ** 2)


def radial_maximal(f: GridFunction, tg: TimeGrid) -> GridFunction:
    """Pointwise max over the time grid of |f * phi_t|, one multiplier pass."""
    sym = _dilation_block(f.spec, tg.values)
    return GridFunction(f.spec, np.abs(apply_symbols(f.spec, f.values, sym)).max(axis=0))


# -- window machinery ----------------------------------------------------------


def _strict_halfwidth(radius: float, h: float) -> int:
    """Largest w with w*h < radius (number of admissible offsets per side)."""
    return max(int(math.ceil(radius / h)) - 1, 0)


def _shift_max(a: np.ndarray, s1: int, s2: int, r: np.ndarray) -> np.ndarray:
    """r[:, x] = max(a[:, x + s1], a[:, x + s2]), column indices wrapped,
    filled from three pairs of slices; returns r.  The one step of the
    window max of _run_max, for d=1 lines and d=2 row chords alike."""
    n = a.shape[1]
    s1, s2 = sorted((s1 % n, s2 % n))
    np.maximum(a[:, s1:s1 + n - s2], a[:, s2:], out=r[:, :n - s2])
    np.maximum(a[:, s1 + n - s2:], a[:, :s2 - s1], out=r[:, n - s2:n - s1])
    np.maximum(a[:, :s1], a[:, s2 - s1:s2], out=r[:, n - s1:])
    return r


def _run_max(table: list, w: int, out: np.ndarray) -> np.ndarray:
    """Max over the 2w + 1 wrapped cells x - w, ..., x + w of each row of
    table[0]: the one window-max primitive of nontangential_max, for the
    d=1 line (one row) and for each row chord of a d=2 disc.

    table is a doubling table: level j holds the max over the 2^j wrapped
    cells x, ..., x + 2^j - 1 of each row, each level the max of two
    wrapped shifts of the level below (_shift_max); levels are appended as
    they are needed.  A run of 2w + 1 < n cells is the max of two runs of
    the largest level 2^k that fits, starting at x - w and at
    x + w - 2^k + 1, written into out.  A run of n cells or more is the
    whole row, returned as a read-only broadcast view.
    """
    a = table[0]
    n = a.shape[1]
    if 2 * w + 1 >= n:
        return np.broadcast_to(a.max(axis=1, keepdims=True), a.shape)
    k = (2 * w + 1).bit_length() - 1
    while len(table) <= k:
        table.append(_shift_max(table[-1], 0, 2 ** (len(table) - 1), np.empty_like(a)))
    return _shift_max(table[k], -w, w - 2**k + 1, out)


def _disc_offsets_maxfilter(absu: np.ndarray, rho_cells: float, n: int) -> np.ndarray:
    """Max over lattice offsets |delta| < rho_cells (Euclidean, strict) with wrap.

    The disc is a stack of row chords: row offsets +-d2 admit the column
    offsets |d1| <= w1(d2), and the chord of each row is a _run_max of
    half-width w1.  Along d2 = 0, 1, ... the width w1 only shrinks, so each
    chord is built once, just before its rows, and folded into the result in
    place at +d2 and -d2, from two slices per row offset.  Maxima are exact,
    so the result is bit-identical to any other order of taking them, such
    as a brute-force max over every offset.
    """
    table = [absu]
    buf = np.empty_like(absu)  # the current chord
    out = chord = None
    chord_w1 = -1
    for d2 in range(_strict_halfwidth(rho_cells, 1.0) + 1):
        rem = rho_cells * rho_cells - d2 * d2  # admissible delta1^2 < rem
        if rem <= 0:
            break
        w1 = _strict_halfwidth(math.sqrt(rem), 1.0)
        if w1 != chord_w1:
            chord_w1 = w1
            chord = _run_max(table, w1, buf)
        if out is None:
            out = np.array(chord)
            continue
        for s in {d2 % n, -d2 % n}:  # out[y] = max(out[y], chord[y + s]), rows wrapped
            np.maximum(out[:n - s], chord[s:], out=out[:n - s])
            np.maximum(out[n - s:], chord[:s], out=out[n - s:])
    # no row at all only when rho_cells^2 underflows to 0: the centre alone
    return np.copy(absu) if out is None else out


def nontangential_max(stack: ExtensionStack, aperture: float = 1.0) -> GridFunction:
    """u*(x) = max over slices t and nodes y with |x - y| < aperture * t of |u(y,t)|.

    Each slice's window max is taken on the lattice with one primitive,
    _run_max: at d=1 a run of the 2w + 1 cells |x - y| < aperture * t of
    the line; at d=2 the disc max of _disc_offsets_maxfilter (one run per
    row chord, one in-place fold per row offset), or the slice's global max
    once the disc covers the whole wrapped box.  Only maxima are taken, so
    the result is exact: the same bits in any order of evaluation.  The
    slices are dealt out in turn to as many parts as _slice_parts gives
    (late slices only take a global max, so contiguous parts would be
    unequal), each part keeps its own maximum, and the parts' maxima are
    folded at the end.
    """
    if aperture <= 0:
        raise ValueError(f"aperture must be positive, got {aperture}")
    spec = stack.spec
    n, h = spec.n, spec.h
    ts = stack.times

    def part_max(part):
        acc = np.zeros(spec.shape)  # |u| >= 0, so 0 leaves every max as it is
        for i in part:
            absu = np.abs(stack.values[i])
            rho_cells = aperture * float(ts[i]) / h
            if spec.d == 1:
                w = _strict_halfwidth(aperture * float(ts[i]), h)
                cand = _run_max([absu[None]], w, np.empty((1, n)))[0]
            elif rho_cells > (n / 2) * math.sqrt(2.0) + 1:
                cand = absu.max()
            else:
                cand = _disc_offsets_maxfilter(absu, rho_cells, n)
            np.maximum(acc, cand, out=acc)
        return acc

    k = len(_slice_parts(spec, len(ts)))
    accs = _run_parts(part_max, [range(i, len(ts), k) for i in range(k)])
    return GridFunction(spec, reduce(np.maximum, accs))


def _moving_mean(a: np.ndarray, size: int) -> np.ndarray:
    """Mean over the size wrapped cells x - size//2, ..., x - size//2 + size - 1
    of the line a: one running sum, started on the first window and moved by
    the cell that enters less the cell that leaves, then divided by size."""
    left = size // 2
    ext = np.concatenate([a[len(a) - left:], a, a[:size - 1 - left]])
    first = np.cumsum(ext[:size])[-1:]  # summed in order, as the running sum is
    return np.cumsum(np.concatenate([first, ext[size:] - ext[:-size]])) / size


def _disc_mask(n: int, rho_cells: float) -> np.ndarray:
    """0/1 mask over index offsets with wrap-distance strictly below rho_cells."""
    k = np.arange(n)
    dist = np.minimum(k, n - k)
    d2 = dist[:, None] ** 2 + dist[None, :] ** 2
    return (d2 < rho_cells * rho_cells).astype(float)


def hl_maximal(f: GridFunction, r: float) -> GridFunction:
    """Ball-average maximal function: max over dyadic radii rho in {h, 2h, ..., L}
    of the L^r node mean over the open lattice ball |y - x| < rho."""
    if r <= 0:
        raise ValueError(f"exponent r must be positive, got {r}")
    spec = f.spec
    n = spec.n
    dens = np.abs(f.values) ** r
    dens_hat = np.fft.fftn(dens) if spec.d == 2 else None
    acc = None
    m = 1
    while m <= n // 2:  # rho = m*h, up to rho = L
        if spec.d == 1:
            mean = _moving_mean(dens, 2 * m - 1)
        else:
            mask = _disc_mask(n, m)
            mask_hat = np.fft.fftn(mask)
            conv = np.fft.ifftn(dens_hat * mask_hat).real
            mean = conv / mask.sum()
        acc = mean if acc is None else np.maximum(acc, mean)
        m *= 2
    return GridFunction(spec, acc ** (1.0 / r))


# -- area integral --------------------------------------------------------------


def _smoothstep(s):
    s = np.asarray(s, dtype=float)
    g = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
    gm = np.where(1.0 - s > 0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return g / (g + gm)


@dataclass(frozen=True)
class AnnularWindow:
    """Smooth radial bump, 1 on 2 <= |xi| <= 4, supported in 1 <= |xi| <= 8."""

    def profile(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        return _smoothstep(rho - 1.0) * _smoothstep((8.0 - rho) / 4.0)

    def multiplier(self, spec: GridSpec, t: float) -> np.ndarray:
        """profile(t |xi|) on the frequency lattice."""
        return self._at(t * spec.freq_norm())

    def _at(self, rho: np.ndarray) -> np.ndarray:
        """profile(rho), evaluated only off its exact 0 (rho <= 1, rho >= 8)
        and 1 (2 <= rho <= 4): the same bits as evaluating it everywhere."""
        out = ((rho >= 2.0) & (rho <= 4.0)).astype(float)
        band = ((rho > 1.0) & (rho < 2.0)) | ((rho > 4.0) & (rho < 8.0))
        out[band] = self.profile(rho[band])
        return out


def area_integral(f: GridFunction, window: AnnularWindow | None, tg: TimeGrid) -> GridFunction:
    """Discrete cone square function

        S(f)(x) = ( sum_t sum_{|y-x|<t} |(phi(.t) f^)^v(y)|^2 h^d dt / t^(d+1) )^(1/2)

    with trapezoidal dt weights on the log grid.

    The multiplier passes take the radial window on the half lattice (a
    real f gives real slices), eight slices at a time, so no (time x grid)
    block is alive, and leave out each slice whose window vanishes on the
    whole lattice, an exact 0 (with the annular window every t <= h, where
    t |xi| <= sqrt(2)/2 < 1).  At d=1 the ball sum is a wrapped moving sum.
    At d=2 it is taken by case: when the open disc of radius t covers the
    whole wrapped box, (t/h)^2 > 2 (n/2)^2, it is the plain sum of |g|^2;
    otherwise it is the cyclic convolution of |g|^2 with the 0/1 disc mask,
    whose transform is real because the mask is symmetric.  The
    weighted products of transforms are summed over the slices and inverted
    once, which agrees with inverting each slice's product to rounding
    (1e-12 relative).
    """
    if window is None:
        window = AnnularWindow()
    spec = f.spec
    n, h = spec.n, spec.h
    xi = _half(spec, spec.freq_norm())
    times = list(zip(tg.values, tg.trapezoid_weights()))
    S2, total = np.zeros(spec.shape), 0.0
    acc = np.zeros((n, n // 2 + 1), dtype=complex) if spec.d == 2 else None
    for k in range(0, len(times), 8):
        rows = [(t, dt, m) for t, dt in times[k:k + 8] if (m := window._at(t * xi)).any()]
        slices = apply_symbols(spec, f.values, np.array([m for *_, m in rows])) if rows else []
        for g, (t, dt, _) in zip(slices, rows):
            sq = np.abs(g) ** 2
            if spec.d == 1:
                size = min(2 * _strict_halfwidth(t, h) + 1, n)
                S2 += _moving_mean(sq, size) * size * (h**spec.d) * dt / t ** (spec.d + 1)
            elif (t / h) ** 2 > 2 * (n // 2) ** 2:
                total += h * h * dt / t**3 * sq.sum()
            else:
                mask_hat = np.fft.rfft2(_disc_mask(n, t / h)).real
                acc += h * h * dt / t**3 * np.fft.rfft2(sq) * mask_hat
    if spec.d == 2:
        S2 = np.fft.irfft2(acc, s=spec.shape) + total
    return GridFunction(spec, np.sqrt(np.maximum(S2, 0.0)))


# -- stack-level norms -----------------------------------------------------------


def tpq_norm(stack: ExtensionStack, e) -> float:
    """max over slices of the (p, q) amalgam norm."""
    return float(slice_norms(stack.spec, stack.values, e).max())


@dataclass(frozen=True)
class H1Certificate:
    max_ratio: float
    per_t: np.ndarray = field(repr=False)
    tpq: float


def h1_certificate(stack: ExtensionStack, e) -> H1Certificate:
    """Observed constant in sup_x |u(x,t)| <= C t^(-d/(2 max{p,q})) ||u||_T^{p,q}."""
    return _h1_certificate(stack.spec, stack.times, np.abs(stack.values), e)


def _h1_certificate(spec: GridSpec, ts: np.ndarray, mag: np.ndarray, e) -> H1Certificate:
    """h1_certificate of a stack over the times ts from its magnitude mag =
    |u|, so that several exponent pairs can share one magnitude (slice_norms
    of a nonnegative real block is the same bits as of the complex one)."""
    e = _as_exponents(e)
    tpq = float(slice_norms(spec, mag, e).max())
    if tpq == 0:
        raise ValueError("zero stack has no certificate")
    sups = mag.reshape(len(ts), -1).max(axis=1)
    per_t = ts ** (spec.d / (2.0 * e.max_exp)) * sups / tpq
    return H1Certificate(float(per_t.max()), per_t, tpq)


# -- stack dump -------------------------------------------------------------------


def write_stack(stack: ExtensionStack, path) -> None:
    """Header + concatenated slice binaries, slices in ascending t."""
    tg = stack.tgrid
    _write_binary(path, stack.spec, stack.values, tmin=tg.t_min, tmax=tg.t_max, tcount=tg.count,
                  kernel=stack.kernel)


def read_stack(path) -> ExtensionStack:
    header, spec, values = _read_binary(path, "tcount")
    tg = TimeGrid(float(header["tmin"]), float(header["tmax"]), int(header["tcount"]))
    return ExtensionStack(spec, tg, values.reshape((tg.count,) + spec.shape),
                          header.get("kernel", "custom"))
