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

from .grid import (GridFunction, GridSpec, _as_dtype, _half, _irfftn, _mapped, _read_binary, _rfftn, _walk,
                   _write_binary, apply_symbols)
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


def kernel_block(kernel: str, spec: GridSpec, ts) -> np.ndarray:
    """extension_symbol(kernel, spec, t) over the times ts on the half
    lattice (grid._half), the same bits: a real block that apply_symbols
    takes as an even symbol, so a real input gives a real stack.

    Every call fills a fresh, read-only block in a mapping of its own
    (grid._mapped), freed below a live stack, the pass's output.  The rows
    are one walk (grid._walk), eight in flight over all parts, so no second
    full-size array is alive beside the block, and exp is taken only where
    its argument exceeds -746: below that exp is exactly 0, which the zeroed
    block holds, and numpy reaches that 0 several times slower.
    """
    ts = np.asarray(ts, dtype=float)
    rate, base = _extension_rate(kernel, spec)
    base = _half(spec, base)
    block = _mapped((ts.size,) + base.shape)

    def fill(bufs, i, j):
        arg = np.multiply.outer(rate * ts[i:j], base)
        np.exp(arg, out=block[i:j], where=arg > -746.0)

    _walk(spec, ts.size, 8, fill)
    block.setflags(write=False)
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
    """Pointwise max over the time grid of |f * phi_t|, one multiplier pass,
    its magnitude taken in place when the pass is real."""
    g = apply_symbols(f.spec, f.values, _dilation_block(f.spec, tg.values))
    return GridFunction(f.spec, np.abs(g, out=None if np.iscomplexobj(g) else g).max(axis=0))


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
    slices are one strided walk (grid._walk), a slice a chunk, dealt out in
    turn to the parts (late slices only take a global max, so contiguous
    parts would be unequal), and the cone maxima folded by np.maximum.
    """
    if aperture <= 0:
        raise ValueError(f"aperture must be positive, got {aperture}")
    spec, ts = stack.spec, stack.times
    cone = lambda bufs, i, _: _cone_max(spec, np.abs(stack.values[i]), aperture * float(ts[i]))
    acc = _walk(spec, len(ts), 1, cone, np.maximum, strided=True)
    return GridFunction(spec, np.broadcast_to(acc, spec.shape))  # a cone max may be a global max


def _cone_max(spec: GridSpec, absu: np.ndarray, radius: float):
    """nontangential_max's window max of one slice's magnitude absu, over |x - y| < radius."""
    n, h = spec.n, spec.h
    if spec.d == 1:
        return _run_max([absu[None]], _strict_halfwidth(radius, h), np.empty((1, n)))[0]
    if radius / h > (n / 2) * math.sqrt(2.0) + 1:
        return absu.max()
    return _disc_offsets_maxfilter(absu, radius / h, n)


# Ball symbols of at most BALL_BYTES are cached, the CACHED_BALLS most
# recently used.  A d=2 desk-grid field pass asks for 31 distinct balls
# (hl_maximal's 8, area_integral's 23 once the balls that cover the whole
# box share one), 258 KiB each: 7.8 MiB, kept for the process.
BALL_BYTES = 2**19
CACHED_BALLS = 32


def _ball_symbol(spec: GridSpec, rho_cells: float) -> tuple:
    """(transform, count) of the 0/1 mask of the wrapped lattice offsets
    strictly closer than rho_cells to 0: its transform on the half lattice
    (grid._half), real because the mask is even in each coordinate, and its
    cell count.  The ball sum of a real array a over |y - x| < rho_cells h is
    apply_symbols(spec, a, transform), a cyclic convolution with the mask.

    A transform of at most BALL_BYTES is read-only and cached per grid and
    radius (a repeat request returns the same object), in a mapping of its
    own (grid._mapped); every radius of n cells or more is the whole box
    (no wrapped offset reaches n at d <= 2), so those share one entry.
    """
    rho = min(float(rho_cells), spec.n)
    if _half(spec, spec.freq_norm()).nbytes <= BALL_BYTES:
        return _cached_ball(spec, rho)
    return _ball(spec, rho)


@lru_cache(maxsize=CACHED_BALLS)
def _cached_ball(spec: GridSpec, rho: float) -> tuple:
    sym, count = _ball(spec, rho)
    kept = _mapped(sym.shape, populate=True)
    kept[...] = sym
    kept.setflags(write=False)
    return kept, count


def _ball(spec: GridSpec, rho: float) -> tuple:
    """_ball_symbol's (transform, count), built."""
    k = np.arange(spec.n)
    dist2 = reduce(np.add.outer, [np.minimum(k, spec.n - k) ** 2] * spec.d)
    mask = (dist2 < rho * rho).astype(float)
    return _rfftn(mask, spec.d).real, mask.sum()


def hl_maximal(f: GridFunction, r: float) -> GridFunction:
    """Ball-average maximal function: max over dyadic radii rho in {h, 2h, ..., L}
    of the L^r node mean over the open lattice ball |y - x| < rho, the means
    of all radii from one multiplier pass of |f|^r."""
    if r <= 0:
        raise ValueError(f"exponent r must be positive, got {r}")
    spec = f.spec
    balls = [_ball_symbol(spec, 2**k) for k in range(int(spec.n).bit_length() - 1)]
    means = apply_symbols(spec, np.abs(f.values) ** r, np.array([b / c for b, c in balls]))
    # real: at n = 2 the half lattice is the full one and the pass is complex
    return GridFunction(spec, means.real.max(axis=0) ** (1.0 / r))


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
    t |xi| <= sqrt(2)/2 < 1).  The ball sum of each slice's |g|^2 is the
    multiplier of its ball (_ball_symbol); the weighted products of
    transforms are summed over the slices on the half lattice and inverted
    once, which agrees with inverting each slice's product to rounding
    (1e-12 relative).
    """
    if window is None:
        window = AnnularWindow()
    spec = f.spec
    h = spec.h
    xi = _half(spec, spec.freq_norm())
    times = list(zip(tg.values, tg.trapezoid_weights()))
    acc = np.zeros(xi.shape, dtype=complex)
    for k in range(0, len(times), 8):
        rows = [(t, dt, m) for t, dt in times[k:k + 8] if (m := window._at(t * xi)).any()]
        slices = apply_symbols(spec, f.values, np.array([m for *_, m in rows])) if rows else []
        for g, (t, dt, _) in zip(slices, rows):
            ball, _ = _ball_symbol(spec, t / h)
            acc += h**spec.d * dt / t ** (spec.d + 1) * _rfftn(np.abs(g) ** 2, spec.d) * ball
    S2 = _irfftn(acc, spec.d, np.empty(spec.shape))
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
    mag = np.abs(stack.values)
    return _h1_certificate(stack.spec, stack.times, mag.reshape(len(mag), -1).max(axis=1),
                           float(slice_norms(stack.spec, mag, e).max()), e)


def _h1_certificate(spec: GridSpec, ts: np.ndarray, sups: np.ndarray, tpq: float, e) -> H1Certificate:
    """h1_certificate of a stack over the times ts from the sups of |u| per
    slice and tpq = ||u||_T^{p,q}, the largest slice norm: the values a walk
    over chunks of slices keeps (amalgam.hardy)."""
    if tpq == 0:
        raise ValueError("zero stack has no certificate")
    per_t = ts ** (spec.d / (2.0 * _as_exponents(e).max_exp)) * sups / tpq
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
