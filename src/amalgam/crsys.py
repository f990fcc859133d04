"""Residual checkers for harmonic and caloric conjugate systems.

A candidate field F = (u_1, ..., u_{d+1}) is a tuple of extension stacks on
one grid and time grid, with x_{d+1} identified with t.

harmonic flavor: Jacobian symmetry d_{x_k} u_j = d_{x_j} u_k for all pairs
(including the t axis) plus zero divergence sum_j d_{x_j} u_j = 0.

caloric flavor: the temperature system coupling space derivatives to the
Weyl half-derivative in t,

    (a)  sum_{j<=d} d_{x_j} u_j = i d_t^(1/2) u_{d+1}
    (b)  d_{x_k} u_j = d_{x_j} u_k,  j, k <= d
    (c)  d_{x_j} u_{d+1} = -i d_t^(1/2) u_j.

Residuals are relative: each slice's defect norm is divided by the sum of the
component L^2 norms of that slice, so values are grid- and amplitude-
comparable.  Defects are built from the components' DFT coefficients and
normed there (Plancherel); the grid-space formulas are in amalgam.oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .extension import _extension_rate, grid_run_id, kernel_block
from .grid import _fftn, _run_parts, _slice_parts, apply_symbols
from .norms import _slice_norms
from .weyl import _half_symbol, _log_grid_derivative, _weyl_matrix

__all__ = [
    "ConjugateField",
    "ResidualReport",
    "harmonic_cr_residual",
    "caloric_cr_residual",
    "sup_vector_amalgam_norm",
    "sup_vector_amalgam_norms",
    "majorization_report",
    "MajorizationReport",
]

CHUNK = 2  # time slices in flight, over all parts: a residual call never holds a whole stack
QUAD_ROWS = 4 * CHUNK  # quadrature half-derivative slices formed per matrix product
# the quadrature residual, here and in amalgam.oracle, reads the slices in the
# QUAD_WINDOW fraction of [t_min, t_max] (the integral needs headroom above t)
QUAD_WINDOW = (0.0, 0.5)
QUAD_NODES = 401  # Simpson nodes of the quadrature


def _quadrature_tail(spec) -> tuple:
    """The quadrature's tail model: profiles settle exponentially no slower
    than the box fundamental mode, at the rate (pi / L)^2."""
    return "exp_decay", (np.pi / spec.L) ** 2


@dataclass(frozen=True)
class ConjugateField:
    """d+1 extension stacks forming a candidate conjugate system."""

    components: tuple
    flavor: str

    def __post_init__(self):
        comps = tuple(self.components)
        if self.flavor not in ("harmonic", "caloric"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if not comps:
            raise ValueError("empty field")
        spec = comps[0].spec
        tg = comps[0].tgrid
        if any(c.spec != spec or c.tgrid != tg for c in comps):
            raise ValueError("components must share grid and time grid")
        if len(comps) != spec.d + 1:
            raise ValueError(f"need d+1 = {spec.d + 1} components, got {len(comps)}")
        object.__setattr__(self, "components", comps)

    @property
    def spec(self):
        return self.components[0].spec

    @property
    def tgrid(self):
        return self.components[0].tgrid

    def scaled_component(self, index: int, factor: complex) -> "ConjugateField":
        comps = list(self.components)
        comps[index] = comps[index].map_values(lambda v: factor * v)
        return ConjugateField(tuple(comps), self.flavor)


@dataclass(frozen=True)
class ResidualReport:
    flavor: str
    mode: str
    per_slice: dict = field(repr=False)
    times: np.ndarray = field(repr=False)
    time_derivative_mode: str = "exact-symbol"
    grid_id: str = ""

    def max_of(self, key: str) -> float:
        arr = self.per_slice[key]
        return float(np.max(arr)) if arr.size else 0.0

    def to_jsonable(self) -> dict:
        return {
            "flavor": self.flavor,
            "mode": self.mode,
            "grid_id": self.grid_id,
            "time_derivative_mode": self.time_derivative_mode,
            "times": [float(t) for t in self.times],
            "per_slice": {k: [float(v) for v in arr] for k, arr in self.per_slice.items()},
            "max": {k: self.max_of(k) for k in self.per_slice},
        }


def _parseval_norms(coeffs: np.ndarray, spec) -> np.ndarray:
    """Grid L^2 norm of each slice from its DFT over the space axes,
    sqrt(h^d/N sum |g^|^2) by Plancherel, with no |g|^2 temporary.  einsum
    rounds a lone row differently from the same row in a block of two or
    more, so a lone row is summed as a block of two (a broadcast view): a
    slice's norm is the same bits in a chunk of any height."""
    flat = coeffs.reshape(coeffs.shape[0], -1).view(float)
    block = flat if len(flat) > 1 else np.broadcast_to(flat, (2, flat.shape[1]))
    sums = np.einsum("ij,ij->i", block, block)[:len(flat)]
    return np.sqrt(spec.h**spec.d / spec.size * sums)


def _sweep(F: ConjugateField, rows: range, keys: tuple, part_defects, align: int = 1) -> dict:
    """Per-slice relative defect norms of F on the time slices in rows.

    The time slices are split into parts across the CPUs (_slice_parts, part
    boundaries at multiples of align).  CHUNK slices are in flight over all
    parts together (one per part when there are more parts than that).  Each
    chunk of a part's slices of every component is transformed once (fftn
    over the space axes); the part's defects(U, lo, hi), from
    part_defects(), gets the coefficients on the slices lo:hi and yields
    (key, defect coefficients); a key keeps its largest defect.  The scale of
    a slice is the sum of its component norms.
    """
    spec, nt = F.spec, F.tgrid.count
    scale, worst = np.zeros(nt), {key: np.zeros(len(rows)) for key in keys}
    parts = _slice_parts(spec, nt, align)
    step = max(CHUNK // len(parts), 1)

    def run(part):
        defects = part_defects()
        for i0 in range(part.start, part.stop, step):
            i1 = min(i0 + step, part.stop)
            U = [_fftn(c.values[i0:i1], spec.d) for c in F.components]
            scale[i0:i1] = sum(_parseval_norms(u, spec) for u in U)
            lo, hi = max(i0, rows.start), min(i1, rows.stop)
            for key, g in defects([u[lo - i0:hi - i0] for u in U], lo, hi) if lo < hi else ():
                out = worst[key][lo - rows.start:hi - rows.start]
                np.maximum(out, _parseval_norms(g, spec), out=out)

    _run_parts(run, parts)
    if not all(np.all(np.isfinite(v)) for v in (scale, *worst.values())):
        raise ValueError("residual norms are not finite")
    if np.max(scale) == 0:
        raise ValueError("all-zero field has no relative residual")
    # floor at 1e-8 of the peak slice scale: once a slice has decayed that
    # far, defect/scale only measures rounding noise, not the system
    scale = np.maximum(scale, np.max(scale) * 1e-8)[rows.start:rows.stop]
    return {key: v / scale for key, v in worst.items()}


def harmonic_cr_residual(F: ConjugateField) -> ResidualReport:
    """Jacobian-symmetry and divergence defects of a harmonic candidate field."""
    if F.flavor != "harmonic":
        raise ValueError("harmonic residual of a non-harmonic field")
    spec, d, nt = F.spec, F.spec.d, F.tgrid.count
    grad = [2j * np.pi * xi for xi in spec.freqs()]
    dt_symbol = {k: np.multiply(*_extension_rate(k, spec)) for k in ("heat", "poisson")}

    def dt(c, u, lo, hi):
        if c.kernel in dt_symbol:
            return dt_symbol[c.kernel] * u
        # centered differences in t act on the coefficients of the slices
        # lo:hi and of one neighbour slice on each side
        s, e = max(lo - 1, 0), min(hi + 1, nt)
        coeffs = _fftn(c.values[s:e], d)
        return _log_grid_derivative(coeffs, c.times[s:e])[lo - s:hi - s]

    def defects(U, lo, hi):
        # D(a, j) = d u_a / d x_j with x_{d+1} = t
        D = lambda a, j: dt(F.components[a], U[a], lo, hi) if j == d else grad[j] * U[a]
        yield from (("sym_res", D(a, b) - D(b, a)) for a in range(d + 1) for b in range(a + 1, d + 1))
        yield "div_res", sum(D(a, a) for a in range(d + 1))

    exact = all(c.kernel in dt_symbol for c in F.components)
    return ResidualReport(
        "harmonic", "spectral", _sweep(F, range(nt), ("sym_res", "div_res"), lambda: defects),
        F.tgrid.values, "exact-symbol" if exact else "log-grid-differences",
        grid_id=grid_run_id(spec, F.tgrid),
    )


def _quadrature_half(F: ConjugateField) -> tuple:
    """The slices whose t lies in the QUAD_WINDOW fraction of [t_min, t_max],
    as a range, and new_half(): for one part of a sweep, half(a, U, lo, hi),
    the coefficients of the quadrature half-derivative of component a on the
    slices lo:hi of that range, formed on demand as rows of W @ values."""
    ts = F.tgrid.values
    lo, hi = (ts[0] + w * (ts[-1] - ts[0]) for w in QUAD_WINDOW)
    idx = [i for i, t in enumerate(ts) if lo <= t <= hi and t < ts[-1]]
    if not idx:
        raise ValueError("quadrature window selects no slices")
    rows = range(idx[0], idx[-1] + 1)
    # strip the exact t-constant part (spatial mean) and hand the rest to
    # the quadrature.  W is linear, so W @ (v - dc) = W @ v - dc (W @ 1)
    # needs no shifted copy.
    W = _weyl_matrix(ts, ts[rows.start:rows.stop], _quadrature_tail(F.spec), QUAD_NODES)
    W1 = W.sum(axis=1)
    flat = [c.values.reshape(len(ts), -1) for c in F.components]
    dc = [complex(np.mean(c.values[0])) for c in F.components]

    def new_half():
        formed = {}  # this part's: component -> (first slice, its rows of W @ values from there)

        def half(a, U, lo, hi):
            # a product reads the whole component stack, so its rows are
            # formed QUAD_ROWS slices at a time, aligned like the sweep's parts
            start = lo - lo % QUAD_ROWS
            b, e = max(start, rows.start), min(start + QUAD_ROWS, rows.stop)
            first, block = formed.get(a, (None, None))
            if first != b:
                k = slice(b - rows.start, e - rows.start)
                block = W[k] @ flat[a]
                block -= dc[a] * W1[k, None]
                formed[a] = b, block
            return _fftn(block[lo - b:hi - b].reshape((hi - lo,) + F.spec.shape), F.spec.d)

        return half

    return rows, new_half


def caloric_cr_residual(F: ConjugateField, mode: str = "spectral") -> ResidualReport:
    """Temperature-system defects (a), (b), (c) of a caloric candidate field.

    mode 'spectral' uses the per-slice half-derivative symbol and needs
    heat-built stacks; 'quadrature' evaluates the defining integral per node
    on the slices whose t lies in the QUAD_WINDOW fraction of [t_min, t_max].
    """
    if F.flavor != "caloric":
        raise ValueError("caloric residual of a non-caloric field")
    if mode not in ("spectral", "quadrature"):
        raise ValueError(f"unknown mode {mode!r}")
    spec, d = F.spec, F.spec.d
    grad = [2j * np.pi * xi for xi in spec.freqs()]
    # new_half() gives one part of the sweep its half(a, U, lo, hi):
    # d_t^(1/2) u_a on the slices lo:hi, as coefficients
    if mode == "spectral":
        if any(c.kernel != "heat" for c in F.components):
            raise ValueError("spectral mode needs heat-built stacks")
        rows, half_symbol = range(F.tgrid.count), _half_symbol(spec)

        def new_half():
            return lambda a, U, lo, hi: half_symbol * U[a]
    else:
        rows, new_half = _quadrature_half(F)

    def part_defects():
        half = new_half()

        def defects(U, lo, hi):
            yield "a_res", sum(grad[j] * U[j] for j in range(d)) - 1j * half(d, U, lo, hi)
            if d == 2:
                yield "b_res", grad[1] * U[0] - grad[0] * U[1]
            for j in range(d):
                yield "c_res", grad[j] * U[d] + 1j * half(j, U, lo, hi)

        return defects

    align = 1 if mode == "spectral" else QUAD_ROWS  # no part forms another's rows
    return ResidualReport(
        "caloric", mode, _sweep(F, rows, ("a_res", "b_res", "c_res"), part_defects, align),
        F.tgrid.values[rows.start:rows.stop], f"half-derivative-{mode}",
        grid_id=grid_run_id(spec, F.tgrid),
    )


def sup_vector_amalgam_norm(F: ConjugateField, e) -> float:
    """max over t of the (p, q) amalgam norm of the pointwise magnitude |F(., t)|."""
    return float(sup_vector_amalgam_norms(F, [e])[0])


def sup_vector_amalgam_norms(F: ConjugateField, exponents) -> np.ndarray:
    """sup_vector_amalgam_norm for every exponent pair, from one walk over the
    time slices split across the CPUs like _sweep: the magnitude of a chunk
    of slices at a time, normed per pair, a maximum per part, then the
    maximum of the parts."""
    spec, nt = F.spec, F.tgrid.count
    parts = _slice_parts(spec, nt)
    step = max(CHUNK // len(parts), 1)

    def part_max(part):
        out = np.zeros(len(exponents))
        for i0 in range(part.start, part.stop, step):
            i1 = min(i0 + step, part.stop)
            mag = np.sqrt(sum(np.abs(c.values[i0:i1]) ** 2 for c in F.components))
            for k, e in enumerate(exponents):
                out[k] = max(out[k], _slice_norms(spec, mag, e).max())
        return out

    return np.max(_run_parts(part_max, parts), axis=0)


@dataclass(frozen=True)
class MajorizationReport:
    max_violation: float
    peak: float
    per_slice: np.ndarray = field(repr=False)


def majorization_report(F: ConjugateField) -> MajorizationReport:
    """Poisson domination of the field magnitude from its first slice.

    Checks |F(x, t_i)| <= (P_{t_i - t_0} * |F(., t_0)|)(x) at every node and
    slice i >= 1; returns the largest positive defect and the field peak that
    calibrates the tolerance.
    """
    spec = F.spec
    ts = F.tgrid.values
    mag = np.sqrt(sum(np.abs(c.values) ** 2 for c in F.components))
    sym = kernel_block("poisson", spec, ts[1:] - ts[0])
    dominating = apply_symbols(spec, mag[0], sym).real
    defect = (mag[1:] - dominating).reshape(F.tgrid.count - 1, -1)
    worst = np.max(defect, axis=1)
    return MajorizationReport(float(np.max(worst)), float(np.max(mag)), worst)
