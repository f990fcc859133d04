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

from .extension import ExtensionStack, _extension_rate, grid_run_id, kernel_block
from .grid import _buffer, _fftn, _full, _hermitian, _mapped, _product, _rfftn, _walk
from .norms import _slice_norms
from .weyl import _half_symbol, _log_grid_derivative, _weyl_matrix

__all__ = [
    "ConjugateField",
    "ResidualReport",
    "harmonic_cr_residual",
    "caloric_cr_residual",
    "sup_vector_amalgam_norm",
    "majorization_report",
    "MajorizationReport",
]

# a walk over a field (grid._walk) has CHUNK_BYTES of complex slices in
# flight over all its parts, and a residual walk, which holds every
# component's slices, their coefficients and the defects, an eighth of that
CHUNK_BYTES = 2**20
# the quadrature residual, here and in amalgam.oracle, reads the slices in the
# QUAD_WINDOW fraction of [t_min, t_max] (the integral needs headroom above t)
QUAD_WINDOW = (0.0, 0.5)
QUAD_NODES = 401  # Simpson nodes of the quadrature


def _quadrature_tail(spec) -> tuple:
    """The quadrature's tail model: profiles settle exponentially no slower
    than the box fundamental mode, at the rate (pi / L)^2."""
    return "exp_decay", (np.pi / spec.L) ** 2


def _modulus(values, out=None) -> np.ndarray:
    """|F| = sqrt(sum |u_a|^2) over the components' values, into out: the
    squares summed in place, in component order."""
    total = None
    for v in values:
        sq = np.abs(v)
        np.square(sq, out=sq)
        total = sq if total is None else np.add(total, sq, out=total)
    return np.sqrt(total, out=out)


def _rows(spec, block: np.ndarray, x: np.ndarray, bufs: dict, key, sym=None, out=None) -> np.ndarray:
    """The slices of a pass on the rows block of a real half-lattice kernel
    block (times the full-lattice symbol sym), built as apply_symbols builds
    them from the transform x (grid._product), into out or else bufs'
    buffer key (grid._buffer): real, through a complex work buffer, when x
    is on the half lattice, else complex, from the block's full-lattice
    copy."""
    half = x.shape[-1] != spec.n
    if out is None:
        out = _buffer(bufs, key, (len(block),) + spec.shape, float if half else complex)
    if not half:
        block = _full(spec, block, out)
        if sym is not None:
            np.multiply(block, sym, out=block)
    if not _product(spec, block, x, out, _buffer(bufs, "work", block.shape) if half else None):
        raise ValueError("multiplier pass produced non-finite values")
    return out


def _magnitudes(F, bufs: dict, i0: int, i1: int) -> np.ndarray:
    """|F| on the time slices i0:i1 of a walk's part with buffers bufs: the
    rows of the record a residual walk kept, else from the chunk."""
    return F._mag[i0:i1] if F._mag is not None else _modulus(F._chunk(bufs, i0, i1))


class ConjugateField:
    """d+1 extension stacks forming a candidate conjugate system.

    A field built from stacks reads slices of them.  A lifted field (the
    lifts of amalgam.hardy) holds the half-lattice kernel block, f's
    spectrum (on the half lattice when f is real) and the R_j f spectra, and
    builds each chunk of time slices of its components where a walk reads
    it, by the row pass of apply_symbols (grid._product): the same bits as
    the stacks.  A caloric lifted field's first residual walk keeps |F|, one
    real stack, for sup_vector_amalgam_norm; components builds the stacks.
    """

    def __init__(self, components, flavor: str):
        comps = tuple(components)
        if flavor not in ("harmonic", "caloric"):
            raise ValueError(f"unknown flavor {flavor!r}")
        if not comps:
            raise ValueError("empty field")
        spec, tg = comps[0].spec, comps[0].tgrid
        if any(c.spec != spec or c.tgrid != tg for c in comps):
            raise ValueError("components must share grid and time grid")
        if len(comps) != spec.d + 1:
            raise ValueError(f"need d+1 = {spec.d + 1} components, got {len(comps)}")
        self._init(spec, tg, flavor, tuple(c.kernel for c in comps), list(comps), None)

    def _init(self, spec, tgrid, flavor, kernels, stacks, source) -> None:
        self.spec, self.tgrid, self.flavor, self.kernels = spec, tgrid, flavor, kernels
        self._stacks, self._source, self._mag = stacks, source, None

    @classmethod
    def _lifted(cls, spec, values, tgrid, kernel: str, flavor: str) -> "ConjugateField":
        """The field (g_1, ..., g_{d+1}) * K_t of the kernel, from the samples
        values of g_1..g_{d+1} (R_1 f, ..., R_d f, f): each g's transform as
        apply_symbols takes it under the half-lattice kernel_block."""
        real = np.isrealobj(values[-1])
        spectra = [_fftn(v, spec.d) for v in values[:-1]]
        spectra.append(_rfftn(values[-1], spec.d) if real and spec.n > 2 else _fftn(values[-1], spec.d))
        F = cls.__new__(cls)
        F._init(spec, tgrid, flavor, (kernel,) * (spec.d + 1), [None] * (spec.d + 1),
                (kernel_block(kernel, spec, tgrid.values), spectra, real))
        return F

    @property
    def components(self) -> tuple:
        """The component stacks: those a lifted field lacks are built on
        first use, by one walk, and kept, each in a mapping of its own
        (grid._mapped), freed with the field; f's real on the half-lattice
        route, every other complex."""
        spec, nt = self.spec, self.tgrid.count
        if missing := [k for k, c in enumerate(self._stacks) if c is None]:
            into = {k: _mapped((nt,) + spec.shape, complex if self._source[1][k].shape[-1] == spec.n else float,
                               populate=True) for k in missing}
            block, spectra, _ = self._source

            def fill(bufs, i0, i1):
                for k in missing:
                    _rows(spec, block[i0:i1], spectra[k], bufs, k, out=into[k][i0:i1])

            _walk(spec, nt, CHUNK_BYTES // (16 * spec.size), fill)
            for k, v in into.items():
                self._stacks[k] = ExtensionStack._from_pass(spec, self.tgrid, v, self.kernels[k])
        return tuple(self._stacks)

    def _chunk(self, bufs: dict, i0: int, i1: int) -> list:
        """The components' values on the time slices i0:i1 of a walk's part
        with buffers bufs: rows of the field's stacks, the others built
        (_rows) into the part's buffers, so a chunk is valid until the next.
        Runs on worker threads, so it calls nothing public."""
        src = self._source
        return [_rows(self.spec, src[0][i0:i1], src[1][k], bufs, k) if c is None else c.values[i0:i1]
                for k, c in enumerate(self._stacks)]

    def _new_record(self):
        """A zeroed real stack for a walk to record |F| in, or None: a caloric
        field that builds a component keeps one, unless it has one (the
        sup-vector norm, read after the residual, is the caloric quantity)."""
        if self.flavor != "caloric" or None not in self._stacks or self._mag is not None:
            return None
        return _mapped((self.tgrid.count,) + self.spec.shape, populate=True)

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


def _sweep(F: ConjugateField, rows: range, keys: tuple, defects) -> dict:
    """Per-slice relative defect norms of F on the time slices in rows.

    The time slices are one walk (grid._walk) in chunks of CHUNK_BYTES // 8.
    Each component's chunk gets one fftn over the space axes; defects(bufs,
    U, lo, hi) gets the part's buffers and the coefficients on the slices
    lo:hi and yields (key, defect coefficients), each normed before the
    next is built, so they may share a buffer; a key keeps its largest
    defect.  The scale of a slice is the sum of its component norms.  When
    F asks for one (_new_record), the walk keeps |F| of every slice.
    """
    spec, nt = F.spec, F.tgrid.count
    scale, worst = np.zeros(nt), {key: np.zeros(len(rows)) for key in keys}
    mag = F._new_record()

    def each(bufs, i0, i1):
        V = F._chunk(bufs, i0, i1)
        if mag is not None:
            _modulus(V, mag[i0:i1])
        U = [_fftn(v, spec.d, _buffer(bufs, ("coeffs", a), v.shape)) for a, v in enumerate(V)]
        scale[i0:i1] = sum(_parseval_norms(u, spec) for u in U)
        lo, hi = max(i0, rows.start), min(i1, rows.stop)
        for key, g in defects(bufs, [u[lo - i0:hi - i0] for u in U], lo, hi) if lo < hi else ():
            out = worst[key][lo - rows.start:hi - rows.start]
            np.maximum(out, _parseval_norms(g, spec), out=out)

    _walk(spec, nt, CHUNK_BYTES // (128 * spec.size), each)
    if not all(np.all(np.isfinite(v)) for v in (scale, *worst.values())):
        raise ValueError("residual norms are not finite")
    if np.max(scale) == 0:
        raise ValueError("all-zero field has no relative residual")
    if mag is not None:
        F._mag = mag
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

    def defects(bufs, U, lo, hi):
        g, w = (_buffer(bufs, key, U[0].shape) for key in ("defect", "term"))

        def D(a, j, out):  # d u_a / d x_j with x_{d+1} = t, into out
            if j < d:
                return np.multiply(grad[j], U[a], out=out)
            if F.kernels[a] in dt_symbol:
                return np.multiply(dt_symbol[F.kernels[a]], U[a], out=out)
            # centered differences in t act on the coefficients of the slices
            # lo:hi and of one neighbour slice on each side (of a field built
            # from stacks: a lifted field's kernels have exact symbols)
            c, s, e = F.components[a], max(lo - 1, 0), min(hi + 1, nt)
            out[...] = _log_grid_derivative(_fftn(c.values[s:e], d), c.times[s:e])[lo - s:hi - s]
            return out

        for a in range(d + 1):
            for b in range(a + 1, d + 1):
                yield "sym_res", np.subtract(D(a, b, g), D(b, a, w), out=g)
        D(0, 0, g)
        for a in range(1, d + 1):
            np.add(g, D(a, a, w), out=g)
        yield "div_res", g

    exact = all(k in dt_symbol for k in F.kernels)
    return ResidualReport(
        "harmonic", "spectral", _sweep(F, range(nt), ("sym_res", "div_res"), defects),
        F.tgrid.values, "exact-symbol" if exact else "log-grid-differences",
        grid_id=grid_run_id(spec, F.tgrid),
    )


def _quadrature_half(F: ConjugateField) -> tuple:
    """The slices whose t lies in the QUAD_WINDOW fraction of [t_min, t_max],
    as a range, and half(bufs, a, U, lo, hi): the coefficients of the
    quadrature half-derivative of component a on the slices lo:hi of that
    range in a sweep's part with buffers bufs, into the part's buffer "half".

    W acts on t and the transform on x, so the two commute: a lifted
    field's slice coefficients are rows of its half-lattice kernel block
    times a spectrum, and their half-derivative rows of W @ block times the
    spectrum.  W is purely imaginary, so W @ block is one real product, on
    the rows of the window, and a lifted field's walk reads no stack.  A
    field built from stacks forms each slice's row of W @ values where the
    walk reads it, one real vector-matrix product a slice, and transforms
    it in place: it holds no rows from one chunk to the next.
    """
    spec, ts = F.spec, F.tgrid.values
    lo, hi = (ts[0] + w * (ts[-1] - ts[0]) for w in QUAD_WINDOW)
    idx = [i for i, t in enumerate(ts) if lo <= t <= hi and t < ts[-1]]
    if not idx:
        raise ValueError("quadrature window selects no slices")
    rows = range(idx[0], idx[-1] + 1)
    # strip the exact t-constant part (spatial mean) and hand the rest to
    # the quadrature.  W is linear, so W @ (v - dc) = W @ v - dc (W @ 1)
    # needs no shifted copy: the shift is at xi = 0 alone.
    W = _weyl_matrix(ts, ts[rows.start:rows.stop], _quadrature_tail(spec), QUAD_NODES)
    W1, Wi = W.sum(axis=1), np.ascontiguousarray(W.imag)
    if F._source is not None:
        block, spectra, _ = F._source
        WB = Wi @ block.reshape(len(ts), -1)
        WB = WB.reshape((len(rows),) + block.shape[1:])
        spectra = [x if x.shape[-1] == spec.n else _hermitian(spec, x) for x in spectra]
        # N dc, N the node count, is slice 0's coefficient at xi = 0
        zero = (0,) * spec.d
        shift = [block[0][zero] * x[zero] * W1.imag for x in spectra]

        def half(bufs, a, U, lo, hi):
            k = slice(lo - rows.start, hi - rows.start)
            h = _full(spec, WB[k], _buffer(bufs, "half", U[a].shape))
            np.multiply(h, spectra[a], out=h)
            h[(slice(None),) + zero] -= shift[a][k]
            return np.multiply(1j, h, out=h)

        return rows, half
    flat = [c.values.reshape(len(ts), -1) for c in F.components]
    dc = [complex(np.mean(c.values[0])) for c in F.components]

    def half(bufs, a, U, lo, hi):
        # one real product a slice, on a complex stack's (re, im) pairs: BLAS
        # rounds a row of a taller product otherwise, so a slice is the same
        # bits in any chunk of any part
        h, v = _buffer(bufs, "half", U[a].shape), flat[a]
        for i, row in zip(range(lo - rows.start, hi - rows.start), h.reshape(hi - lo, -1)):
            np.multiply(1j, (Wi[i] @ v.view(float)).view(v.dtype), out=row)
            row -= dc[a] * W1[i]
        return _fftn(h, spec.d, h)

    return rows, half


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
    # half(bufs, a, U, lo, hi): d_t^(1/2) u_a on the slices lo:hi, as coefficients
    if mode == "spectral":
        if any(k != "heat" for k in F.kernels):
            raise ValueError("spectral mode needs heat-built stacks")
        rows, half_symbol = range(F.tgrid.count), _half_symbol(spec)
        half = lambda bufs, a, U, lo, hi: np.multiply(half_symbol, U[a], out=_buffer(bufs, "half", U[a].shape))
    else:
        rows, half = _quadrature_half(F)

    def defects(bufs, U, lo, hi):
        # each defect is built in the part's buffers, in the order of its
        # formula: g = grad_0 u_0 + ... - i half(u_d), and so on
        g, w = (_buffer(bufs, key, U[0].shape) for key in ("defect", "term"))
        np.multiply(grad[0], U[0], out=g)
        for j in range(1, d):
            np.add(g, np.multiply(grad[j], U[j], out=w), out=g)
        ihalf = lambda a: np.multiply(1j, half(bufs, a, U, lo, hi), out=w)
        yield "a_res", np.subtract(g, ihalf(d), out=g)
        if d == 2:
            np.multiply(grad[1], U[0], out=g)
            yield "b_res", np.subtract(g, np.multiply(grad[0], U[1], out=w), out=g)
        for j in range(d):
            yield "c_res", np.add(np.multiply(grad[j], U[d], out=g), ihalf(j), out=g)

    return ResidualReport(
        "caloric", mode, _sweep(F, rows, ("a_res", "b_res", "c_res"), defects),
        F.tgrid.values[rows.start:rows.stop], f"half-derivative-{mode}",
        grid_id=grid_run_id(spec, F.tgrid),
    )


def sup_vector_amalgam_norm(F: ConjugateField, e) -> float:
    """max over t of the (p, q) amalgam norm of the pointwise magnitude
    |F(., t)|, from one walk over the time slices (grid._walk): |F| of a
    chunk of slices at a time (the rows of the record a residual walk kept,
    else from the chunk), normed, the maxima folded."""
    norm = lambda bufs, i0, i1: _slice_norms(F.spec, _magnitudes(F, bufs, i0, i1), e).max()
    return float(_walk(F.spec, F.tgrid.count, CHUNK_BYTES // (16 * F.spec.size), norm, max))


@dataclass(frozen=True)
class MajorizationReport:
    max_violation: float
    peak: float
    per_slice: np.ndarray = field(repr=False)


def majorization_report(F: ConjugateField) -> MajorizationReport:
    """Poisson domination of the field magnitude from its first slice.

    Checks |F(x, t_i)| <= (P_{t_i - t_0} * |F(., t_0)|)(x) at every node and
    slice i >= 1; returns the largest positive defect and the field peak that
    calibrates the tolerance.  |F(., t_0)| is taken once; the later slices
    are one walk (grid._walk), a chunk's dominating slices the rows of the
    block times the transform of |F(., t_0)| (_rows, the row pass of
    apply_symbols), so neither |F| nor the dominating stack is ever whole.
    """
    spec, ts, nt = F.spec, F.tgrid.values, F.tgrid.count
    block, base = kernel_block("poisson", spec, ts[1:] - ts[0]), _magnitudes(F, {}, 0, 1)[0]
    x = _rfftn(base, spec.d) if spec.n > 2 else _fftn(base, spec.d)
    worst = np.empty(nt - 1)

    def each(bufs, i0, i1):  # the slices i0 + 1:i1 + 1
        m = _magnitudes(F, bufs, i0 + 1, i1 + 1)
        defect = m - _rows(spec, block[i0:i1], x, bufs, "poisson")
        worst[i0:i1] = np.max(defect.reshape(i1 - i0, -1), axis=1)
        return float(np.max(m))

    peak = _walk(spec, nt - 1, CHUNK_BYTES // (16 * spec.size), each, max)
    return MajorizationReport(float(np.max(worst)), max(float(np.max(base)), peak), worst)
