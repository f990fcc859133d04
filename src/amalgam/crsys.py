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
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .extension import ExtensionStack, _symbol_block, extension_symbol
from .grid import GridFunction, apply_symbols
from .norms import amalgam_norm
from .weyl import half_derivative_spectral, half_derivative_stack_quadrature, time_derivative

__all__ = [
    "ConjugateField",
    "ResidualReport",
    "harmonic_cr_residual",
    "caloric_cr_residual",
    "sup_vector_amalgam_norm",
    "majorization_report",
    "MajorizationReport",
]


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

    def magnitude_slice(self, i: int) -> GridFunction:
        """Euclidean magnitude |F(., t_i)| over components."""
        sq = sum(np.abs(c.values[i]) ** 2 for c in self.components)
        return GridFunction(self.spec, np.sqrt(sq))

    def scaled_component(self, index: int, factor: complex) -> "ConjugateField":
        comps = list(self.components)
        comps[index] = comps[index].map_values(lambda v: factor * v)
        return ConjugateField(tuple(comps), self.flavor)


def _spatial_derivative(stack: ExtensionStack, j: int) -> np.ndarray:
    """d/dx_j per slice, spectral."""
    return apply_symbols(stack.spec, stack.values, 2j * np.pi * stack.spec.freqs()[j - 1])


def _slice_l2(values: np.ndarray, h: float, d: int) -> np.ndarray:
    return np.sqrt(h**d * np.sum(np.abs(values.reshape(values.shape[0], -1)) ** 2, axis=1))


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


def _field_scale(F: ConjugateField) -> np.ndarray:
    # floor at 1e-8 of the peak slice scale: once a slice has decayed that
    # far, defect/scale only measures rounding noise, not the system
    h, d = F.spec.h, F.spec.d
    scale = sum(_slice_l2(c.values, h, d) for c in F.components)
    if np.max(scale) == 0:
        raise ValueError("all-zero field has no relative residual")
    return np.maximum(scale, np.max(scale) * 1e-8)


def harmonic_cr_residual(F: ConjugateField) -> ResidualReport:
    """Jacobian-symmetry and divergence defects of a harmonic candidate field."""
    if F.flavor != "harmonic":
        raise ValueError("harmonic residual of a non-harmonic field")
    spec, d, h = F.spec, F.spec.d, F.spec.h
    scale = _field_scale(F)

    # derivative matrix: D[a][j] = d u_a / d x_j with x_{d+1} = t
    D = []
    td_mode = None
    for c in F.components:
        row = [_spatial_derivative(c, j) for j in range(1, d + 1)]
        td = time_derivative(c)
        td_mode = "exact-symbol" if c.kernel in ("heat", "poisson") else "log-grid-differences"
        row.append(td.values)
        D.append(row)

    nt = F.tgrid.count
    sym = np.zeros(nt)
    for a in range(d + 1):
        for b in range(a + 1, d + 1):
            defect = _slice_l2(D[a][b] - D[b][a], h, d)
            sym = np.maximum(sym, defect / scale)
    div = _slice_l2(sum(D[a][a] for a in range(d + 1)), h, d) / scale
    return ResidualReport(
        "harmonic", "spectral",
        {"sym_res": sym, "div_res": div},
        F.tgrid.values, td_mode,
        grid_id=f"{spec.grid_id()}-{F.tgrid.grid_id()}",
    )


def caloric_cr_residual(F: ConjugateField, mode: str = "spectral",
                        quadrature_time_window: tuple = (0.0, 0.5)) -> ResidualReport:
    """Temperature-system defects (a), (b), (c) of a caloric candidate field.

    mode 'spectral' uses the per-slice half-derivative symbol and needs
    heat-built stacks; 'quadrature' evaluates the defining integral per node
    on the slices whose t lies in the given fraction window of [t_min, t_max]
    (the integral needs headroom above t, so late slices are excluded).
    """
    if F.flavor != "caloric":
        raise ValueError("caloric residual of a non-caloric field")
    if mode not in ("spectral", "quadrature"):
        raise ValueError(f"unknown mode {mode!r}")
    spec, d, h = F.spec, F.spec.d, F.spec.h
    ts = F.tgrid.values
    scale = _field_scale(F)

    if mode == "spectral":
        if any(c.kernel != "heat" for c in F.components):
            raise ValueError("spectral mode needs heat-built stacks")
        half = [half_derivative_spectral(c).values for c in F.components]
        idx = np.arange(F.tgrid.count)
    else:
        lo = ts[0] + quadrature_time_window[0] * (ts[-1] - ts[0])
        hi = ts[0] + quadrature_time_window[1] * (ts[-1] - ts[0])
        idx = np.array([i for i, t in enumerate(ts) if lo <= t <= hi and t < ts[-1]])
        if idx.size == 0:
            raise ValueError("quadrature window selects no slices")
        # profiles settle exponentially no slower than the box fundamental
        # mode; strip the exact t-constant part (spatial mean) and hand the
        # rest to the quadrature with that decay rate as its tail model
        lam_min = (np.pi / spec.L) ** 2
        half = []
        for c in F.components:
            dc = complex(np.mean(c.values[0]))
            shifted = c.map_values(lambda v: v - dc)
            half.append(half_derivative_stack_quadrature(
                shifted, ts[idx], tail=("exp_decay", lam_min), n_quad=401))

    grad = [[_spatial_derivative(c, j)[idx] for j in range(1, d + 1)] for c in F.components]
    scale_w = scale[idx]

    div = sum(grad[j - 1][j - 1] for j in range(1, d + 1))
    a_res = _slice_l2(div - 1j * half[d], h, d) / scale_w

    if d == 1:
        b_res = np.zeros(idx.size)
    else:
        b_res = _slice_l2(grad[0][1] - grad[1][0], h, d) / scale_w

    c_res = np.zeros(idx.size)
    for j in range(1, d + 1):
        defect = grad[d][j - 1] + 1j * half[j - 1]
        c_res = np.maximum(c_res, _slice_l2(defect, h, d) / scale_w)

    times = ts[idx]
    return ResidualReport(
        "caloric", mode,
        {"a_res": a_res, "b_res": b_res, "c_res": c_res},
        times,
        time_derivative_mode=f"half-derivative-{mode}",
        grid_id=f"{spec.grid_id()}-{F.tgrid.grid_id()}",
    )


def sup_vector_amalgam_norm(F: ConjugateField, e) -> float:
    """max over t of the (p, q) amalgam norm of the pointwise magnitude |F(., t)|."""
    return max(
        amalgam_norm(F.magnitude_slice(i), e) for i in range(F.tgrid.count)
    )


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
    sym = _symbol_block(spec, ts[1:] - ts[0], lambda s: extension_symbol("poisson", spec, s))
    dominating = apply_symbols(spec, mag[0], sym).real
    defect = (mag[1:] - dominating).reshape(F.tgrid.count - 1, -1)
    worst = np.max(defect, axis=1)
    return MajorizationReport(float(np.max(worst)), float(np.max(mag)), worst)
