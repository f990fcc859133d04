"""Amalgam quasi-norms and the inequality gadgets built on them.

The (p, q) quasi-norm aggregates local L^p mass over a unit-scale partition
in an outer l^q sense.  Two window realizations are provided:

* ``discrete`` - unit cubes k + [0,1)^d anchored at the integer lattice.
  Exact on the grid (every unit cube is a whole number of cells), and the
  testing workhorse: p = q collapses to lp_norm with no quadrature error.
* ``ball`` - the displayed continuum form (integral over ball centers y of
  the local mass on B(y,1)).  The inner convolution uses cell-area weights
  for the unit-ball indicator, which keeps the p = q Fubini collapse
  |B(0,1)|^(1/p) * lp_norm exact as well.

p < 1 and q < 1 are accepted everywhere; no triangle inequality is implied
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridFunction, GridSpec, _mapped, sup_norm
from .spectral import convolve

__all__ = [
    "Exponents",
    "GapReport",
    "amalgam_norm",
    "slice_norms",
    "holder_gap",
    "interpolation_gap",
    "ball_window_weights",
]


@dataclass(frozen=True)
class Exponents:
    """Validated exponent pair 0 < p, q < infinity with conjugates and thresholds."""

    p: float
    q: float

    def __post_init__(self):
        for name, v in (("p", self.p), ("q", self.q)):
            if not (0 < v < math.inf):
                raise ValueError(f"exponent {name} must lie in (0, inf), got {v}")

    @property
    def p_conj(self) -> float:
        """Conjugate p' = p/(p-1), defined for p > 1."""
        if self.p <= 1:
            raise ValueError(f"conjugate exponent undefined for p={self.p} <= 1")
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        if self.q <= 1:
            raise ValueError(f"conjugate exponent undefined for q={self.q} <= 1")
        return self.q / (self.q - 1.0)

    @property
    def min_exp(self) -> float:
        return min(self.p, self.q)

    @property
    def max_exp(self) -> float:
        return max(self.p, self.q)

    def conjugate(self) -> "Exponents":
        return Exponents(self.p_conj, self.q_conj)

    def scaled(self, alpha: float) -> "Exponents":
        return Exponents(alpha * self.p, alpha * self.q)

    def riesz_threshold_ok(self, d: int, order: int = 1) -> bool:
        """min{p,q} > (d-1)/(d+order-1), the regime of the order-`order`
        Riesz-composition characterization."""
        return self.min_exp > (d - 1) / (d + order - 1)


def _as_exponents(e) -> Exponents:
    if isinstance(e, Exponents):
        return e
    p, q = e
    return Exponents(float(p), float(q))


def _disk_segment(x0: float, x1: float, c: float) -> float:
    """integral over [x0,x1] of min(c, sqrt(1-x^2)), inputs clipped to [-1,1], c >= 0."""
    def F(x):
        x = min(1.0, max(-1.0, x))
        return 0.5 * (x * math.sqrt(max(0.0, 1.0 - x * x)) + math.asin(x))

    if x1 <= x0:
        return 0.0
    if c >= 1.0:
        return F(x1) - F(x0)
    s = math.sqrt(1.0 - c * c)
    total = 0.0
    lo, hi = max(x0, -s), min(x1, s)
    if hi > lo:
        total += c * (hi - lo)
    if x0 < -s:
        total += F(min(x1, -s)) - F(x0)
    if x1 > s:
        total += F(x1) - F(max(x0, s))
    return total


def _disk_cell_area(x0: float, x1: float, y0: float, y1: float) -> float:
    """Area of [x0,x1] x [y0,y1] intersected with the closed unit disk."""
    x0, x1 = max(x0, -1.0), min(x1, 1.0)
    if x1 <= x0:
        return 0.0

    def below(y):
        # signed area between the x-axis and the clipped height min(max(y,-g),g)
        if y >= 0:
            return _disk_segment(x0, x1, y)
        return -_disk_segment(x0, x1, -y)

    return below(y1) - below(y0)


@lru_cache(maxsize=8)
def _ball_weights_cached(d: int, L: int, n: int) -> np.ndarray:
    spec = GridSpec(d, L, n)
    h = spec.h
    x = spec.axis_nodes()
    if d == 1:
        # cells [x, x+h) tile [-1, 1) exactly
        return ((x >= -1.0) & (x < 1.0)).astype(float)
    w = _mapped(spec.shape)  # cached for the process
    r_out_axis = np.maximum(np.abs(x), np.abs(x + h))
    r_in_axis = np.where(np.sign(x) != np.sign(x + h), 0.0, np.minimum(np.abs(x), np.abs(x + h)))
    for i in range(spec.n):
        if r_in_axis[i] > 1.0:
            continue
        for j in range(spec.n):
            lo = math.hypot(r_in_axis[i], r_in_axis[j])
            hi = math.hypot(r_out_axis[i], r_out_axis[j])
            if lo >= 1.0:
                continue
            if hi <= 1.0:
                w[i, j] = 1.0
            else:
                w[i, j] = _disk_cell_area(x[i], x[i] + h, x[j], x[j] + h) / (h * h)
    return w


def ball_window_weights(spec: GridSpec) -> GridFunction:
    """Cell-area-fraction samples of the unit-ball indicator.

    Sums to |B(0,1)| * h^-d exactly, which makes the p = q Fubini collapse of
    the ball-window norm exact on the periodic grid.
    """
    return GridFunction(spec, _ball_weights_cached(spec.d, spec.L, spec.n))


def amalgam_norm(f: GridFunction, e, window: str = "discrete") -> float:
    """The (p, q) amalgam quasi-norm of f.

    discrete: (sum_cubes (int_Q |f|^p)^(q/p))^(1/q) over unit cubes anchored
    at the integer lattice.  ball: the same with cube masses replaced by the
    sliding unit-ball masses (|f|^p * 1_B)(y) and an outer integral in y.
    """
    e = _as_exponents(e)
    spec = f.spec
    if window == "discrete":
        return float(slice_norms(spec, f.values[None], e)[0])
    if window == "ball":
        dens = GridFunction(spec, np.abs(f.values) ** e.p)
        local = convolve(dens, ball_window_weights(spec))
        local_mass = np.maximum(local.values.real, 0.0)
        outer = spec.h**spec.d * np.sum(local_mass ** (e.q / e.p))
        return float(outer ** (1.0 / e.q))
    raise ValueError(f"unknown window {window!r}")


def slice_norms(spec: GridSpec, block: np.ndarray, e) -> np.ndarray:
    """Discrete-window (p, q) amalgam norm of every slice of a (k,) + grid
    block, without a GridFunction per slice: the integrals of |block|^p over
    the unit cubes k + [0,1)^d, summed per slice in the outer l^q sense."""
    return _slice_norms(spec, block, e)


def _slice_norms(spec: GridSpec, block: np.ndarray, e) -> np.ndarray:
    """slice_norms, for worker threads: a per-call hook on the public name
    (a profiler's, say) then sees only calls from the calling thread.  The
    norm of a slice is the same bits in a block of any height."""
    e = _as_exponents(e)
    m = spec.n // (2 * spec.L)
    dens = np.abs(block)
    dens **= e.p
    if spec.d == 1:
        cubes = dens.reshape(len(block), 2 * spec.L, m).sum(axis=-1)
    else:
        cubes = dens.reshape(len(block), 2 * spec.L, m, 2 * spec.L, m).sum(axis=(-3, -1))
    cubes = cubes * spec.h**spec.d
    sums = np.sum(cubes.reshape(len(block), -1) ** (e.q / e.p), axis=1)
    # a scalar root per slice: numpy's SIMD array power may round differently
    return np.array([s ** (1.0 / e.q) for s in sums])


@dataclass(frozen=True)
class GapReport:
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs


def holder_gap(f: GridFunction, g: GridFunction, e) -> GapReport:
    """Two-sided Hoelder check: |h^d sum f conj(g)| against the product of
    dual amalgam norms.  Exact (gap >= 0 up to rounding) for the discrete
    window; requires p, q > 1."""
    e = _as_exponents(e)
    if f.spec != g.spec:
        raise ValueError("grid mismatch")
    if e.p <= 1 or e.q <= 1:
        raise ValueError(f"Hoelder pairing needs p, q > 1, got ({e.p}, {e.q})")
    h = f.spec.h**f.spec.d
    lhs = abs(complex(h * np.sum(f.values * np.conj(g.values))))
    rhs = amalgam_norm(f, e) * amalgam_norm(g, e.conjugate())
    return GapReport(float(lhs), float(rhs))


def interpolation_gap(g: GridFunction, e, alpha: float) -> GapReport:
    """Sup-norm interpolation check: the (alpha p, alpha q) norm against
    sup^(1-1/alpha) times the (p, q) norm to the 1/alpha."""
    e = _as_exponents(e)
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    peak = sup_norm(g)
    if peak == 0:
        raise ValueError("interpolation gap undefined for the zero function")
    lhs = amalgam_norm(g, e.scaled(alpha))
    rhs = peak ** (1.0 - 1.0 / alpha) * amalgam_norm(g, e) ** (1.0 / alpha)
    return GapReport(float(lhs), float(rhs))
