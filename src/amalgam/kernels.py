"""Box-consistent kernel bank.

`poisson_kernel`, `heat_kernel`, `conjugate_poisson_kernel` and
`caloric_conjugate_kernel` return the periodic counterpart of each classical
kernel on the grid's box, i.e. the lattice sum K_per(x) = sum_m K(x + 2Lm),
computed by the most exact route available per kernel:

* Poisson / conjugate Poisson, d=1: closed cotangent forms of the lattice
  sums (exact periodization).
* heat, d=1 and d=2: separable Gaussian image sums, truncated below double
  underflow.
* Poisson / conjugate Poisson, d=2: spectral synthesis from the exact
  transforms exp(-2 pi t |xi|) and -i xi_j/|xi| exp(-2 pi t |xi|).
* caloric conjugates S_j(.,t): spectral synthesis from the symbol
  -i xi_j/|xi| exp(-4 pi^2 t |xi|^2).

The slowly decaying kernels need the image sums: pointwise samples would
break the unit-mass and Riesz-conjugacy identities at the box scale.
Pointwise (non-periodized) evaluation stays available via `grid.sample`
and `analytic`.

The Riesz kernel split K_j = K_near + K_far (inside/outside the unit ball)
is pointwise by construction: the near part is compactly supported and the
far part feeds the direct principal-value oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .extension import extension_symbol
from .grid import GridFunction, GridSpec, apply_symbols
from .spectral import riesz_multiplier

__all__ = [
    "poisson_kernel",
    "heat_kernel",
    "conjugate_poisson_kernel",
    "caloric_conjugate_kernel",
    "riesz_kernel_split",
    "decay_certificate",
    "CertificateReport",
    "half_derivative_heat_pointwise",
]


def _require_t(t) -> float:
    if t is None or t <= 0:
        raise ValueError(f"kernel time parameter must be positive, got {t}")
    return float(t)


# -- periodized closed forms -------------------------------------------------


def _cot_periodic_1d(x: np.ndarray, t: float, L: int) -> tuple:
    """(Poisson, conjugate Poisson) lattice sums at the nodes x:
    sum_m (1/pi) t/(t^2+(x+2Lm)^2) = -Im cot(pi (x+it)/2L) / 2L and
    sum_m (1/pi) (x+2Lm)/(t^2+(x+2Lm)^2) = Re cot(pi (x+it)/2L) / 2L."""
    c = 2.0 * L
    w = 1.0 / np.tan(np.pi * (x + 1j * t) / c)
    return -w.imag / c, w.real / c


def _heat_periodic_axis(x: np.ndarray, t: float, L: int) -> np.ndarray:
    # image sum of the 1-d Gaussian factor; M covers everything above underflow
    M = int(math.ceil((math.sqrt(4.0 * t * 745.0) + L) / (2.0 * L)))
    acc = np.zeros_like(x)
    for m in range(-M, M + 1):
        acc += np.exp(-((x + 2.0 * L * m) ** 2) / (4.0 * t))
    return acc / math.sqrt(4.0 * math.pi * t)


def _spectral_kernel(spec: GridSpec, symbol: np.ndarray) -> GridFunction:
    """The kernel whose transform is symbol: the multiplier applied to the
    unit impulse h^-d at the origin, node n/2 of every axis."""
    impulse = np.zeros(spec.shape)
    impulse[(spec.n // 2,) * spec.d] = spec.h**-spec.d
    return GridFunction(spec, apply_symbols(spec, impulse, symbol))


def poisson_kernel(spec: GridSpec, t) -> GridFunction:
    t = _require_t(t)
    if spec.d == 1:
        return GridFunction(spec, _cot_periodic_1d(spec.axis_nodes(), t, spec.L)[0])
    return _spectral_kernel(spec, extension_symbol("poisson", spec, t))


def conjugate_poisson_kernel(spec: GridSpec, t, j: int = 1) -> GridFunction:
    t = _require_t(t)
    if not 1 <= j <= spec.d:  # the d=1 closed form never reaches riesz_multiplier's check
        raise ValueError(f"axis j={j} out of range for d={spec.d}")
    if spec.d == 1:
        return GridFunction(spec, _cot_periodic_1d(spec.axis_nodes(), t, spec.L)[1])
    return _spectral_kernel(spec, riesz_multiplier(spec, [j]) * extension_symbol("poisson", spec, t))


def heat_kernel(spec: GridSpec, t) -> GridFunction:
    t = _require_t(t)
    axes1d = [_heat_periodic_axis(spec.axis_nodes(), t, spec.L)]
    if spec.d == 1:
        return GridFunction(spec, axes1d[0])
    return GridFunction(spec, np.multiply.outer(axes1d[0], axes1d[0]))


def caloric_conjugate_kernel(spec: GridSpec, t, j: int = 1) -> GridFunction:
    """S_j(., t): the Riesz transform of the heat kernel, built spectrally."""
    t = _require_t(t)
    return _spectral_kernel(spec, riesz_multiplier(spec, [j]) * extension_symbol("heat", spec, t))


def riesz_kernel_split(j: int, spec: GridSpec) -> dict:
    """K_j cut at the unit ball: near = K_j inside B(0,1), far = the rest.

    Pointwise values with the principal-value convention K_j(0) = 0; the near
    part is supported strictly inside the unit ball.
    """
    axes = spec.nodes()
    K = analytic.riesz_kernel(axes, j)
    r2 = sum(np.asarray(a, dtype=float) ** 2 for a in axes)
    near_mask = r2 < 1.0
    near = np.where(near_mask, K, 0.0)
    far = np.where(near_mask, 0.0, K)
    return {"near": GridFunction(spec, near), "far": GridFunction(spec, far)}


# -- decay certificates -------------------------------------------------------


def half_derivative_heat_pointwise(x: np.ndarray, t: float) -> np.ndarray:
    """Closed form of the Weyl half-derivative of W_t at points x (d=1).

    Computed from the transform route: the slice symbol -2 pi i |xi| applied
    to exp(-4 pi^2 t xi^2) and inverted in closed form with the Dawson
    function.  Purely imaginary; decays like t^(-1) at x=0 and |x|^(-2).
    """
    a = 4.0 * np.pi**2 * t
    b = 2.0 * np.pi * np.abs(np.asarray(x, dtype=float))
    z = b / (2.0 * np.sqrt(a))
    return -(2.0j * np.pi / a) * (1.0 - 2.0 * z * analytic._dawson(z))


@dataclass(frozen=True)
class CertificateReport:
    max_ratio: float
    at_t: float
    at_x: float


def decay_certificate(kind: str, spec: GridSpec, t_grid) -> CertificateReport:
    """Observed lattice constant of a min{t^-a, |x|^-b} decay bound.

    heat_dt:      |dW_t/dt| * max(t^(1+d/2), |x|^(d+2))
    heat_half_dt: |d_t^(1/2) W_t| * max(t^((d+1)/2), |x|^(d+1)), d=1 only.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0):
        raise ValueError("certificate time grid must be positive")
    axes = spec.nodes()
    r = np.sqrt(sum(np.asarray(a, dtype=float) ** 2 for a in axes))
    best = (-math.inf, math.nan, math.nan)
    for t in t_grid:
        if kind == "heat_dt":
            val = np.abs(analytic.heat_dt(axes, float(t)))
            weight = np.maximum(t ** (1.0 + spec.d / 2.0), r ** (spec.d + 2))
        elif kind == "heat_half_dt":
            if spec.d != 1:
                raise ValueError("heat_half_dt certificate is implemented for d=1")
            # |x_k| = |x_(n-k)| exactly: evaluate nodes 0..n/2, mirror the rest
            half = np.abs(half_derivative_heat_pointwise(axes[0][:spec.n // 2 + 1], float(t)))
            val = np.concatenate([half, half[-2:0:-1]])
            weight = np.maximum(t ** ((spec.d + 1) / 2.0), r ** (spec.d + 1))
        else:
            raise ValueError(f"unknown certificate kind {kind!r}")
        flat = (val * weight).reshape(-1)
        k = int(np.argmax(flat))
        if flat[k] > best[0]:
            best = (float(flat[k]), float(t), float(r.reshape(-1)[k]))
    return CertificateReport(max_ratio=best[0], at_t=best[1], at_x=best[2])
