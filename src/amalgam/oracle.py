"""Slow, independent reference implementations.

The transform is a separate forward/inverse pair, the Riemann sums of the
Fourier integral and of its inversion: the route every grid.apply_symbols
pass is pinned to, bit for bit.  The other references never call the
spectral code path: convolution is a direct double sum with periodic wrap,
the Riesz transform is a truncated principal value built from the near/far
kernel split, and the half-derivative is adaptive quadrature on the
original (s - t)^(-1/2) form.  Size caps keep the direct sums inside the
acceptance-suite time budget.  The Cauchy-Riemann residuals are the
grid-space formulas: every derivative stack built in full by its own
multiplier pass, the quadrature half-derivative stacks built in full from
mean-shifted copies of the components, slice norms as Riemann sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from . import analytic
from .crsys import QUAD_NODES, QUAD_WINDOW, _quadrature_tail
from .grid import GridFunction, GridSpec, _as_values, _fftn, _ifftn, _lattice, apply_symbols
from .kernels import riesz_kernel_split
from .weyl import half_derivative_spectral, half_derivative_stack_quadrature, time_derivative

__all__ = ["SpectralFunction", "forward", "inverse", "convolve_direct", "riesz_direct_pv",
           "weyl_direct", "harmonic_cr_residual_direct", "caloric_cr_residual_direct"]

SIZE_CAP = 2**14


@dataclass(frozen=True)
class SpectralFunction:
    """Fourier coefficients on the frequency lattice k/(2L), FFT ordering, read-only."""

    spec: GridSpec
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_values(self.spec, self.coeffs))

    def energy(self) -> float:
        """Parseval energy (1/2L)^d * sum |coeffs|^2."""
        return float(np.sum(np.abs(self.coeffs) ** 2) / (2.0 * self.spec.L) ** self.spec.d)


def forward(f: GridFunction) -> SpectralFunction:
    """Forward transform: h^d-weighted Riemann sum of the Fourier integral."""
    c = f.spec.h**f.spec.d * _lattice(f.spec)[3] * _fftn(f.values, f.spec.d)
    return SpectralFunction(f.spec, c)


def inverse(F: SpectralFunction) -> GridFunction:
    """Inverse transform; forward(inverse(F)) == F to rounding."""
    v = _ifftn(_lattice(F.spec)[3] * F.coeffs, F.spec.d) / F.spec.h**F.spec.d
    return GridFunction(F.spec, v)


def _check_size(f: GridFunction):
    if f.spec.size > SIZE_CAP:
        raise ValueError(f"direct oracle limited to {SIZE_CAP} samples, got {f.spec.size}")


def _wrap_index_sum(f: GridFunction, kernel_values: np.ndarray) -> np.ndarray:
    """out[m] = h^d sum_j kernel(x_m - x_j) f(x_j), displacements wrapped into
    the box; kernel_values are samples on the standard nodes."""
    spec = f.spec
    n = spec.n
    out = np.zeros(spec.shape, dtype=complex)
    fv = f.values
    if spec.d == 1:
        for j in range(n):
            # x_m - x_j lands on node (m - j + n/2) mod n
            out += fv[j] * np.roll(kernel_values, j - n // 2)
    else:
        for j1 in range(n):
            for j2 in range(n):
                shifted = np.roll(np.roll(kernel_values, j1 - n // 2, axis=0),
                                  j2 - n // 2, axis=1)
                out += fv[j1, j2] * shifted
    return out * spec.h**spec.d


def convolve_direct(f: GridFunction, g: GridFunction) -> GridFunction:
    """Quadratic-time periodic convolution with h^d scaling."""
    if f.spec != g.spec:
        raise ValueError("grid mismatch")
    _check_size(f)
    return GridFunction(f.spec, _wrap_index_sum(f, np.asarray(g.values)))


def riesz_direct_pv(f: GridFunction, j: int, delta: float) -> GridFunction:
    """Truncated principal value of the Riesz transform.

    The kernel is the near/far split sampled pointwise, with nodes inside
    |x| < delta removed (delta in {h, 2h}) and the unpaired node at -L
    zeroed so the odd-pair cancellation of the principal value is exact on
    the remaining lattice.  In d=1 the far-part direct sum runs over all
    periodic images, folded in through the closed cotangent form of the
    lattice sum (no transform code involved); d=2 keeps the single-period
    kernel with wrapped displacements.
    """
    _check_size(f)
    spec = f.spec
    h = spec.h
    if not (abs(delta - h) < 1e-12 or abs(delta - 2 * h) < 1e-12):
        raise ValueError(f"truncation delta must be h or 2h, got {delta}")
    split = riesz_kernel_split(j, spec)
    K = split["near"].values.real + split["far"].values.real
    axes = spec.nodes()
    r = np.sqrt(sum(np.asarray(a, dtype=float) ** 2 for a in axes))
    K = np.where(r < delta - 1e-12, 0.0, K).copy()
    if spec.d == 1:
        x = axes[0]
        mask = np.abs(x) >= delta - 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            images = np.where(
                mask,
                (0.5 / spec.L) / np.tan(np.pi * x / (2.0 * spec.L)) - 1.0 / (math.pi * x),
                0.0,
            )
        K = K + np.where(np.isfinite(images), images, 0.0)
        K[0] = 0.0  # node x = -L has no mirror partner on the lattice
    else:
        K[0, :] = 0.0
        K[:, 0] = 0.0
    return GridFunction(spec, _wrap_index_sum(f, K))


def weyl_direct(profile: str, t: float, lam: float = 1.0, x0: float = 0.0) -> complex:
    """High-accuracy half-derivative of a closed-form profile at t.

    profile 'exp_decay': g(s) = exp(-lam s); 'heat_peak': g(s) = W_s(x0), d=1.
    Adaptive quadrature of (e^{i pi/2}/sqrt(pi)) int_t^inf g'(s) (s-t)^(-1/2) ds
    split at s = t + 1 with an algebraic-weight rule near the endpoint.
    """
    if t <= 0:
        raise ValueError(f"evaluation time must be positive, got {t}")
    if profile == "exp_decay":
        if lam <= 0:
            raise ValueError(f"decay rate must be positive, got {lam}")
        gprime = lambda s: -lam * math.exp(-lam * s)
    elif profile == "heat_peak":
        gprime = lambda s: float(analytic.heat_dt([np.array([x0])], s)[0])
    else:
        raise ValueError(f"unsupported profile {profile!r}")

    # near part: integrand = g'(s) / sqrt(s - t) handled by weight='alg'
    near, _ = quad(gprime, t, t + 1.0, weight="alg", wvar=(-0.5, 0.0),
                   epsabs=1e-12, epsrel=1e-12, limit=200)
    far, _ = quad(lambda s: gprime(s) / math.sqrt(s - t), t + 1.0, np.inf,
                  epsabs=1e-12, epsrel=1e-12, limit=200)
    return 1j / math.sqrt(math.pi) * (near + far)


def _slice_l2(values: np.ndarray, spec) -> np.ndarray:
    return np.sqrt(spec.h**spec.d * np.sum(np.abs(values.reshape(len(values), -1)) ** 2, axis=1))


def _field_scale(F) -> np.ndarray:
    scale = sum(_slice_l2(c.values, F.spec) for c in F.components)
    if np.max(scale) == 0:
        raise ValueError("all-zero field has no relative residual")
    return np.maximum(scale, np.max(scale) * 1e-8)


def _gradient(stack) -> list:
    """d/dx_j of every slice, j = 1..d, as full stacks."""
    return [apply_symbols(stack.spec, stack.values, 2j * np.pi * xi) for xi in stack.spec.freqs()]


def _quadrature_half(F) -> tuple:
    """The slices whose t lies in the QUAD_WINDOW fraction of [t_min, t_max],
    as a range, and the quadrature half-derivative stack of every component
    on them, each taken of the component minus its spatial mean at t_min."""
    ts = F.tgrid.values
    lo, hi = (ts[0] + w * (ts[-1] - ts[0]) for w in QUAD_WINDOW)
    idx = [i for i, t in enumerate(ts) if lo <= t <= hi and t < ts[-1]]
    if not idx:
        raise ValueError("quadrature window selects no slices")
    rows = range(idx[0], idx[-1] + 1)
    half = []
    for c in F.components:
        dc = complex(np.mean(c.values[0]))
        shifted = c.map_values(lambda v: v - dc)
        half.append(half_derivative_stack_quadrature(
            shifted, ts[rows.start:rows.stop], tail=_quadrature_tail(F.spec), n_quad=QUAD_NODES))
    return rows, half


def harmonic_cr_residual_direct(F) -> dict:
    """Per-slice sym_res and div_res of a harmonic field from its whole
    derivative matrix D[a][j] = d u_a / d x_j, x_{d+1} = t."""
    d, scale = F.spec.d, _field_scale(F)
    D = [_gradient(c) + [time_derivative(c).values] for c in F.components]
    sym = [_slice_l2(D[a][b] - D[b][a], F.spec) for a in range(d + 1) for b in range(a + 1, d + 1)]
    div = _slice_l2(sum(D[a][a] for a in range(d + 1)), F.spec)
    return {"sym_res": np.max(sym, axis=0) / scale, "div_res": div / scale}


def caloric_cr_residual_direct(F, mode: str = "spectral") -> dict:
    """Per-slice a_res, b_res and c_res of a caloric field from its
    half-derivative and gradient stacks."""
    d, scale = F.spec.d, _field_scale(F)
    if mode == "spectral":
        rows, half = range(F.tgrid.count), [half_derivative_spectral(c).values for c in F.components]
    else:
        rows, half = _quadrature_half(F)
    grad = [[g[rows.start:rows.stop] for g in _gradient(c)] for c in F.components]
    scale = scale[rows.start:rows.stop]
    a = _slice_l2(sum(grad[j][j] for j in range(d)) - 1j * half[d], F.spec)
    b = np.zeros(len(rows)) if d == 1 else _slice_l2(grad[0][1] - grad[1][0], F.spec)
    c = np.max([_slice_l2(grad[d][j] + 1j * half[j], F.spec) for j in range(d)], axis=0)
    return {"a_res": a / scale, "b_res": b / scale, "c_res": c / scale}
