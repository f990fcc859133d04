"""Pointwise closed forms of the classical kernels, and the two special
functions the closed forms elsewhere need.

These are plain evaluations of the continuum formulas on point arrays; the
box-consistent (periodized) versions live in :mod:`amalgam.kernels`.

With d the space dimension, gamma_d = Gamma((d+1)/2) / pi^((d+1)/2):

    P_t(x)   = gamma_d * t / (t^2 + |x|^2)^((d+1)/2)        (Poisson)
    W_t(x)   = (4 pi t)^(-d/2) * exp(-|x|^2 / (4t))         (heat)
    K_j(x)   = gamma_d * x_j / |x|^(d+1)                    (Riesz kernel)

and, in one variable,

    erfcx(x) = exp(x^2) erfc(x)                             (scaled erfc)
    F(x)     = exp(-x^2) integral_0^x exp(s^2) ds           (Dawson)
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gamma_d",
    "poisson",
    "heat",
    "heat_dt",
    "riesz_kernel",
]


def gamma_d(d: int) -> float:
    """Normalizing constant Gamma((d+1)/2) / pi^((d+1)/2)."""
    return math.gamma((d + 1) / 2) / math.pi ** ((d + 1) / 2)


def _sqnorm(axes):
    axes = [np.asarray(a, dtype=float) for a in axes]
    out = axes[0] ** 2
    for a in axes[1:]:
        out = out + a**2
    return out


def poisson(axes, t: float) -> np.ndarray:
    """P_t at points given per-axis (broadcastable arrays)."""
    if t <= 0:
        raise ValueError(f"poisson kernel needs t > 0, got {t}")
    d = len(axes)
    r2 = _sqnorm(axes)
    return gamma_d(d) * t / (t**2 + r2) ** ((d + 1) / 2)


def heat(axes, t: float) -> np.ndarray:
    """W_t at points given per-axis."""
    if t <= 0:
        raise ValueError(f"heat kernel needs t > 0, got {t}")
    d = len(axes)
    r2 = _sqnorm(axes)
    return np.exp(-r2 / (4.0 * t)) / (4.0 * math.pi * t) ** (d / 2)


def heat_dt(axes, t: float) -> np.ndarray:
    """Time derivative of W_t: W_t * (|x|^2/(4t^2) - d/(2t))."""
    d = len(axes)
    r2 = _sqnorm(axes)
    return heat(axes, t) * (r2 / (4.0 * t**2) - d / (2.0 * t))


def riesz_kernel(axes, j: int) -> np.ndarray:
    """K_j at points given per-axis, with the (odd-kernel) value 0 at the origin."""
    d = len(axes)
    if not 1 <= j <= d:
        raise ValueError(f"axis j={j} out of range for d={d}")
    r2 = _sqnorm(axes)
    xj = np.broadcast_to(np.asarray(axes[j - 1], dtype=float), r2.shape)
    out = np.zeros_like(r2)
    mask = r2 > 0
    out[mask] = gamma_d(d) * xj[mask] / r2[mask] ** ((d + 1) / 2)
    return out


_DEKKER = 2.0**27 + 1.0  # splits a double into two 26-bit halves


def _erfcx(x) -> np.ndarray:
    """erfcx(x) = exp(x^2) erfc(x), for real x (overflows to inf below -26).

    Below 25 it is exp(x^2) times erfc(x), with x^2 = hi + lo split exactly
    (Dekker's product) and exp(lo) taken as 1 + lo, so the large exponent
    loses nothing to rounding.  From 25 on it is the asymptotic series
    (1 / (x sqrt(pi))) sum_k (-1)^k (2k-1)!! / (2x^2)^k, whose terms fall
    below 1e-17 by k = 8.  See W. J. Cody, Math. Comp. 23 (1969).
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    low = x < 25.0
    xl = x[low]
    c = _DEKKER * xl
    top = c - (c - xl)
    bottom = xl - top
    hi = xl * xl
    lo = ((top * top - hi) + 2.0 * top * bottom) + bottom * bottom
    erfc = np.array([math.erfc(v) for v in xl.tolist()]).reshape(xl.shape)
    out[low] = np.exp(hi) * erfc * (1.0 + lo)
    xh = x[~low]
    out[~low] = _odd_factorial_series(-0.5 / (xh * xh), 12) / (xh * math.sqrt(math.pi))
    return out


def _odd_factorial_series(y: np.ndarray, terms: int) -> np.ndarray:
    """sum_{k=0..terms} (2k-1)!! y^k by Horner's rule: the asymptotic series
    of erfcx (y = -1/2x^2) and of Dawson's integral (y = 1/2x^2)."""
    s = np.ones_like(y)
    for k in range(terms, 0, -1):
        s = 1.0 + (2 * k - 1) * y * s
    return s


# Rybicki's sampling-theorem sum for Dawson's integral, step h = 0.2 (error
# of order exp(-(pi / 2h)^2) = 1e-27), on the odd multiples nh, n = 1..39;
# the weights exp(-(nh)^2) beyond fall below 1e-17 of the sum.
_RYBICKI_H = 0.2
_RYBICKI_W = np.exp(-((2.0 * np.arange(1, 21) - 1.0) * _RYBICKI_H) ** 2)


def _dawson(x) -> np.ndarray:
    """Dawson's integral F(x) = exp(-x^2) integral_0^x exp(s^2) ds, for real x.

    |x| < 0.2: the Maclaurin series sum_k (-2x^2)^k x / (2k+1)!!.
    0.2 <= |x| <= 7: Rybicki's sum (G. B. Rybicki, Computers in Physics 3
    (1989)) around the even multiple n0 h nearest to |x|, x' = |x| - n0 h,

        F(|x|) = (exp(-x'^2) / sqrt(pi)) sum exp(-(nh)^2) e^{2 x' n h} / (n0 + n)

    over odd n of both signs, the powers of e^{2 x' h} by a recurrence.
    |x| > 7: the asymptotic series (1 / 2x) sum_k (2k-1)!! / (2x^2)^k.
    F is odd; F(0) = 0.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    ax = np.abs(x)
    small = ax < 0.2
    xs = x[small]
    z = -2.0 * xs * xs
    s = np.ones_like(xs)
    for k in range(10, 0, -1):
        s = 1.0 + z * s / (2 * k + 1)
    out[small] = xs * s
    mid = ~small & (ax <= 7.0)
    xm = ax[mid]
    n0 = 2.0 * np.floor(0.5 * xm / _RYBICKI_H + 0.5)
    xp = xm - n0 * _RYBICKI_H
    e1 = np.exp(2.0 * xp * _RYBICKI_H)
    e2 = e1 * e1
    up, down = n0 + 1.0, n0 - 1.0  # n0 + n and n0 - n for n = 1, 3, ...
    s = np.zeros_like(xm)
    for w in _RYBICKI_W:
        s += w * (e1 / up + 1.0 / (down * e1))
        up += 2.0
        down -= 2.0
        e1 *= e2
    out[mid] = np.copysign(np.exp(-xp * xp) * s / math.sqrt(math.pi), x[mid])
    big = ~small & ~mid  # and NaN
    xb = x[big]
    out[big] = _odd_factorial_series(0.5 / (xb * xb), 22) / (2.0 * xb)
    return out
