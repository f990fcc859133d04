"""Weyl half-derivative in t, in quadrature and spectral form.

The defining integral for a profile g on (0, infinity) is

    (d_t^(1/2) g)(t) = (e^{i pi/2} / sqrt(pi)) * integral_t^inf g'(s) (s-t)^(-1/2) ds.

Direct evaluation on g(t) = exp(-lambda t) gives -i sqrt(lambda) exp(-lambda t);
composing twice yields the full d/dt.  On heat-built stacks each spectral mode
is such an exponential with lambda = 4 pi^2 |xi|^2, so the half-derivative is
the per-slice multiplier -2 pi i |xi| (the fast path), and the quadrature form
is the semantic definition used to cross-check it.

The quadrature substitutes s = t + u^2:

    (d_t^(1/2) g)(t) = (2i / sqrt(pi)) * integral_0^inf g'(t + u^2) du,

with g' from the not-a-knot cubic spline of the profile (scipy's CubicSpline
default), composite Simpson in u and, when the profile carries an
exp_decay(lambda) tail tag, a closed erfc tail for u beyond sqrt(t_max - t).
Spline, integral and tail are all linear in the profile values, so the
quadrature is evaluated as a linear map: one matrix W, applied as W @ values.
The spline is built as that map too (de Boor, A Practical Guide to Splines,
ch. IV): its knot slopes are M @ (D @ values), D taking divided
differences, and on each interval g' is a fixed combination of the two end
slopes and the interval's divided difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import _erfcx
from .extension import ExtensionStack, TimeGrid, _extension_rate
from .grid import apply_symbols

__all__ = [
    "TimeProfile",
    "half_derivative_quadrature",
    "half_derivative_stack_quadrature",
    "half_derivative_spectral",
    "time_derivative",
]

TAIL_TOL = 1e-6  # an untagged profile's |g'(t_max)| must be at most TAIL_TOL times its peak
DEFAULT_QUAD_POINTS = 801


@dataclass(frozen=True)
class TimeProfile:
    """Scalar trace t -> u(x0, t) on a time grid, with an optional closed-form
    tail tag ('exp_decay', lambda) describing g beyond t_max."""

    tgrid: TimeGrid
    values: np.ndarray = field(repr=False)
    tail: tuple | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.tgrid.count,):
            raise ValueError(f"profile shape {v.shape} does not match grid count {self.tgrid.count}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.tail is not None:
            kind, lam = self.tail
            if kind != "exp_decay" or lam <= 0:
                raise ValueError(f"unsupported tail tag {self.tail!r}")


def _spline_slopes(ts: np.ndarray) -> tuple:
    """(M, D): D @ y are the divided differences of (ts, y) and M @ (D @ y)
    the knot slopes of their not-a-knot cubic spline, from the system scipy's
    CubicSpline solves, with the same end rows.  Two knots give the line and
    three the parabola through them, as CubicSpline does.  Constant data has
    D @ y = 0 exactly, so its slopes are exactly 0."""
    n = ts.size
    dx = np.diff(ts)
    k = np.arange(n - 1)
    D = np.zeros((n - 1, n))
    D[k, k], D[k, k + 1] = -1.0 / dx, 1.0 / dx
    # A s = B (D y): the slope equations, right-hand sides as maps of D y
    A = np.zeros((n, n))
    B = np.zeros((n, n - 1))
    if n == 2:
        A[:] = np.eye(2)
        B[:] = 1.0
    elif n == 3:
        A[0, :2], B[0, 0] = 1.0, 2.0
        A[1], B[1] = (dx[1], 2.0 * (dx[0] + dx[1]), dx[0]), (3.0 * dx[1], 3.0 * dx[0])
        A[2, 1:], B[2, 1] = 1.0, 2.0
    else:
        k = k[1:]
        A[k, k - 1], A[k, k], A[k, k + 1] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
        B[k, k - 1], B[k, k] = 3.0 * dx[1:], 3.0 * dx[:-1]
        d = ts[2] - ts[0]
        A[0, :2] = dx[1], d
        B[0, :2] = (dx[0] + 2.0 * d) * dx[1] / d, dx[0] ** 2 / d
        d = ts[-1] - ts[-3]
        A[-1, -2:] = d, dx[-2]
        B[-1, -2:] = dx[-1] ** 2 / d, (2.0 * d + dx[-1]) * dx[-2] / d
    return np.linalg.solve(A, B), D


def _derivative_rows(ts: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(m, nt) map of the knot values to the sums over j of w[k, j] g'(x[k, j]),
    g the spline of _spline_slopes; x and w are (m, q).

    On the interval [ts[i], ts[i+1]] with r = (x - ts[i]) / (ts[i+1] - ts[i])
    the spline's derivative is the Hermite combination
    (1-r)(1-3r) s_i + r(3r-2) s_(i+1) + 6r(1-r) d_i of the end slopes s and
    the divided difference d.  Points outside the grid use the end interval.
    """
    n = ts.size
    i = np.clip(np.searchsorted(ts, x, side="right") - 1, 0, n - 2)
    r = (x - ts[i]) / (ts[i + 1] - ts[i])
    m = x.shape[0]
    row = np.arange(m)[:, None]
    cs = np.bincount((row * n + i).ravel(), (w * (1.0 - r) * (1.0 - 3.0 * r)).ravel(), m * n)
    cs += np.bincount((row * n + i + 1).ravel(), (w * r * (3.0 * r - 2.0)).ravel(), m * n)
    cd = np.bincount((row * (n - 1) + i).ravel(), (w * 6.0 * r * (1.0 - r)).ravel(), m * (n - 1))
    M, D = _spline_slopes(ts)
    return (cs.reshape(m, n) @ M + cd.reshape(m, n - 1)) @ D


def _simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights on n equally spaced nodes of unit spacing."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"composite Simpson needs an odd n_quad >= 3, got {n}")
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return w / 3.0


def _decay_end(ts: np.ndarray, values: np.ndarray) -> float:
    """|g'(t_max)| of the data spline of a (nt, ...) block of untagged profiles;
    the operator integrates g', so it must have died out by t_max."""
    M, D = _spline_slopes(ts)
    dg = M @ (D @ values)
    end = np.max(np.abs(dg[-1]))
    peak = max(np.max(np.abs(dg)), 1e-300)
    if end > TAIL_TOL * peak:
        raise ValueError(
            "profile derivative has not decayed by t_max "
            f"(|g'(t_max)| = {end:.3e} > {TAIL_TOL:g} * {peak:.3e}); supply a tail tag"
        )
    return float(end)


def _tail(ts: np.ndarray, t, lam: float):
    """exp_decay(lam) tail beyond u_max = sqrt(t_max - t), per unit g(t_max)."""
    return -1j * math.sqrt(lam) * _erfcx(np.sqrt(lam * (ts[-1] - t)))


def _weyl_matrix(ts: np.ndarray, times, tail, n_quad: int) -> np.ndarray:
    """W (len(times) x nt): row k is the Simpson rule at t_k on the derivative
    splines of the unit profiles, plus the tail weight on the last node."""
    times = np.asarray(times, dtype=float)
    outside = ~((times >= ts[0]) & (times < ts[-1]))  # NaN is outside too
    if outside.any():
        raise ValueError(f"evaluation point t={times[outside][0]} outside the grid interior [{ts[0]}, {ts[-1]})")
    u_max = np.sqrt(ts[-1] - times)
    u = np.linspace(0.0, u_max, n_quad, axis=1)
    w = _simpson_weights(n_quad) * (u_max / (n_quad - 1))[:, None]
    W = (2j / math.sqrt(math.pi)) * _derivative_rows(ts, times[:, None] + u**2, w)
    if tail is not None:
        W[:, -1] += _tail(ts, times, tail[1])
    return W


def half_derivative_quadrature(prof: TimeProfile, t: float, n_quad: int = DEFAULT_QUAD_POINTS,
                               return_bound: bool = False):
    """Quadrature evaluation of the half-derivative of a profile at t.

    With return_bound the result comes with the truncation budget of the
    integral beyond u_max = sqrt(t_max - t): for tagged profiles the
    magnitude of the closed-form tail that was added (its own error is one
    model order smaller), otherwise the neglected mass if g' held its
    boundary value for another grid span.
    """
    ts = prof.tgrid.values
    end = _decay_end(ts, prof.values) if prof.tail is None else None
    val = complex(_weyl_matrix(ts, [float(t)], prof.tail, n_quad)[0] @ prof.values)
    if not return_bound:
        return val
    if prof.tail is not None:
        return val, float(abs(_tail(ts, t, prof.tail[1]) * prof.values[-1]))
    return val, (2.0 / math.sqrt(math.pi)) * end * math.sqrt(ts[-1] - t)


def half_derivative_stack_quadrature(stack: ExtensionStack, t, n_quad: int = DEFAULT_QUAD_POINTS,
                                     tail=None) -> np.ndarray:
    """Quadrature half-derivative of every node profile of a stack.

    t may be a scalar (returns one slice) or a sequence of evaluation times
    (returns a stacked array); W is built once either way.
    """
    flat = stack.values.reshape(stack.tgrid.count, -1)
    if tail is None:
        _decay_end(stack.times, flat)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    out = (_weyl_matrix(stack.times, times, tail, n_quad) @ flat).reshape((times.size,) + stack.spec.shape)
    return out[0] if np.ndim(t) == 0 else out


def half_derivative_spectral(stack: ExtensionStack) -> ExtensionStack:
    """Per-slice multiplier -2 pi i |xi|, valid on heat-built stacks.

    The output keeps the 'heat' tag: its slices still carry the exact heat
    time dependence per mode, so the operator may be applied again.
    """
    if stack.kernel != "heat":
        raise ValueError("spectral half-derivative needs a heat-built stack")
    return stack.map_values(lambda v: apply_symbols(stack.spec, v, _half_symbol(stack.spec)))


def _half_symbol(spec) -> np.ndarray:
    """-2 pi i |xi|, the half-derivative's multiplier on heat-built stacks."""
    return -2j * np.pi * spec.freq_norm()


def _log_grid_derivative(values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Centered first differences on a nonuniform grid, one-sided at the ends."""
    out = np.empty_like(values)
    dp = ts[2:] - ts[1:-1]
    dm = ts[1:-1] - ts[:-2]
    shape = (-1,) + (1,) * (values.ndim - 1)
    dp, dm = dp.reshape(shape), dm.reshape(shape)
    out[1:-1] = (dm**2 * values[2:] - dp**2 * values[:-2] + (dp**2 - dm**2) * values[1:-1]) / (
        dp * dm * (dp + dm)
    )
    out[0] = (values[1] - values[0]) / (ts[1] - ts[0])
    out[-1] = (values[-1] - values[-2]) / (ts[-1] - ts[-2])
    return out


def time_derivative(stack: ExtensionStack) -> ExtensionStack:
    """d/dt of a stack: for heat/poisson stacks the exact generator symbol c b
    of their slices exp(c t b) (-4 pi^2 |xi|^2 and -2 pi |xi|), centered
    differences otherwise."""
    if stack.tgrid.count < 3:
        raise ValueError("time derivative needs at least 3 slices")
    if stack.kernel in ("heat", "poisson"):
        c, b = _extension_rate(stack.kernel, stack.spec)
        return stack.map_values(lambda v: apply_symbols(stack.spec, v, c * b))
    dv = _log_grid_derivative(stack.values, stack.times)
    return ExtensionStack(stack.spec, stack.tgrid, dv, "custom")
