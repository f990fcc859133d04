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

with g' from a cubic spline of the profile and, when the profile carries an
exp_decay(lambda) tail tag, a closed erfc tail for u beyond sqrt(t_max - t).
Spline, integral and tail are all linear in the profile values, so the
quadrature is evaluated as a linear map: one matrix W, applied as W @ values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.special import erfcx

from .extension import ExtensionStack, TimeGrid
from .grid import apply_symbols

__all__ = [
    "TimeProfile",
    "half_derivative_quadrature",
    "half_derivative_stack_quadrature",
    "half_derivative_spectral",
    "time_derivative",
]

DEFAULT_TAIL_TOL = 1e-6
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


def _decay_end(ts: np.ndarray, values: np.ndarray, tail_tol: float) -> float:
    """|g'(t_max)| of the data spline of a (nt, ...) block of untagged profiles;
    the operator integrates g', so it must have died out by t_max."""
    dg = CubicSpline(ts, values, axis=0).derivative()
    end = np.max(np.abs(dg(ts[-1])))
    peak = max(np.max(np.abs(dg(ts))), 1e-300)
    if end > tail_tol * peak:
        raise ValueError(
            "profile derivative has not decayed by t_max "
            f"(|g'(t_max)| = {end:.3e} > {tail_tol:g} * {peak:.3e}); supply a tail tag"
        )
    return float(end)


def _tail(ts: np.ndarray, t: float, lam: float) -> complex:
    """exp_decay(lam) tail beyond u_max = sqrt(t_max - t), per unit g(t_max)."""
    return -1j * math.sqrt(lam) * erfcx(math.sqrt(lam * (ts[-1] - t)))


def _weyl_matrix(ts: np.ndarray, times, tail, n_quad: int) -> np.ndarray:
    """W (len(times) x nt): row k is the Simpson rule at t_k on the derivative
    splines of the unit profiles, plus the tail weight on the last node."""
    basis = CubicSpline(ts, np.eye(ts.size), axis=0).derivative()
    rows = []
    for t in times:
        if not ts[0] <= t < ts[-1]:
            raise ValueError(f"evaluation point t={t} outside the grid interior [{ts[0]}, {ts[-1]})")
        u = np.linspace(0.0, math.sqrt(ts[-1] - t), n_quad)
        rows.append((2j / math.sqrt(math.pi)) * simpson(basis(t + u**2), x=u, axis=0))
        if tail is not None:
            rows[-1][-1] += _tail(ts, t, tail[1])
    return np.array(rows)


def half_derivative_quadrature(prof: TimeProfile, t: float,
                               tail_tol: float = DEFAULT_TAIL_TOL,
                               n_quad: int = DEFAULT_QUAD_POINTS,
                               return_bound: bool = False):
    """Quadrature evaluation of the half-derivative of a profile at t.

    With return_bound the result comes with the truncation budget of the
    integral beyond u_max = sqrt(t_max - t): for tagged profiles the
    magnitude of the closed-form tail that was added (its own error is one
    model order smaller), otherwise the neglected mass if g' held its
    boundary value for another grid span.
    """
    ts = prof.tgrid.values
    end = _decay_end(ts, prof.values, tail_tol) if prof.tail is None else None
    val = complex(_weyl_matrix(ts, [float(t)], prof.tail, n_quad)[0] @ prof.values)
    if not return_bound:
        return val
    if prof.tail is not None:
        return val, float(abs(_tail(ts, t, prof.tail[1]) * prof.values[-1]))
    return val, (2.0 / math.sqrt(math.pi)) * end * math.sqrt(ts[-1] - t)


def half_derivative_stack_quadrature(stack: ExtensionStack, t,
                                     tail_tol: float = DEFAULT_TAIL_TOL,
                                     n_quad: int = DEFAULT_QUAD_POINTS,
                                     tail=None) -> np.ndarray:
    """Quadrature half-derivative of every node profile of a stack.

    t may be a scalar (returns one slice) or a sequence of evaluation times
    (returns a stacked array); W is built once either way.
    """
    flat = stack.values.reshape(stack.tgrid.count, -1)
    if tail is None:
        _decay_end(stack.times, flat, tail_tol)
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
    sym = -2j * np.pi * stack.spec.freq_norm()
    return _apply_symbol(stack, sym)


def _apply_symbol(stack: ExtensionStack, sym: np.ndarray) -> ExtensionStack:
    return stack.map_values(lambda v: apply_symbols(stack.spec, v, sym))


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
    """d/dt of a stack: exact symbols for heat/poisson stacks
    (-4 pi^2 |xi|^2 and -2 pi |xi|), centered differences otherwise."""
    if stack.tgrid.count < 3:
        raise ValueError("time derivative needs at least 3 slices")
    xi = stack.spec.freq_norm()
    if stack.kernel == "heat":
        return _apply_symbol(stack, -4.0 * np.pi**2 * xi**2)
    if stack.kernel == "poisson":
        return _apply_symbol(stack, -2.0 * np.pi * xi)
    dv = _log_grid_derivative(stack.values, stack.times)
    return ExtensionStack(stack.spec, stack.tgrid, dv, "custom")
