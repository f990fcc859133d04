"""Fourier multiplier engine.

Operators act through symbols theta(xi/|xi|) that are homogeneous of degree
zero away from the origin.  The origin coefficient gets a separate dc value
(default 0, which kills means); the identity symbol with dc 1 is an exact
identity, with dc 0 it is the identity only on mean-zero inputs.

The Riesz transform along axis j is the multiplier -i xi_j/|xi| and the
composition R_{j_1}...R_{j_k} is applied as one fused symbol pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, GridSpec, _fftn, _lattice, apply_symbols

__all__ = [
    "SphereSymbol",
    "MultiplierFamily",
    "apply_multiplier",
    "riesz",
    "riesz_compose",
    "riesz_multiplier",
    "convolve",
    "rank2_check",
    "Rank2Result",
    "write_symbol",
    "read_symbol",
]

MIN_ANGLE_SAMPLES = 64


@dataclass(frozen=True)
class SphereSymbol:
    """Symbol theta on the unit sphere: a value pair for d=1, an angle table
    with periodic cubic interpolation for d=2."""

    d: int
    plus: complex = 1.0 + 0j
    minus: complex = 1.0 + 0j
    angle_samples: np.ndarray | None = field(default=None, repr=False)
    dc_value: complex = 0.0 + 0j

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.d == 2:
            if self.angle_samples is None:
                raise ValueError("d=2 symbols need angle samples")
            v = np.asarray(self.angle_samples, dtype=complex)
            if v.ndim != 1 or v.size < MIN_ANGLE_SAMPLES:
                raise ValueError(f"need at least {MIN_ANGLE_SAMPLES} angle samples, got {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError("angle samples contain non-finite entries")
            v.setflags(write=False)
            object.__setattr__(self, "angle_samples", v)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: complex, d: int = 1, dc_value: complex = 0.0) -> "SphereSymbol":
        if d == 1:
            return SphereSymbol(1, value, value, dc_value=dc_value)
        return SphereSymbol.from_function(lambda phi: np.full_like(phi, value, dtype=complex),
                                          dc_value=dc_value)

    @staticmethod
    def from_pair(plus: complex, minus: complex, dc_value: complex = 0.0) -> "SphereSymbol":
        """d=1 symbol from its values at +1 and -1."""
        return SphereSymbol(1, complex(plus), complex(minus), dc_value=dc_value)

    @staticmethod
    def sign(dc_value: complex = 0.0) -> "SphereSymbol":
        return SphereSymbol.from_pair(1.0, -1.0, dc_value=dc_value)

    @staticmethod
    def from_samples(values, dc_value: complex = 0.0) -> "SphereSymbol":
        """d=2 symbol from uniform angle samples at 2 pi m / M."""
        return SphereSymbol(2, angle_samples=np.asarray(values, dtype=complex),
                            dc_value=complex(dc_value))

    @staticmethod
    def from_function(fn, M: int = 128, dc_value: complex = 0.0) -> "SphereSymbol":
        """d=2 symbol by sampling fn(angle) on M uniform angles."""
        phi = 2.0 * np.pi * np.arange(M) / M
        return SphereSymbol.from_samples(np.asarray(fn(phi), dtype=complex), dc_value)

    @staticmethod
    def from_trig(coeffs: dict, dc_value: complex = 0.0) -> "SphereSymbol":
        """d=2 symbol from trig-polynomial coefficients {k: c_k} for sum c_k e^{i k phi}."""
        def fn(phi):
            out = np.zeros_like(phi, dtype=complex)
            for k, c in coeffs.items():
                out += c * np.exp(1j * int(k) * phi)
            return out
        return SphereSymbol.from_function(fn, dc_value=dc_value)

    @staticmethod
    def riesz_axis(j: int, d: int) -> "SphereSymbol":
        """The Riesz symbol -i z_j."""
        if d == 1:
            return SphereSymbol.from_pair(-1j, 1j)
        if j == 1:
            return SphereSymbol.from_function(lambda phi: -1j * np.cos(phi))
        if j == 2:
            return SphereSymbol.from_function(lambda phi: -1j * np.sin(phi))
        raise ValueError(f"axis j={j} out of range for d=2")

    # -- evaluation ---------------------------------------------------------

    def _interpolant(self):
        # imported here, off the CLI's import path, where scipy.interpolate
        # would add about 0.3 s to every command; only d=2 sample symbols
        # reach this
        from scipy.interpolate import CubicSpline

        v = self.angle_samples
        M = v.size
        phi = 2.0 * np.pi * np.arange(M + 1) / M
        ext = np.concatenate([v, v[:1]])
        re = CubicSpline(phi, ext.real, bc_type="periodic")
        im = CubicSpline(phi, ext.imag, bc_type="periodic")
        return lambda a: re(a) + 1j * im(a)

    def at_angles(self, phi) -> np.ndarray:
        """d=2 evaluation at angles (reproduces the samples exactly)."""
        if self.d != 2:
            raise ValueError("at_angles is a d=2 operation")
        return self._interpolant()(np.mod(phi, 2.0 * np.pi))

    def at_points(self, y) -> np.ndarray:
        """Evaluate at unit vectors y (d=1: signs; d=2: rows (y1, y2))."""
        if self.d == 1:
            y = np.asarray(y, dtype=float)
            return np.where(y > 0, self.plus, self.minus).astype(complex)
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return self.at_angles(np.arctan2(y[:, 1], y[:, 0]))

    def multiplier(self, spec: GridSpec) -> np.ndarray:
        """theta(xi/|xi|) on the frequency lattice, dc_value at xi = 0."""
        if spec.d != self.d:
            raise ValueError(f"symbol dimension {self.d} does not match grid dimension {spec.d}")
        if self.d == 1:
            xi = spec.axis_freqs()
            m = np.where(xi > 0, self.plus, self.minus).astype(complex)
            m[0] = self.dc_value
            return m
        f1, f2 = spec.freqs()
        phi = np.arctan2(f2, f1)
        m = self.at_angles(phi).astype(complex)
        m[0, 0] = self.dc_value
        return m


@dataclass(frozen=True)
class MultiplierFamily:
    """Nonempty list of sphere symbols sharing one dimension."""

    symbols: tuple

    def __post_init__(self):
        syms = tuple(self.symbols)
        if not syms:
            raise ValueError("multiplier family must be nonempty")
        d = syms[0].d
        if any(s.d != d for s in syms):
            raise ValueError("multiplier family members must share a dimension")
        object.__setattr__(self, "symbols", syms)

    @property
    def d(self) -> int:
        return self.symbols[0].d

    def __len__(self):
        return len(self.symbols)


def apply_multiplier(f: GridFunction, theta: SphereSymbol) -> GridFunction:
    """Multiply the spectrum of f by theta(xi/|xi|)."""
    m = theta.multiplier(f.spec)
    return inverse_with(f, m)


def inverse_with(f: GridFunction, multiplier: np.ndarray) -> GridFunction:
    """One multiplier pass: inverse(multiplier * forward(f))."""
    return GridFunction(f.spec, apply_symbols(f.spec, f.values, multiplier))


def riesz_multiplier(spec: GridSpec, indices) -> np.ndarray:
    """Fused symbol prod_i (-i xi_{j_i} / |xi|) with 0 at the origin."""
    indices = list(indices)
    if not indices:
        raise ValueError("empty composition")
    for j in indices:
        if not 1 <= j <= spec.d:
            raise ValueError(f"axis j={j} out of range for d={spec.d}")
    fs = spec.freqs()
    norm = spec.freq_norm()
    safe = np.where(norm > 0, norm, 1.0)
    m = np.ones(spec.shape, dtype=complex)
    for j in indices:
        m = m * (-1j * fs[j - 1] / safe)
    m[(0,) * spec.d] = 0.0
    return m


def riesz(f: GridFunction, j: int = 1) -> GridFunction:
    """Riesz transform along axis j (the Hilbert transform for d=1)."""
    return inverse_with(f, riesz_multiplier(f.spec, [j]))


MAX_COMPOSITION_ORDER = 3


def riesz_compose(f: GridFunction, indices, max_order: int = MAX_COMPOSITION_ORDER) -> GridFunction:
    """Composition R_{j_1}...R_{j_k} as a single fused multiplier pass,
    1 <= k <= max_order."""
    indices = list(indices)
    if len(indices) > max_order:
        raise ValueError(f"composition of {len(indices)} transforms exceeds max_order={max_order}")
    return inverse_with(f, riesz_multiplier(f.spec, indices))


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Periodic convolution scaled to approximate the continuum integral,
    so convolve(f, W_t) carries the exact symbol exp(-4 pi^2 t |xi|^2) f^."""
    if f.spec != g.spec:
        raise ValueError("grid mismatch")
    spec = f.spec
    # f's transform, h^d times the (-1)^k-phased DFT, is the symbol applied to g
    symbol = spec.h**spec.d * _lattice(spec)[3] * _fftn(f.values, spec.d)
    return GridFunction(spec, apply_symbols(spec, g.values, symbol))


@dataclass(frozen=True)
class Rank2Result:
    ok: bool
    min_sigma2: float
    reason: str = ""


def rank2_check(theta: MultiplierFamily, samples: int = 64, tol: float = 1e-8) -> Rank2Result:
    """Smallest second singular value of [theta_i(y); theta_i(-y)] over sampled y.

    ok means the 2 x m matrix has (numerical) rank 2 at every sampled y.
    """
    m = len(theta)
    if m < 2:
        return Rank2Result(False, 0.0, f"family of size {m} cannot have rank 2")
    if theta.d == 1:
        ys = np.array([1.0])
    else:
        if samples < 2:
            raise ValueError(f"need at least 2 sphere samples, got {samples}")
        # y and -y give the same two rows swapped; half the circle suffices
        phi = np.pi * np.arange(samples) / samples
        ys = np.column_stack([np.cos(phi), np.sin(phi)])
    sigma_min = np.inf
    for y in ys:
        mat = np.array([[s.at_points([sgn * y])[0] for s in theta.symbols] for sgn in (1, -1)],
                       dtype=complex)
        sigma = np.linalg.svd(mat, compute_uv=False)
        sigma_min = min(sigma_min, float(sigma[1]))
    ok = sigma_min > tol
    return Rank2Result(ok, sigma_min, "" if ok else f"second singular value {sigma_min:.3e} <= {tol}")


# ---------------------------------------------------------------------------
# Symbol files: d=1 stores the (plus, minus) pair, d=2 a list of
# (angle, re, im) triples on the uniform angle lattice.
# ---------------------------------------------------------------------------


def write_symbol(theta: SphereSymbol, path) -> None:
    if theta.d == 1:
        doc = {
            "d": 1,
            "plus": [theta.plus.real, theta.plus.imag],
            "minus": [theta.minus.real, theta.minus.imag],
            "dc": [theta.dc_value.real, theta.dc_value.imag],
        }
    else:
        M = theta.angle_samples.size
        angles = 2.0 * np.pi * np.arange(M) / M
        doc = {
            "d": 2,
            "samples": [[float(a), float(v.real), float(v.imag)]
                        for a, v in zip(angles, theta.angle_samples)],
            "dc": [theta.dc_value.real, theta.dc_value.imag],
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def read_symbol(path) -> SphereSymbol:
    with open(path) as fh:
        doc = json.load(fh)
    dc = complex(*doc.get("dc", [0.0, 0.0]))
    if doc["d"] == 1:
        return SphereSymbol.from_pair(complex(*doc["plus"]), complex(*doc["minus"]), dc)
    vals = np.array([complex(re, im) for _, re, im in doc["samples"]])
    return SphereSymbol.from_samples(vals, dc)
