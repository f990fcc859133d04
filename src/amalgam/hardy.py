"""Hardy-type quantities, lifting maps, atoms and the equivalence harness.

Three ways of sizing a boundary function f are computed side by side:

* maximal:     amalgam norm of the radial maximal function of f;
* riesz:       sup over mollification scales of the norm sum of f and its
               Riesz-transform compositions up to a given order;
* multiplier:  norm sum over a family of degree-zero multiplier images.

The two lifting maps send f to a candidate conjugate system, harmonic
(Poisson extensions of f and its Riesz transforms) and caloric (heat
extensions of the same).  The equivalence harness measures pairwise ratio
spreads of the quantities over a fixed reference family and regressions
them against frozen constants with 10% slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .crsys import ConjugateField, sup_vector_amalgam_norm
from .extension import DilationFamily, TimeGrid, extend, heat_profile, nontangential_max, radial_maximal
from .frozen import FrozenStore
from .grid import GridFunction, GridSpec, apply_symbols, sample, sup_norm
from .norms import Exponents, amalgam_norm
from .spectral import (
    MultiplierFamily,
    SphereSymbol,
    apply_multiplier,
    rank2_check,
    riesz,
    riesz_multiplier,
)

__all__ = [
    "AtomSpec",
    "make_atom",
    "hardy_norm_maximal",
    "hardy_quantity_riesz",
    "hardy_quantity_multiplier",
    "harmonic_lift",
    "caloric_lift",
    "reference_family",
    "default_multiplier_family",
    "EquivalenceReport",
    "equivalence_report",
    "EQUIVALENCE_METHODS",
    "grid_run_id",
]

ATOM_SIDES = (0.25, 0.5, 1.0, 2.0, 4.0)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomSpec:
    """Cube atom data: corner, side, vanishing-moment order, exponent pair."""

    corner: tuple
    side: float
    moment_order: int
    p: float
    q: float

    def __post_init__(self):
        c = tuple(float(v) for v in (self.corner if isinstance(self.corner, (tuple, list))
                                     else (self.corner,)))
        object.__setattr__(self, "corner", c)
        if self.side not in ATOM_SIDES:
            raise ValueError(f"side must be one of {ATOM_SIDES}, got {self.side}")
        if self.moment_order < 0:
            raise ValueError(f"moment order must be >= 0, got {self.moment_order}")
        Exponents(self.p, self.q)


def _axis_profile(nodes: np.ndarray, m: int) -> np.ndarray:
    """Degree-(m+1) polynomial on the cube's axis nodes with discrete moments
    of orders 0..m removed exactly (QR projection)."""
    c = 0.5 * (nodes[0] + nodes[-1])
    s = max(nodes[-1] - nodes[0], 1e-30)
    x = (nodes - c) / s  # conditioning only
    V = np.vander(x, N=m + 1, increasing=True)  # monomials 0..m
    Q, _ = np.linalg.qr(V)
    v = x ** (m + 1)
    v = v - Q @ (Q.T @ v)
    if np.max(np.abs(v)) == 0:
        raise ValueError("degenerate atom profile; cube too small for the moment order")
    return v


def make_atom(a: AtomSpec, spec: GridSpec) -> GridFunction:
    """Cube atom: supported in the cube, discrete moments of orders <= m all
    zero, sup norm equal to 1 / ||1_Q||_{p,q} (with equality)."""
    if len(a.corner) != spec.d:
        raise ValueError(f"corner has {len(a.corner)} coordinates for d={spec.d}")
    h = spec.h
    nodes = spec.axis_nodes()
    profiles = []
    masks = []
    for c0 in a.corner:
        if abs(round(c0 / h) * h - c0) > 1e-12:
            raise ValueError(f"cube corner {c0} is not aligned to grid nodes")
        if c0 < -spec.L or c0 + a.side > spec.L:
            raise ValueError("cube leaves the box")
        mask = (nodes >= c0 - 1e-12) & (nodes < c0 + a.side - 1e-12)
        count = int(mask.sum())
        if count < a.moment_order + 2:
            raise ValueError("cube too small to kill the requested moments")
        profiles.append(_axis_profile(nodes[mask], a.moment_order))
        masks.append(mask)
    if spec.d == 1:
        v = np.zeros(spec.shape)
        v[masks[0]] = profiles[0]
    else:
        v = np.zeros(spec.shape)
        block = np.multiply.outer(profiles[0], profiles[1])
        ix = np.ix_(np.where(masks[0])[0], np.where(masks[1])[0])
        v[ix] = block
    indicator = np.zeros(spec.shape)
    if spec.d == 1:
        indicator[masks[0]] = 1.0
    else:
        indicator[np.ix_(np.where(masks[0])[0], np.where(masks[1])[0])] = 1.0
    bound = 1.0 / amalgam_norm(GridFunction(spec, indicator), (a.p, a.q))
    v = v * (bound / np.max(np.abs(v)))
    return GridFunction(spec, v)


# ---------------------------------------------------------------------------
# The three Hardy quantities
# ---------------------------------------------------------------------------


def hardy_norm_maximal(f: GridFunction, e, tg: TimeGrid,
                       profile: DilationFamily | None = None) -> float:
    """Amalgam norm of the radial maximal function (default profile: the
    unit-mass heat bump)."""
    if profile is None:
        profile = heat_profile()
    return amalgam_norm(radial_maximal(f, profile, tg), e)


def _riesz_compositions(spec: GridSpec, order: int):
    """All index lists (j_1..j_k), 1 <= k <= order."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    out = []
    level = [()]
    for _ in range(order):
        level = [t + (j,) for t in level for j in range(1, spec.d + 1)]
        out.extend(level)
    return out


@dataclass(frozen=True)
class QuantityResult:
    value: float
    threshold_ok: bool
    per_scale: np.ndarray = field(repr=False)


def hardy_quantity_riesz(f: GridFunction, e, eps_grid: TimeGrid, order: int = 1,
                         profile: DilationFamily | None = None) -> QuantityResult:
    """sup over mollification scales of ||f * phi_eps||_{p,q} plus the norms of
    all Riesz compositions up to the given order, mollified the same way.

    threshold_ok records min{p,q} > (d-1)/(d+order-1); below it the value is
    still computed but the characterization does not back it.
    """
    e = e if isinstance(e, Exponents) else Exponents(*e)
    if profile is None:
        profile = heat_profile()
    spec = f.spec
    moll = np.array([profile.symbol(spec, float(t)) for t in eps_grid.values])
    comps = [riesz_multiplier(spec, idx) for idx in _riesz_compositions(spec, order)]
    per_scale = np.zeros(eps_grid.count)
    # one pass over the scale grid per composition, identity first; each block
    # (complex, hence 1 + 0j) becomes the output of its pass and is dropped
    # before the next is built, so one stack is alive at a time
    for m in (1 + 0j, *comps):
        per_scale += [amalgam_norm(GridFunction(spec, g), e)
                      for g in apply_symbols(spec, f.values, moll * m)]
    return QuantityResult(float(per_scale.max()), e.riesz_threshold_ok(spec.d, order), per_scale)


def default_multiplier_family(d: int = 1) -> MultiplierFamily:
    """The identity/sign pair {1, sign} (d=1): identity plus Hilbert-transform
    direction, the smallest rank-2 family."""
    if d != 1:
        raise ValueError("the built-in family is one-dimensional")
    return MultiplierFamily((SphereSymbol.constant(1.0, d=1), SphereSymbol.sign()))


def hardy_quantity_multiplier(f: GridFunction, theta: MultiplierFamily, e) -> QuantityResult:
    """Sum over the family of amalgam norms of the multiplier images.

    threshold_ok records the rank-2 hypothesis check; mean of f should be
    zero under the dc convention (a nonzero mean only lowers the value).
    """
    e = e if isinstance(e, Exponents) else Exponents(*e)
    vals = [amalgam_norm(apply_multiplier(f, s), e) for s in theta.symbols]
    return QuantityResult(float(sum(vals)), rank2_check(theta).ok, np.asarray(vals))


# ---------------------------------------------------------------------------
# Lifting maps
# ---------------------------------------------------------------------------


def harmonic_lift(f: GridFunction, tg: TimeGrid) -> ConjugateField:
    """(R_1 f * P_t, ..., R_d f * P_t, f * P_t) as a harmonic candidate field."""
    comps = [extend(riesz(f, j), "poisson", tg) for j in range(1, f.spec.d + 1)]
    comps.append(extend(f, "poisson", tg))
    return ConjugateField(tuple(comps), "harmonic")


def caloric_lift(f: GridFunction, tg: TimeGrid) -> ConjugateField:
    """(R_1 f * W_t, ..., R_d f * W_t, f * W_t) as a caloric candidate field."""
    comps = [extend(riesz(f, j), "heat", tg) for j in range(1, f.spec.d + 1)]
    comps.append(extend(f, "heat", tg))
    return ConjugateField(tuple(comps), "caloric")


# ---------------------------------------------------------------------------
# Reference family
# ---------------------------------------------------------------------------


def _mean_removed(f: GridFunction) -> GridFunction:
    mean = complex(f.spec.h**f.spec.d * np.sum(f.values)) / (2.0 * f.spec.L) ** f.spec.d
    return GridFunction(f.spec, f.values - mean)


def reference_family(spec: GridSpec) -> list:
    """The 20-member d=1 benchmark family: 8 mean-removed gaussians, 4 cube
    atoms, 4 band-limited random draws, 4 conjugate-kernel differences.

    Every member is smooth or compactly supported with fast decay, so the
    growth hypothesis behind the Riesz-composition quantity (mollifications
    landing in every scaled amalgam space) holds by construction; it is not
    checkable numerically and is not tested.
    """
    if spec.d != 1:
        raise ValueError("the reference family is one-dimensional")
    members = []
    gauss = [(0.0, 0.5), (0.0, 1.0), (0.0, 4.0), (4.0, 1.0),
             (-4.0, 1.0), (16.0, 1.0), (-16.0, 1.0), (4.0, 0.5)]
    for shift, width in gauss:
        g = sample(f"gaussian:center={shift},width={width}", spec)
        members.append((f"gauss(c={shift:g},w={width:g})", _mean_removed(g)))
    for m in (0, 1):
        for side in (0.5, 2.0):
            atom = make_atom(AtomSpec((0.0,), side, m, 1.0, 1.0), spec)
            members.append((f"atom(m={m},side={side:g})", atom))
    nyq = 1.0 / (2.0 * spec.h)
    for seed in (1, 2, 3, 4):
        f = sample(f"bandlimited_random:seed={seed},lo={nyq / 8.0},hi={nyq / 2.0}", spec)
        members.append((f"band(seed={seed})", f))
    pq = [
        ("poisson-diff(0.5,1)", kernels.poisson_kernel(spec, 0.5) - kernels.poisson_kernel(spec, 1.0)),
        ("poisson-diff(1,2)", kernels.poisson_kernel(spec, 1.0) - kernels.poisson_kernel(spec, 2.0)),
        ("conj-diff(0.5,1)", kernels.conjugate_poisson_kernel(spec, 0.5) - kernels.conjugate_poisson_kernel(spec, 1.0)),
        ("conj-diff(1,2)", kernels.conjugate_poisson_kernel(spec, 1.0) - kernels.conjugate_poisson_kernel(spec, 2.0)),
    ]
    members.extend(pq)
    return members


# ---------------------------------------------------------------------------
# Equivalence harness
# ---------------------------------------------------------------------------


def grid_run_id(spec: GridSpec, tg: TimeGrid) -> str:
    return f"{spec.grid_id()}-{tg.grid_id()}"


def _method_value(method: str, f: GridFunction, e: Exponents, tg: TimeGrid) -> float:
    if method == "maximal":
        return hardy_norm_maximal(f, e, tg)
    if method == "riesz1":
        return hardy_quantity_riesz(f, e, tg, order=1).value
    if method == "riesz2":
        return hardy_quantity_riesz(f, e, tg, order=2).value
    if method == "multiplier":
        return hardy_quantity_multiplier(f, default_multiplier_family(f.spec.d), e).value
    if method == "nontangential":
        return amalgam_norm(nontangential_max(extend(f, "poisson", tg)), e)
    if method == "caloric_sup":
        return sup_vector_amalgam_norm(caloric_lift(f, tg), e)
    raise ValueError(f"unknown method {method!r}")


EQUIVALENCE_METHODS = ("maximal", "riesz1", "riesz2", "multiplier", "nontangential", "caloric_sup")


@dataclass(frozen=True)
class EquivalenceReport:
    family_id: str
    p: float
    q: float
    grid_id: str
    methods: tuple
    values: dict
    pairs: dict
    excluded: list
    slack: float

    @property
    def ok(self) -> bool:
        return all(info["ok"] is not False for info in self.pairs.values())

    def to_jsonable(self) -> dict:
        return {
            "family": self.family_id,
            "p": self.p,
            "q": self.q,
            "grid_id": self.grid_id,
            "methods": list(self.methods),
            "values": {m: dict(v) for m, v in self.values.items()},
            "pairs": {k: dict(v) for k, v in self.pairs.items()},
            "excluded": list(self.excluded),
            "slack": self.slack,
            "ok": self.ok,
        }


def equivalence_report(members, e, tg: TimeGrid, methods=EQUIVALENCE_METHODS,
                       family_id: str = "reference-d1", store: FrozenStore | None = None,
                       slack: float = 1.1) -> EquivalenceReport:
    """Pairwise ratio spreads of the selected quantities over a family.

    Ratios are only formed where both quantities are positive; zero values on
    nonzero members are flagged and excluded.  When a store is given, each
    pair's spread is compared against its frozen constant times the slack;
    pairs without a frozen entry get ok = None.
    """
    e = e if isinstance(e, Exponents) else Exponents(*e)
    if not members:
        raise ValueError("empty family")
    methods = tuple(methods)
    spec = members[0][1].spec
    gid = grid_run_id(spec, tg)
    values = {m: {} for m in methods}
    excluded = []
    for name, f in members:
        for m in methods:
            values[m][name] = _method_value(m, f, e, tg)
    pairs = {}
    for i, ma in enumerate(methods):
        for mb in methods[i + 1:]:
            ratios = []
            for name, f in members:
                va, vb = values[ma][name], values[mb][name]
                if va <= 0 or vb <= 0:
                    if sup_norm(f) > 0:
                        excluded.append({"member": name, "pair": f"{ma}/{mb}",
                                         "reason": "zero quantity on nonzero member"})
                    continue
                ratios.append(va / vb)
            key = f"{ma}/{mb}"
            if not ratios:
                pairs[key] = {"spread": None, "min": None, "max": None,
                              "frozen": None, "ok": False}
                continue
            spread = max(ratios) / min(ratios)
            info = {"spread": spread, "min": min(ratios), "max": max(ratios),
                    "frozen": None, "ok": None}
            if store is not None and store.has(family_id, key, e.p, e.q):
                frozen = store.get(family_id, key, e.p, e.q, gid)
                info["frozen"] = frozen
                info["ok"] = bool(spread <= frozen * slack)
            pairs[key] = info
    return EquivalenceReport(family_id, e.p, e.q, gid, methods, values, pairs, excluded, slack)
