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
from functools import reduce

import numpy as np

from . import kernels
from .crsys import ConjugateField, sup_vector_amalgam_norms
from .extension import (ExtensionStack, TimeGrid, _dilation_block, _h1_certificate, extend,
                        grid_run_id, kernel_block, nontangential_max, radial_maximal)
from .frozen import FrozenStore
from .grid import GridFunction, GridSpec, _full, apply_symbols, sample, sup_norm
from .norms import Exponents, _as_exponents, amalgam_norm, slice_norms
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
    "atom_probe",
    "hardy_norm_maximal",
    "hardy_quantity_riesz",
    "hardy_quantity_multiplier",
    "harmonic_lift",
    "caloric_lift",
    "reference_family",
    "default_multiplier_family",
    "EquivalenceReport",
    "equivalence_report",
    "equivalence_reports",
    "EQUIVALENCE_METHODS",
    "freeze_constants",
    "grid_run_id",
]

ATOM_SIDES = (0.25, 0.5, 1.0, 2.0, 4.0)
SLACK = 1.1  # a measured spread or band passes within SLACK times its frozen value
REFERENCE_ID = "reference-d1"  # the store family of the reference family's constants


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
    cube = np.ix_(*[np.flatnonzero(m) for m in masks])
    v, indicator = np.zeros(spec.shape), np.zeros(spec.shape)
    v[cube] = reduce(np.multiply.outer, profiles)
    indicator[cube] = 1.0
    bound = 1.0 / amalgam_norm(GridFunction(spec, indicator), (a.p, a.q))
    v = v * (bound / np.max(np.abs(v)))
    return GridFunction(spec, v)


def atom_probe(spec: GridSpec, e, tg: TimeGrid, orders=(0, 1), sides=ATOM_SIDES) -> list:
    """(m, side, maximal norm) of the cube atom at the origin per moment order m and side."""
    e = _as_exponents(e)
    return [(m, side, hardy_norm_maximal(make_atom(AtomSpec((0.0,) * spec.d, side, m, e.p, e.q),
                                                   spec), e, tg))
            for m in orders for side in sides]


# ---------------------------------------------------------------------------
# The three Hardy quantities
# ---------------------------------------------------------------------------


def hardy_norm_maximal(f: GridFunction, e, tg: TimeGrid) -> float:
    """Amalgam norm of the radial maximal function of the unit-mass heat bump."""
    return amalgam_norm(radial_maximal(f, tg), e)


def _riesz_compositions(spec: GridSpec, order: int):
    """All index lists (j_1..j_k), 1 <= k <= order."""
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


def _mollified_blocks(f: GridFunction, tg: TimeGrid, order: int):
    """(level, block) pairs: f * phi_t of the maximal profile over the time
    grid (level 0), then each Riesz composition of it up to the given order, in
    the order of _riesz_compositions.  Each block is built by one pass, and
    the caller drops it before asking for the next, so one stack is alive at
    a time.  The compositions multiply the block's full-lattice copy."""
    spec = f.spec
    moll = _dilation_block(spec, tg.values)
    yield 0, apply_symbols(spec, f.values, moll)
    if order:
        moll = _full(spec, moll)
    for idx in _riesz_compositions(spec, order):
        yield len(idx), apply_symbols(spec, f.values, moll * riesz_multiplier(spec, idx))


def hardy_quantity_riesz(f: GridFunction, e, eps_grid: TimeGrid, order: int = 1) -> QuantityResult:
    """sup over mollification scales of ||f * phi_eps||_{p,q} (phi the heat
    profile) plus the norms of all Riesz compositions up to the given order,
    mollified the same way.

    threshold_ok records min{p,q} > (d-1)/(d+order-1); below it the value is
    still computed but the characterization does not back it.
    """
    e = _as_exponents(e)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    per_scale = np.zeros(eps_grid.count)
    for _, block in _mollified_blocks(f, eps_grid, order):
        per_scale += slice_norms(f.spec, block, e)
        del block
    return QuantityResult(float(per_scale.max()), e.riesz_threshold_ok(f.spec.d, order), per_scale)


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
    e = _as_exponents(e)
    vals = [amalgam_norm(apply_multiplier(f, s), e) for s in theta.symbols]
    return QuantityResult(float(sum(vals)), rank2_check(theta).ok, np.asarray(vals))


# ---------------------------------------------------------------------------
# Lifting maps
# ---------------------------------------------------------------------------


def _lift(f: GridFunction, rs, tg: TimeGrid, flavor: str) -> ConjugateField:
    """The field (R_1 f, ..., R_d f, f) * K_t of the flavor's kernel, given
    the Riesz transforms rs = [R_1 f, ..., R_d f]."""
    kernel = "poisson" if flavor == "harmonic" else "heat"
    spec = f.spec
    # f's pass reads the half-lattice block (a real f gives a real stack),
    # the R_j f passes its full-lattice copy, which the last one consumes as
    # its output buffer: past f's pass the lift holds d+1 stacks, no block
    block = kernel_block(kernel, spec, tg.values)
    own = apply_symbols(spec, f.values, block)
    block = _full(spec, block)
    shared = block.view()
    shared.setflags(write=False)
    values = [apply_symbols(spec, g.values, shared) for g in rs[:-1]]
    values += [apply_symbols(spec, rs[-1].values, block), own]
    return ConjugateField(tuple(ExtensionStack._from_pass(spec, tg, v, kernel) for v in values), flavor)


def _riesz_all(f: GridFunction) -> list:
    return [riesz(f, j) for j in range(1, f.spec.d + 1)]


def harmonic_lift(f: GridFunction, tg: TimeGrid) -> ConjugateField:
    """(R_1 f * P_t, ..., R_d f * P_t, f * P_t) as a harmonic candidate field."""
    return _lift(f, _riesz_all(f), tg, "harmonic")


def caloric_lift(f: GridFunction, tg: TimeGrid) -> ConjugateField:
    """(R_1 f * W_t, ..., R_d f * W_t, f * W_t) as a caloric candidate field."""
    return _lift(f, _riesz_all(f), tg, "caloric")


# ---------------------------------------------------------------------------
# Reference family
# ---------------------------------------------------------------------------


def _mean_removed(f: GridFunction) -> GridFunction:
    mean = f.spec.h**f.spec.d * np.sum(f.values) / (2.0 * f.spec.L) ** f.spec.d
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


def _member_values(f: GridFunction, es, tg: TimeGrid, methods, on_caloric=None) -> dict:
    """The selected quantities of one member, one value per exponent pair.  Each
    field is built once, reduced for every method and pair that reads it, and
    dropped before the next is built; riesz1 and riesz2 read one running sum.
    on_caloric(f, rs, stack), if given, sees the member's Riesz transforms and
    the heat stack of f from its caloric field before they are dropped."""
    spec = f.spec
    out = {}
    order = 2 if "riesz2" in methods else int("riesz1" in methods)
    if order or "maximal" in methods:
        per_scale = np.zeros((len(es), tg.count))
        for level, block in _mollified_blocks(f, tg, order):
            # every reduction reads |block| only: take it once, drop the block
            mag = np.abs(block)
            del block
            if level == 0 and "maximal" in methods:
                mx = GridFunction(spec, mag.max(axis=0))
                out["maximal"] = [amalgam_norm(mx, e) for e in es]
            if order:
                per_scale += [slice_norms(spec, mag, e) for e in es]
            del mag
            if level:
                out[f"riesz{level}"] = [float(v) for v in per_scale.max(axis=1)]
    if "multiplier" in methods:
        images = [apply_multiplier(f, s) for s in default_multiplier_family(spec.d).symbols]
        out["multiplier"] = [float(sum(amalgam_norm(g, e) for g in images)) for e in es]
    if "caloric_sup" in methods:
        rs = _riesz_all(f)
        lifted = _lift(f, rs, tg, "caloric")
        out["caloric_sup"] = [float(v) for v in sup_vector_amalgam_norms(lifted, es)]
        stack = lifted.components[-1]
        del lifted  # the R_j f stacks go before on_caloric reduces f's
        if on_caloric is not None:
            on_caloric(f, rs, stack)
        del stack
    if "nontangential" in methods:
        nt = nontangential_max(extend(f, "poisson", tg))
        out["nontangential"] = [amalgam_norm(nt, e) for e in es]
    return out


def equivalence_reports(members, exponents, tg: TimeGrid, methods=EQUIVALENCE_METHODS,
                        store: FrozenStore | None = None, on_caloric=None) -> list:
    """Pairwise ratio spreads of the selected quantities over a family, one
    EquivalenceReport per exponent pair, from one sweep of the family.

    Ratios are only formed where both quantities are positive; zero values on
    nonzero members are flagged and excluded.  When a store is given, each
    pair's spread is compared against its REFERENCE_ID constant times SLACK;
    pairs without a frozen entry get ok = None.  on_caloric, if given, is
    handed to every member's step (see _member_values).
    """
    es = [_as_exponents(e) for e in exponents]
    if not members:
        raise ValueError("empty family")
    methods = tuple(methods)
    if unknown := [m for m in methods if m not in EQUIVALENCE_METHODS]:
        raise ValueError(f"unknown method {unknown[0]!r}")
    gid = grid_run_id(members[0][1].spec, tg)
    swept = {name: _member_values(f, es, tg, methods, on_caloric) for name, f in members}
    reports = []
    for k, e in enumerate(es):
        vals = {m: {name: swept[name][m][k] for name, _ in members} for m in methods}
        excluded = []
        pairs = {}
        for i, ma in enumerate(methods):
            for mb in methods[i + 1:]:
                ratios = []
                for name, f in members:
                    va, vb = vals[ma][name], vals[mb][name]
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
                if store is not None and store.has(REFERENCE_ID, key, e.p, e.q):
                    frozen = store.get(REFERENCE_ID, key, e.p, e.q, gid)
                    info["frozen"] = frozen
                    info["ok"] = bool(spread <= frozen * SLACK)
                pairs[key] = info
        reports.append(EquivalenceReport(REFERENCE_ID, e.p, e.q, gid, methods, vals, pairs,
                                         excluded, SLACK))
    return reports


def equivalence_report(members, e, tg: TimeGrid, methods=EQUIVALENCE_METHODS,
                       store: FrozenStore | None = None) -> EquivalenceReport:
    """The equivalence report of one exponent pair (see equivalence_reports)."""
    return equivalence_reports(members, [e], tg, methods, store)[0]


def freeze_constants(spec: GridSpec, tg: TimeGrid, store: FrozenStore) -> dict:
    """Measure every regression constant on the designated reference run."""
    gid = grid_run_id(spec, tg)
    members = reference_family(spec)
    frozen = {}

    # heat-stack sup decay constants and the empirical Riesz-transform bound on
    # the amalgam scale, reduced from each member's caloric field (its f heat
    # stack) and R_1 f while the sweep holds them
    h1 = dict.fromkeys(((1.0, 1.0), (2.0, 3.0)), 0.0)
    rb = dict.fromkeys(((1.5, 1.5), (2.0, 3.0), (3.0, 1.5)), 0.0)

    def reduce_member(f, rs, stack):
        mag = np.abs(stack.values)  # one magnitude for every exponent pair
        for pq in h1:
            h1[pq] = max(h1[pq], _h1_certificate(stack.spec, stack.times, mag, pq).max_ratio)
        for pq in rb:
            if (denom := amalgam_norm(f, pq)) > 0:
                rb[pq] = max(rb[pq], amalgam_norm(rs[0], pq) / denom)

    # one sweep; at the p > q sample point (1.2, 0.9) only the nontangential leg is frozen
    reps = equivalence_reports(members, ((1.0, 1.0), (2.0, 3.0), (1.2, 0.9)), tg,
                               on_caloric=reduce_member)
    legs = [(rep, pair) for rep in reps[:2] for pair in rep.pairs]
    for rep, pair in legs + [(reps[2], "maximal/nontangential")]:
        spread = rep.pairs[pair]["spread"]
        store.put(REFERENCE_ID, pair, rep.p, rep.q, gid, spread)
        frozen[f"{REFERENCE_ID}|{pair}|{rep.p:g},{rep.q:g}"] = spread

    # atom probe band
    vals = [v for _, _, v in atom_probe(spec, (1.0, 1.0), tg)]
    store.put("atoms-d1", "band_low", 1.0, 1.0, gid, min(vals))
    store.put("atoms-d1", "band_high", 1.0, 1.0, gid, max(vals))
    frozen["atoms-d1|band"] = [min(vals), max(vals)]

    for family, key, consts in ((REFERENCE_ID, "h1_ratio", h1),
                                ("riesz-bound-d1", "ratio_max", rb)):
        for (p, q), c in consts.items():
            store.put(family, key, p, q, gid, c)
            frozen[f"{family}|{key}|{p:g},{q:g}"] = c

    # kernel decay lattice constants
    cert_grid = np.geomspace(0.1, 10.0, 25)
    for kind in ("heat_dt", "heat_half_dt"):
        c = kernels.decay_certificate(kind, spec, cert_grid)
        store.put("certificates-d1", kind, 1.0, 1.0, gid, c.max_ratio)
        frozen[f"certificates-d1|{kind}"] = c.max_ratio
    return frozen
