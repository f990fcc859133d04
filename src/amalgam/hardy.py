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
from itertools import product

import numpy as np

from . import kernels
from .crsys import CHUNK_BYTES, ConjugateField, _modulus, _rows
from .extension import (TimeGrid, _cone_max, _dilation_block, _h1_certificate, grid_run_id,
                        kernel_block, radial_maximal)
from .frozen import FrozenStore
from .grid import (GridFunction, GridSpec, _buffer, _fftn, _full, _ifftn, _rfftn, _walk, apply_symbols,
                   sample, sup_norm)
from .norms import Exponents, _as_exponents, _slice_norms, amalgam_norm, slice_norms
from .spectral import (MultiplierFamily, SphereSymbol, apply_multiplier, rank2_check, riesz,
                       riesz_multiplier)

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
            raise ValueError(f"a cube of side {a.side:g} holds {count} nodes per axis, too few to "
                             f"kill the moments of order <= {a.moment_order} (needs "
                             f"{a.moment_order + 2})")
        profiles.append(_axis_profile(nodes[mask], a.moment_order))
        masks.append(mask)
    cube = np.ix_(*[np.flatnonzero(m) for m in masks])
    v, indicator = np.zeros(spec.shape), np.zeros(spec.shape)
    v[cube] = reduce(np.multiply.outer, profiles)
    indicator[cube] = 1.0
    bound = 1.0 / amalgam_norm(GridFunction(spec, indicator), (a.p, a.q))
    v = v * (bound / np.max(np.abs(v)))
    return GridFunction(spec, v)


def atom_probe(spec: GridSpec, e, tg: TimeGrid) -> list:
    """(m, side, maximal norm) of the cube atom at the origin per moment order
    m in 0, 1 and side in ATOM_SIDES, hardy_norm_maximal's from one sweep (_member_values)."""
    e = _as_exponents(e)
    atoms = [((m, side), make_atom(AtomSpec((0.0,) * spec.d, side, m, e.p, e.q), spec))
             for m in (0, 1) for side in ATOM_SIDES]
    swept = _member_values(atoms, [e], tg, ("maximal",))
    return [(m, side, v["maximal"][0]) for ((m, side), _), v in zip(atoms, swept)]


# ---------------------------------------------------------------------------
# The three Hardy quantities
# ---------------------------------------------------------------------------


def hardy_norm_maximal(f: GridFunction, e, tg: TimeGrid) -> float:
    """Amalgam norm of the radial maximal function of the unit-mass heat bump."""
    return amalgam_norm(radial_maximal(f, tg), e)


def _riesz_compositions(spec: GridSpec, order: int):
    """All index lists (j_1..j_k), 1 <= k <= order, by k, then lexicographically."""
    return [idx for k in range(1, order + 1) for idx in product(range(1, spec.d + 1), repeat=k)]


@dataclass(frozen=True)
class QuantityResult:
    value: float
    threshold_ok: bool
    per_scale: np.ndarray = field(repr=False)


def hardy_quantity_riesz(f: GridFunction, e, eps_grid: TimeGrid, order: int = 1) -> QuantityResult:
    """sup over mollification scales of ||f * phi_eps||_{p,q} (phi the heat
    profile) plus the norms of all Riesz compositions up to the given order,
    mollified the same way: each a multiplier of the mollifier block's
    full-lattice copy, built by one pass, one stack at a time.

    threshold_ok records min{p,q} > (d-1)/(d+order-1); below it the value is
    still computed but the characterization does not back it.
    """
    e = _as_exponents(e)
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    spec, moll = f.spec, _dilation_block(f.spec, eps_grid.values)
    per_scale = slice_norms(spec, apply_symbols(spec, f.values, moll), e)
    moll = _full(spec, moll)
    for idx in _riesz_compositions(spec, order):
        per_scale += slice_norms(spec, apply_symbols(spec, f.values, moll * riesz_multiplier(spec, idx)), e)
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
    e = _as_exponents(e)
    vals = [amalgam_norm(apply_multiplier(f, s), e) for s in theta.symbols]
    return QuantityResult(float(sum(vals)), rank2_check(theta).ok, np.asarray(vals))


# ---------------------------------------------------------------------------
# Lifting maps
# ---------------------------------------------------------------------------


def _lift(f: GridFunction, tg: TimeGrid, flavor: str) -> ConjugateField:
    """The field (R_1 f, ..., R_d f, f) * K_t of the flavor's kernel as a
    lifted field: it holds the kernel block and the spectra, and builds its
    slices where a walk reads them (see ConjugateField)."""
    kernel = "poisson" if flavor == "harmonic" else "heat"
    rs = [riesz(f, j).values for j in range(1, f.spec.d + 1)]
    return ConjugateField._lifted(f.spec, rs + [f.values], tg, kernel, flavor)


def harmonic_lift(f: GridFunction, tg: TimeGrid) -> ConjugateField:
    """(R_1 f * P_t, ..., R_d f * P_t, f * P_t) as a harmonic candidate field."""
    return _lift(f, tg, "harmonic")


def caloric_lift(f: GridFunction, tg: TimeGrid) -> ConjugateField:
    """(R_1 f * W_t, ..., R_d f * W_t, f * W_t) as a caloric candidate field."""
    return _lift(f, tg, "caloric")


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
    for name, kernel in (("poisson-diff", kernels.poisson_kernel), ("conj-diff", kernels.conjugate_poisson_kernel)):
        for a, b in ((0.5, 1.0), (1.0, 2.0)):
            members.append((f"{name}({a:g},{b:g})", kernel(spec, a) - kernel(spec, b)))
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


def _member_values(members, es, tg: TimeGrid, methods, h1=()) -> list:
    """The selected quantities of every member (of one grid), one dict per
    member with one value per exponent pair, and for the h1 pairs the sups
    of f's heat slices ("sups") and their largest norm ("h1").

    The members' stacks are one walk (grid._walk), each CPU a contiguous
    range of members, a chunk of time slices of each stack at a time (the
    CHUNK_BYTES budget shared by the ranges), built as apply_symbols builds
    them (crsys._rows, into the range's buffers) and reduced before the
    next, per slice in the public routes' order with exact maxima over
    slices: each value is its public route's, bit for bit.  Walks call only
    private code; the public calls stay on the calling thread.
    """
    spec, ts, nt = members[0][1].spec, tg.values, tg.count
    if any(f.spec != spec for _, f in members):
        raise ValueError("the members must share one grid")
    d, order, caloric = spec.d, 2 if "riesz2" in methods else int("riesz1" in methods), "caloric_sup" in methods
    moll = _dilation_block(spec, ts) if order or "maximal" in methods else None
    comps = [(len(idx), riesz_multiplier(spec, idx)) for idx in _riesz_compositions(spec, order)]
    rsym = [riesz_multiplier(spec, [j]) for j in range(1, d + 1)] if caloric else []
    poisson = kernel_block("poisson", spec, ts) if "nontangential" in methods else None
    heat = kernel_block("heat", spec, ts) if caloric or h1 else None
    swept = [{} for _ in members]

    def each(bufs, u0, u1):  # the buffers are keyed by caloric field component, d for f's passes
        k, i0 = divmod(u0, nt)  # member k's slices i0:i1
        i1, out = i0 + u1 - u0, swept[k]

        def mag(o):  # |o|, in place when real
            return np.abs(o, out=o if np.isrealobj(o) else _buffer(bufs, "mag", o.shape, float))

        def fold(key, v):  # a running maximum, from fresh arrays
            out[key] = np.maximum(out[key], v, out=out[key]) if key in out else v

        if i0 == 0:  # a member's first chunk: the last member's spectra go first
            bufs.pop("member", None)
            f = members[k][1].values
            xf = _fftn(f, d)
            # R_j f as riesz builds it (one not finite fails the check of its caloric rows)
            bufs["member"] = xf, _rfftn(f, d) if np.isrealobj(f) and spec.n > 2 else xf, [
                _fftn(_ifftn(g, d, g), d) for g in (r * xf for r in rsym)]
        xf, x, rspec = bufs["member"]
        per_scale = np.zeros((len(es), i1 - i0))
        for level, sym in [(0, None)] + comps if moll is not None else ():
            m = mag(_rows(spec, moll[i0:i1], xf if level else x, bufs, 0 if level else d, sym))
            if level == 0 and "maximal" in methods:
                fold("maximal", m.max(axis=0))
            if comps:
                per_scale += [_slice_norms(spec, m, e) for e in es]
            if level:  # the sums only grow: the max after a level's last composition
                fold(f"riesz{level}", per_scale.max(axis=1))
        if poisson is not None:
            nt_max = out.setdefault("nontangential", np.zeros(spec.shape))
            for t, absu in zip(ts[i0:i1], mag(_rows(spec, poisson[i0:i1], x, bufs, d))):
                np.maximum(nt_max, _cone_max(spec, absu, float(t)), out=nt_max)
        if heat is not None:
            u = _rows(spec, heat[i0:i1], x, bufs, d)
            if h1:
                u = mag(u)
                out.setdefault("sups", np.empty(nt))[i0:i1] = u.reshape(i1 - i0, -1).max(axis=1)
                fold("h1", np.array([_slice_norms(spec, u, e).max() for e in h1]))
            if caloric:
                us = [_rows(spec, heat[i0:i1], r, bufs, j) for j, r in enumerate(rspec)] + [u]
                F = _modulus(us, _buffer(bufs, "mag", u.shape, float))
                fold("caloric_sup", np.array([_slice_norms(spec, F, e).max() for e in es]))

    _walk(spec, nt, CHUNK_BYTES // (16 * spec.size), each, stacks=len(members))
    for (_, f), vals in zip(members, swept):
        for key in {"maximal", "nontangential"} & set(vals):
            vals[key] = [amalgam_norm(GridFunction(spec, vals[key]), e) for e in es]
        if "multiplier" in methods:
            images = [apply_multiplier(f, s) for s in default_multiplier_family(d).symbols]
            vals["multiplier"] = [float(sum(amalgam_norm(g, e) for g in images)) for e in es]
    return swept


def equivalence_reports(members, exponents, tg: TimeGrid, methods=EQUIVALENCE_METHODS,
                        store: FrozenStore | None = None) -> list:
    """Pairwise ratio spreads of the selected quantities over a family, one
    EquivalenceReport per exponent pair, from one sweep of the family
    (_member_values): the members share one grid, and no method is repeated.

    Ratios are only formed where both quantities are positive; zero values on
    nonzero members are flagged and excluded.  When a store is given, each
    pair's spread is compared against its REFERENCE_ID constant times SLACK;
    pairs without a frozen entry get ok = None.
    """
    es = [_as_exponents(e) for e in exponents]
    if not members:
        raise ValueError("empty family")
    methods = tuple(methods)
    if unknown := [m for m in methods if m not in EQUIVALENCE_METHODS]:
        raise ValueError(f"unknown method {unknown[0]!r}")
    if repeated := [m for i, m in enumerate(methods) if m in methods[:i]]:
        raise ValueError(f"method {repeated[0]!r} is repeated")
    return _reports(members, es, tg, methods, store, _member_values(members, es, tg, methods))


def _reports(members, es, tg: TimeGrid, methods, store, swept) -> list:
    """equivalence_reports from the swept values of the members."""
    gid = grid_run_id(members[0][1].spec, tg)
    reports = []
    for k, e in enumerate(es):
        vals = {m: {name: float(v[m][k]) for (name, _), v in zip(members, swept)} for m in methods}
        excluded, pairs = [], {}
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
                    pairs[key] = {"spread": None, "min": None, "max": None, "frozen": None, "ok": False}
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

    # one sweep; at the p > q sample point (1.2, 0.9) only the nontangential
    # leg is frozen.  The heat-stack sup decay constants come from each
    # member's caloric walk, and the empirical Riesz-transform bound on the
    # amalgam scale from f and R_1 f.
    es = [_as_exponents(e) for e in ((1.0, 1.0), (2.0, 3.0), (1.2, 0.9))]
    h1_pairs = ((1.0, 1.0), (2.0, 3.0))
    swept = _member_values(members, es, tg, EQUIVALENCE_METHODS, h1_pairs)
    reps = _reports(members, es, tg, EQUIVALENCE_METHODS, None, swept)
    legs = [(rep, pair) for rep in reps[:2] for pair in rep.pairs]
    for rep, pair in legs + [(reps[2], "maximal/nontangential")]:
        spread = rep.pairs[pair]["spread"]
        store.put(REFERENCE_ID, pair, rep.p, rep.q, gid, spread)
        frozen[f"{REFERENCE_ID}|{pair}|{rep.p:g},{rep.q:g}"] = spread
    h1 = {pq: max(_h1_certificate(spec, tg.values, v["sups"], float(v["h1"][k]), pq).max_ratio
                  for v in swept) for k, pq in enumerate(h1_pairs)}
    rs = [(f, riesz(f, 1)) for _, f in members]
    rb = {pq: max([0.0] + [amalgam_norm(r1, pq) / n for f, r1 in rs if (n := amalgam_norm(f, pq)) > 0])
          for pq in ((1.5, 1.5), (2.0, 3.0), (3.0, 1.5))}

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
