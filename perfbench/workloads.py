"""The benchmark's three workloads: inputs drawn from the seed, one timed pass,
and the correctness check of every operation in it.

Each workload builds the input of pass k with `inputs(k)` (untimed; pass 0 is
built during set-up), runs the pass with `run(k, inp)` (timed) and checks the
pass's outputs with `check(obs)` (untimed), which returns one
`(operation, ok, detail)` triple per operation attempted.  Library calls go
through the module objects so that a traced run sees the wrapped functions.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

from amalgam import cli, crsys, extension, grid, hardy, norms

STORE_REL_TOL = 1e-12
# documented default tolerances of `amalgam cr-check --lift caloric`
CALORIC_TOL = {"quadrature": 1e-2, "spectral": 1e-6}
FIELD_RES_TOL = 1e-6
FIELD_TOL = 1e-12
BALL_PQ = 1.5


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(path: Path):
    """Parse a report, refusing NaN and +-Infinity."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def _rng(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class FreezeD1:
    """`amalgam freeze` on the reference run (d=1, L=32, n=4096, 48 times).

    The inputs are fixed by the store's definition; the seed is recorded but
    unused.  The store is always written to an explicit scratch path.
    """

    name = "freeze-d1"
    ops = ("freeze",)

    def __init__(self, seed: int, root: Path, scratch: Path):
        self.scratch = scratch
        self.committed = strict_json(root / "src" / "amalgam" / "data" / "frozen_constants.json")

    def inputs(self, k: int):
        d = self.scratch / f"freeze-{k}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def run(self, k: int, d: Path) -> dict:
        rc = cli.run(["freeze", "--frozen", str(d / "store.json"), "--out", str(d / "report.json")])
        return {"rc": rc, "dir": d}

    def _compare_store(self, written: dict) -> str | None:
        want, got = self.committed, written
        if got.get("version") != want.get("version"):
            return f"store version {got.get('version')!r} != {want.get('version')!r}"
        we, ge = want["entries"], got["entries"]
        if sorted(we) != sorted(ge):
            return f"store keys differ: missing {sorted(set(we) - set(ge))}, extra {sorted(set(ge) - set(we))}"
        for key, entry in we.items():
            if ge[key]["grid_id"] != entry["grid_id"]:
                return f"{key}: grid id {ge[key]['grid_id']!r} != {entry['grid_id']!r}"
            if not _rel_close(float(ge[key]["value"]), float(entry["value"]), STORE_REL_TOL):
                return f"{key}: {ge[key]['value']!r} != {entry['value']!r}"
        return None

    def check(self, obs: dict) -> list:
        d = obs["dir"]
        try:
            if obs["rc"] != 0:
                return [("freeze", False, f"exit code {obs['rc']}")]
            report = strict_json(d / "report.json")
            if report.get("status") != "pass":
                return [("freeze", False, f"report status {report.get('status')!r}")]
            problem = self._compare_store(strict_json(d / "store.json"))
            return [("freeze", problem is None, problem or "")]
        except (OSError, ValueError, KeyError) as exc:
            return [("freeze", False, f"{type(exc).__name__}: {exc}")]
        finally:
            shutil.rmtree(d, ignore_errors=True)


class CaloricQuadD1:
    """`amalgam cr-check --lift caloric --assert` in quadrature and spectral
    mode on the d=1 desk grid, for a gaussian drawn from the seed."""

    name = "caloric-quad-d1"
    ops = ("cr-check-quadrature", "cr-check-spectral")

    def __init__(self, seed: int, root: Path, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def inputs(self, k: int):
        rng = _rng(self.seed, k)
        center = round(rng.uniform(-8.0, 8.0), 3)
        width = round(rng.uniform(0.5, 2.0), 3)
        d = self.scratch / f"caloric-{k}"
        d.mkdir(parents=True, exist_ok=True)
        return d, f"gaussian:center={center},width={width}"

    def _cr_check(self, d: Path, mode: str, function: str, gate: bool) -> int:
        argv = ["cr-check", "--lift", "caloric", "--mode", mode, "--function", function,
                "--out", str(d / f"{mode}.json")]
        return cli.run(argv + (["--assert"] if gate else []))

    def run(self, k: int, inp) -> dict:
        d, function = inp
        rcs = {mode: self._cr_check(d, mode, function, gate=True) for mode in CALORIC_TOL}
        return {"rc": rcs, "dir": d, "function": function}

    def check(self, obs: dict) -> list:
        d = obs["dir"]
        out = []
        try:
            for mode, tol in CALORIC_TOL.items():
                op = f"cr-check-{mode}"
                try:
                    if obs["rc"][mode] != 0:
                        out.append((op, False, f"{obs['function']}: exit code {obs['rc'][mode]}"))
                        continue
                    report = strict_json(d / f"{mode}.json")
                    res = report["results"]
                    maxima = res["max"]
                    ok = (report.get("status") == "pass" and res["tol"] == tol and maxima
                          and all(v <= tol for v in maxima.values()))
                    out.append((op, bool(ok), "" if ok else f"{obs['function']}: {maxima} vs {tol}"))
                except (OSError, ValueError, KeyError) as exc:
                    out.append((op, False, f"{type(exc).__name__}: {exc}"))
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return out

    def diagnostic(self) -> dict:
        """Quadrature residual of one band-limited draw, run without --assert.

        It exceeds the 1e-2 gate today; it is recorded, never gated on.
        """
        rng = _rng(self.seed, -1)
        function = f"bandlimited_random:seed={rng.randrange(1 << 30)},lo=0.25,hi=2"
        d = self.scratch / "caloric-diagnostic"
        d.mkdir(parents=True, exist_ok=True)
        try:
            rc = self._cr_check(d, "quadrature", function, gate=False)
            report = strict_json(d / "quadrature.json")
            return {"weyl.quadrature.res_max": max(report["results"]["max"].values()),
                    "function": function, "rc": rc}
        finally:
            shutil.rmtree(d, ignore_errors=True)


class FieldD2:
    """One pass of the d=2 field operations on the desk grid (L=8, n=256)."""

    name = "field-d2"
    ops = ("harmonic-residual", "caloric-residual", "caloric-sup", "poisson-nontangential",
           "hl-maximal", "area-integral", "amalgam-norms", "stack-roundtrip")

    def __init__(self, seed: int, root: Path, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.spec = grid.make_grid(2, 8, 256)
        self.tg = extension.TimeGrid(1e-3, 64.0, 48)

    def inputs(self, k: int):
        rng = _rng(self.seed, k)
        if rng.random() < 0.5:
            fs = grid.FunctionSpec("gaussian", {
                "center": (round(rng.uniform(-4.0, 4.0), 3), round(rng.uniform(-4.0, 4.0), 3)),
                "width": round(rng.uniform(0.5, 2.0), 3)})
        else:
            fs = grid.FunctionSpec("bandlimited_random", {
                "seed": rng.randrange(1 << 30), "lo": 0.25, "hi": 2.0})
        d = self.scratch / f"field-{k}"
        d.mkdir(parents=True, exist_ok=True)
        return d, fs, grid.sample(fs, self.spec)

    def run(self, k: int, inp) -> dict:
        d, fs, f = inp
        tg = self.tg
        rh = crsys.harmonic_cr_residual(hardy.harmonic_lift(f, tg))
        harmonic = {key: rh.max_of(key) for key in rh.per_slice}
        field = hardy.caloric_lift(f, tg)
        rc = crsys.caloric_cr_residual(field, "spectral")
        caloric = {key: rc.max_of(key) for key in rc.per_slice}
        sup = crsys.sup_vector_amalgam_norm(field, (BALL_PQ, BALL_PQ))
        field = None
        stack = extension.extend(f, "poisson", tg)
        nt = extension.nontangential_max(stack)
        hl = extension.hl_maximal(f, 1.0)
        area = extension.area_integral(f, None, tg)
        e = (BALL_PQ, BALL_PQ)
        ball = norms.amalgam_norm(f, e, "ball")
        discrete = norms.amalgam_norm(f, e, "discrete")
        path = d / "poisson.stack"
        extension.write_stack(stack, path)
        back = extension.read_stack(path)
        return {"dir": d, "fs": fs, "f": f, "harmonic": harmonic, "caloric": caloric,
                "sup": sup, "stack": stack, "nt": nt, "hl": hl, "area": area, "ball": ball,
                "discrete": discrete, "back": back}

    def check(self, obs: dict) -> list:
        shutil.rmtree(obs["dir"], ignore_errors=True)
        f = obs["f"]
        absf = np.abs(f.values)
        out = []

        def gate(op, ok, detail):
            out.append((op, bool(ok), "" if ok else f"{obs['fs']}: {detail}"))

        for op, key in (("harmonic-residual", "harmonic"), ("caloric-residual", "caloric")):
            res = obs[key]
            gate(op, res and all(v <= FIELD_RES_TOL for v in res.values()), res)
        gate("caloric-sup", math.isfinite(obs["sup"]) and obs["sup"] > 0,
             f"sup-vector amalgam norm {obs['sup']!r}")
        u0 = np.abs(obs["stack"].values[0])
        nt = obs["nt"].values
        gate("poisson-nontangential", np.all(nt.imag == 0) and np.all(nt.real >= u0),
             f"min(N u - |u(t_min)|) = {np.min(nt.real - u0):.3e}")
        hl = obs["hl"].values.real
        gate("hl-maximal", np.all(hl >= absf - FIELD_TOL * max(1.0, absf.max())),
             f"min(M f - |f|) = {np.min(hl - absf):.3e}")
        area = obs["area"].values
        gate("area-integral", np.all(np.isfinite(area)) and np.all(area.real >= 0)
             and np.all(area.imag == 0), "area integral not finite and nonnegative")
        p = BALL_PQ
        lp = grid.lp_norm(f, p)
        want_ball = math.pi ** (1.0 / p) * lp
        gate("amalgam-norms",
             _rel_close(obs["ball"], want_ball, FIELD_TOL) and _rel_close(obs["discrete"], lp, FIELD_TOL),
             f"ball {obs['ball']!r} vs {want_ball!r}, discrete {obs['discrete']!r} vs {lp!r}")
        a, b = obs["stack"], obs["back"]
        gate("stack-roundtrip",
             a.spec == b.spec and a.tgrid == b.tgrid and a.kernel == b.kernel
             and a.values.dtype == b.values.dtype
             and np.array_equal(a.values.view(np.int64), b.values.view(np.int64)),
             "read_stack(write_stack(u)) is not bit-exact")
        return out


WORKLOADS = {w.name: w for w in (FreezeD1, CaloricQuadD1, FieldD2)}
