"""Batch command-line front door.

Runs the library operations on sampled functions and emits deterministic
JSON reports, with CSV siblings for every 1-D curve so external tools can
plot them (this tool draws nothing itself).

Exit codes: 0 pass, 1 usage error, 2 assertion failure, 3 numerical error.
The frozen-constant location honors AMALGAM_FROZEN_DIR; --frozen overrides.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .crsys import caloric_cr_residual, harmonic_cr_residual
from .extension import TimeGrid, extend, write_stack
from .frozen import FrozenStore, default_store_path
from .grid import FunctionSpec, GridFunction, GridSpec, lp_norm, sample, write_grid_function
from .hardy import (
    EQUIVALENCE_METHODS,
    SLACK,
    atom_probe,
    caloric_lift,
    default_multiplier_family,
    equivalence_report,
    freeze_constants,
    grid_run_id,
    harmonic_lift,
    hardy_norm_maximal,
    hardy_quantity_multiplier,
    hardy_quantity_riesz,
    reference_family,
)
from .norms import Exponents, amalgam_norm
from .spectral import apply_multiplier, read_symbol, riesz

__all__ = ["main"]


# largest accepted n**dim: 16 MiB per complex array, one array per stack slice
MAX_GRID_POINTS = 2**20


class UsageError(Exception):
    pass


class AssertionFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


@dataclass
class RunConfig:
    dim: int = 1
    L: int = 32
    n: int = 4096
    p: float = 1.0
    q: float = 1.0
    tmin: float = 1e-3
    tmax: float = 64.0
    tcount: int = 48
    seed: int = 0
    function: str = "gaussian:width=1"
    out: str | None = None
    frozen: str | None = None
    do_assert: bool = False

    def grid(self) -> GridSpec:
        return GridSpec(self.dim, self.L, self.n)

    def timegrid(self) -> TimeGrid:
        return TimeGrid(self.tmin, self.tmax, self.tcount)

    def exponents(self) -> Exponents:
        return Exponents(self.p, self.q)

    def sample(self) -> GridFunction:
        fs = FunctionSpec.parse(self.function)
        if fs.family == "bandlimited_random":
            fs.params.setdefault("seed", self.seed)
        try:
            return sample(fs, self.grid())
        except (OSError, ValueError) as exc:  # bad parameters or an unreadable file
            raise UsageError(f"--function {self.function!r}: {exc}") from exc

    def echo(self) -> dict:
        return {
            "dim": self.dim, "L": self.L, "n": self.n, "p": self.p, "q": self.q,
            "tmin": self.tmin, "tmax": self.tmax, "tcount": self.tcount,
            "seed": self.seed, "function": self.function,
        }


def _add_common(sub):
    sub.add_argument("--dim", type=int, default=None)
    sub.add_argument("--L", type=int, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--q", type=float, default=None)
    sub.add_argument("--tmin", type=float, default=None)
    sub.add_argument("--tmax", type=float, default=None)
    sub.add_argument("--tcount", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--function", type=str, default=None)
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--frozen", type=str, default=None)
    sub.add_argument("--config", type=str, default=None, help="JSON file with the same keys")
    sub.add_argument("--assert", dest="do_assert", action="store_true",
                     help="turn the report into a pass/fail gate (exit 2 on failure)")


def _build_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        for key, val in doc.items():
            if not hasattr(cfg, key):
                raise UsageError(f"unknown config key {key!r}")
            setattr(cfg, key, val)
    for key in ("dim", "L", "n", "p", "q", "tmin", "tmax", "tcount",
                "seed", "function", "out", "frozen"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if getattr(args, "do_assert", False):
        cfg.do_assert = True
    try:
        if cfg.grid().size > MAX_GRID_POINTS:
            raise UsageError(f"grid of {cfg.n}^{cfg.dim} points exceeds {MAX_GRID_POINTS}")
        cfg.timegrid()
        cfg.exponents()
        FunctionSpec.parse(cfg.function)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def _write_csv(path: Path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _emit(cfg: RunConfig, command: str, results: dict, status: str = "pass") -> dict:
    payload = {
        "command": command,
        "config": cfg.echo(),
        "grid_id": grid_run_id(cfg.grid(), cfg.timegrid()),
        "versions": {"amalgam": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "results": _jsonable(results),
        "status": status,
    }
    body = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    payload_with_ts = dict(payload)
    payload_with_ts["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if cfg.out:
        out = Path(cfg.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w") as fh:
            json.dump(payload_with_ts, fh, sort_keys=True, indent=1, allow_nan=False)
            fh.write("\n")
    else:
        print(body)
    return payload


def _csv_sibling(cfg: RunConfig, suffix: str) -> Path | None:
    if not cfg.out:
        return None
    out = Path(cfg.out)
    return out.with_name(out.stem + f"_{suffix}.csv")


# -- commands ------------------------------------------------------------------


def _cmd_norm(cfg: RunConfig) -> dict:
    f = cfg.sample()
    e = cfg.exponents()
    results = {
        "lp": lp_norm(f, e.p),
        "amalgam_discrete": amalgam_norm(f, e, "discrete"),
        "amalgam_ball": amalgam_norm(f, e, "ball"),
    }
    return _emit(cfg, "norm", results)


def _cmd_transform(cfg: RunConfig, op: str, axis: int, symbol_file: str | None) -> dict:
    f = cfg.sample()
    if op == "riesz":
        if not 1 <= axis <= cfg.dim:
            raise UsageError(f"--axis must lie in 1..{cfg.dim} for dim={cfg.dim}, got {axis}")
        g = riesz(f, axis)
    elif op == "multiplier":
        if not symbol_file:
            raise UsageError("multiplier transform needs --symbol-file")
        try:
            theta = read_symbol(symbol_file)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable or malformed
            raise UsageError(f"--symbol-file {symbol_file!r}: {exc}") from exc
        if theta.d != cfg.dim:
            raise UsageError(f"symbol dimension {theta.d} does not match dim={cfg.dim}")
        g = apply_multiplier(f, theta)
    else:
        raise UsageError(f"unknown transform {op!r}")
    results = {"op": op, "input_l2": lp_norm(f, 2), "output_l2": lp_norm(g, 2)}
    if cfg.out:
        data_path = Path(cfg.out).with_suffix(".grid")
        write_grid_function(g, data_path)
        results["data_file"] = data_path.name
    return _emit(cfg, "transform", results)


def _cmd_extend(cfg: RunConfig, kernel: str) -> dict:
    f = cfg.sample()
    tg = cfg.timegrid()
    stack = extend(f, kernel, tg)
    ts = tg.values
    sups = [float(np.max(np.abs(stack.values[i]))) for i in range(tg.count)]
    l2s = [lp_norm(stack.slice(i), 2) for i in range(tg.count)]
    results = {"kernel": kernel, "t": list(ts), "sup": sups, "l2": l2s}
    if cfg.out:
        stack_path = Path(cfg.out).with_suffix(".stack")
        write_stack(stack, stack_path)
        results["stack_file"] = stack_path.name
        csv = _csv_sibling(cfg, "slices")
        _write_csv(csv, ["t", "sup", "l2"], zip(ts, sups, l2s))
    return _emit(cfg, "extend", results)


def _cmd_cr_check(cfg: RunConfig, lift: str, mode: str, tol: float | None) -> dict:
    f = cfg.sample()
    tg = cfg.timegrid()
    if lift == "harmonic":
        rep = harmonic_cr_residual(harmonic_lift(f, tg))
        default_tol = 1e-6
    elif lift == "caloric":
        rep = caloric_cr_residual(caloric_lift(f, tg), mode=mode)
        default_tol = 1e-6 if mode == "spectral" else 1e-2
    else:
        raise UsageError(f"unknown lift {lift!r}")
    tol = default_tol if tol is None else tol
    maxima = {k: rep.max_of(k) for k in rep.per_slice}
    results = {"lift": lift, "report": rep.to_jsonable(), "tol": tol, "max": maxima}
    ok = all(v <= tol for v in maxima.values())
    if cfg.out:
        csv = _csv_sibling(cfg, "residuals")
        keys = sorted(rep.per_slice)
        rows = zip(rep.times, *[rep.per_slice[k] for k in keys])
        _write_csv(csv, ["t"] + keys, rows)
    payload = _emit(cfg, "cr-check", results, status="pass" if ok else "fail")
    if cfg.do_assert and not ok:
        raise AssertionFailure(f"residuals exceed {tol}: {maxima}")
    return payload


def _cmd_hardy(cfg: RunConfig, order: int) -> dict:
    if order < 1:
        raise UsageError(f"--order must be >= 1, got {order}")
    f = cfg.sample()
    e = cfg.exponents()
    tg = cfg.timegrid()
    rq = hardy_quantity_riesz(f, e, tg, order=order)
    mq = hardy_quantity_multiplier(f, default_multiplier_family(cfg.dim), e)
    results = {
        "maximal": hardy_norm_maximal(f, e, tg),
        "riesz": rq.value,
        "riesz_threshold_ok": rq.threshold_ok,
        "multiplier": mq.value,
        "multiplier_rank2_ok": mq.threshold_ok,
        "order": order,
    }
    if cfg.out:
        csv = _csv_sibling(cfg, "riesz_scale")
        _write_csv(csv, ["t", "quantity"], zip(tg.values, rq.per_scale))
    return _emit(cfg, "hardy", results)


def _cmd_atoms(cfg: RunConfig, orders, sides) -> dict:
    spec = cfg.grid()
    e = cfg.exponents()
    tg = cfg.timegrid()
    rows = [{"m": m, "side": side, "value": value}
            for m, side, value in atom_probe(spec, e, tg, orders, sides)]
    values = [r["value"] for r in rows]
    results = {"atoms": rows, "band_low": min(values), "band_high": max(values)}
    status = "pass"
    if cfg.do_assert:
        store = FrozenStore.load(cfg.frozen)
        gid = grid_run_id(spec, tg)
        lo = store.get("atoms-d1", "band_low", e.p, e.q, gid)
        hi = store.get("atoms-d1", "band_high", e.p, e.q, gid)
        ok = min(values) >= lo / SLACK and max(values) <= hi * SLACK
        results["frozen_band"] = [lo, hi]
        status = "pass" if ok else "fail"
    if cfg.out:
        csv = _csv_sibling(cfg, "atoms")
        _write_csv(csv, ["m", "side", "value"], [(r["m"], r["side"], r["value"]) for r in rows])
    payload = _emit(cfg, "atoms", results, status)
    if cfg.do_assert and status == "fail":
        raise AssertionFailure(f"atom band {min(values), max(values)} outside frozen band")
    return payload


def _parse_pq(text: str) -> Exponents:
    try:
        p_str, q_str = text.split(",")
        return Exponents(float(p_str), float(q_str))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"--pq expects 'p,q', got {text!r}") from exc


def _parse_list(flag: str, text: str, kind) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag} expects a comma-separated list, got {text!r}") from exc


def _method_list(text: str):
    methods = tuple(item.strip() for item in text.split(","))
    for item in methods:
        if item not in EQUIVALENCE_METHODS:
            raise UsageError(f"unknown method {item!r}; "
                             f"choose from {sorted(EQUIVALENCE_METHODS)}")
    return methods


def _cmd_report(cfg: RunConfig, pq: Exponents, methods) -> dict:
    spec = cfg.grid()
    tg = cfg.timegrid()
    members = reference_family(spec)
    store = None
    try:
        store = FrozenStore.load(cfg.frozen)
    except FileNotFoundError:
        if cfg.do_assert:
            raise
    rep = equivalence_report(members, pq, tg, methods=methods, store=store)
    results = rep.to_jsonable()
    ok = rep.ok and all(info["ok"] is not None for info in rep.pairs.values()) if cfg.do_assert else rep.ok
    if cfg.out:
        csv = _csv_sibling(cfg, "ratios")
        cols = ("min", "max", "spread", "frozen")
        rows = [(pair, *("" if info[c] is None else info[c] for c in cols))
                for pair, info in rep.pairs.items()]
        _write_csv(csv, ["pair", *cols], rows)
    payload = _emit(cfg, "report", results, status="pass" if ok else "fail")
    if cfg.do_assert and not ok:
        bad = {k: v for k, v in rep.pairs.items() if v["ok"] is not True}
        raise AssertionFailure(f"ratio spreads outside frozen bands: {sorted(bad)}")
    return payload


def _cmd_freeze(cfg: RunConfig) -> dict:
    spec = cfg.grid()
    tg = cfg.timegrid()
    store = FrozenStore()
    frozen = freeze_constants(spec, tg, store)
    path = store.save(cfg.frozen if cfg.frozen else default_store_path())
    return _emit(cfg, "freeze", {"store": str(path), "constants": frozen})


# -- entry point -----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="amalgam", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("norm", help="Lebesgue and amalgam norms of a sampled function")
    _add_common(sub)

    sub = subs.add_parser("transform", help="Riesz transform or multiplier image")
    _add_common(sub)
    sub.add_argument("--op", choices=("riesz", "multiplier"), default="riesz")
    sub.add_argument("--axis", type=int, default=1)
    sub.add_argument("--symbol-file", type=str, default=None)

    sub = subs.add_parser("extend", help="Poisson/heat extension stack dump")
    _add_common(sub)
    sub.add_argument("--kernel", choices=("poisson", "heat"), default="heat")

    sub = subs.add_parser("cr-check", help="conjugate-system residual report")
    _add_common(sub)
    sub.add_argument("--lift", choices=("harmonic", "caloric"), default="harmonic")
    sub.add_argument("--mode", choices=("spectral", "quadrature"), default="spectral")
    sub.add_argument("--tol", type=float, default=None)

    sub = subs.add_parser("hardy", help="the three Hardy quantities of a function")
    _add_common(sub)
    sub.add_argument("--order", type=int, default=1)

    sub = subs.add_parser("atoms", help="atom generation and maximal-norm probe")
    _add_common(sub)
    sub.add_argument("--orders", type=str, default="0,1")
    sub.add_argument("--sides", type=str, default="0.25,0.5,1,2,4")

    sub = subs.add_parser("report", help="norm-equivalence ratio report on the reference family")
    _add_common(sub)
    sub.add_argument("--methods", type=str, default="maximal,riesz1")
    sub.add_argument("--pq", type=str, default="1,1")

    sub = subs.add_parser("freeze", help="measure and write the frozen constants")
    _add_common(sub)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _build_config(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "norm":
            _cmd_norm(cfg)
        elif args.command == "transform":
            _cmd_transform(cfg, args.op, args.axis, args.symbol_file)
        elif args.command == "extend":
            _cmd_extend(cfg, args.kernel)
        elif args.command == "cr-check":
            _cmd_cr_check(cfg, args.lift, args.mode, args.tol)
        elif args.command == "hardy":
            _cmd_hardy(cfg, args.order)
        elif args.command == "atoms":
            _cmd_atoms(cfg, _parse_list("--orders", args.orders, int),
                       _parse_list("--sides", args.sides, float))
        elif args.command == "report":
            _cmd_report(cfg, _parse_pq(args.pq), _method_list(args.methods))
        elif args.command == "freeze":
            _cmd_freeze(cfg)
        else:  # pragma: no cover
            raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except AssertionFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, FileNotFoundError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        try:
            _emit(cfg, args.command, {"error": str(exc)}, status="error")
        except Exception:
            pass  # the error report is best-effort
        return 3
    return 0


def main() -> None:
    sys.exit(run())
