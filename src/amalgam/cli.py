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
import functools
import importlib.util
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .crsys import caloric_cr_residual, harmonic_cr_residual
from .extension import TimeGrid, extend, grid_run_id, write_stack
from .frozen import FrozenStore, default_store_path
from .grid import FunctionSpec, GridFunction, GridSpec, lp_norm, sample, write_grid_function
from .hardy import (
    ATOM_SIDES,
    EQUIVALENCE_METHODS,
    SLACK,
    AtomSpec,
    caloric_lift,
    default_multiplier_family,
    equivalence_report,
    freeze_constants,
    harmonic_lift,
    hardy_norm_maximal,
    hardy_quantity_multiplier,
    hardy_quantity_riesz,
    make_atom,
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
        """The fields that determine the results, not where they are written."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("out", "frozen", "do_assert")}


# the values a config file may give a RunConfig field, by its annotation
# (a bool is an int to isinstance, but not to a config file)
_CONFIG_TYPES = {"int": (int,), "float": (int, float), "str": (str,),
                 "str | None": (str, type(None)), "bool": (bool,)}


def _add_common(sub):
    """One flag per RunConfig field, --assert for do_assert, and --config."""
    for f in fields(RunConfig):
        if f.type == "bool":
            sub.add_argument(f"--{f.name.removeprefix('do_')}", dest=f.name, action="store_true",
                             default=None, help="turn the report into a pass/fail gate "
                                                "(exit 2 on failure)")
        else:
            sub.add_argument(f"--{f.name}", type={"int": int, "float": float}.get(f.type, str))
    sub.add_argument("--config", help="JSON file with the same keys")


def _read_config(path: str) -> dict:
    """The RunConfig fields a config file sets, each of its field's type."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise UsageError(f"--config {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"--config {path!r}: not a JSON object")
    types = {f.name: f.type for f in fields(RunConfig)}
    for key, val in doc.items():
        if key not in types:
            raise UsageError(f"--config {path!r}: unknown config key {key!r}")
        want = _CONFIG_TYPES[types[key]]
        if not isinstance(val, want) or (isinstance(val, bool) and bool not in want):
            raise UsageError(f"--config {path!r}: {key} must be {types[key]}, got {val!r}")
    return doc


def _build_config(args) -> RunConfig:
    cfg = RunConfig(**(_read_config(args.config) if args.config else {}))
    for f in fields(cfg):
        if (val := getattr(args, f.name)) is not None:
            setattr(cfg, f.name, val)
    try:
        if cfg.grid().size > MAX_GRID_POINTS:
            raise UsageError(f"grid of {cfg.n}^{cfg.dim} points exceeds {MAX_GRID_POINTS}")
        cfg.timegrid()
        cfg.exponents()
        FunctionSpec.parse(cfg.function)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def _write(path: Path, write) -> None:
    """write(path), an output of the run; an OSError is a usage error naming the path."""
    try:
        write(path)
    except OSError as exc:
        raise UsageError(f"cannot write {str(path)!r}: {exc}") from exc


def _write_csv(cfg: RunConfig, suffix: str, header, rows):
    """Write the CSV sibling <stem>_<suffix>.csv of the --out report."""
    lines = [header] + [[repr(float(v)) if isinstance(v, (int, float, np.floating)) else str(v)
                         for v in row] for row in rows]
    out = Path(cfg.out)
    _write(out.with_name(f"{out.stem}_{suffix}.csv"),
           lambda p: p.write_text("".join(",".join(line) + "\n" for line in lines)))


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


@functools.cache
def _scipy_version() -> str:
    """scipy.__version__ without importing scipy: its version.py, a file
    with no imports, run alone (a report needs scipy for nothing else)."""
    ns = {}
    exec(Path(importlib.util.find_spec("scipy").submodule_search_locations[0], "version.py").read_text(), ns)
    return ns["version"]


def _emit(cfg: RunConfig, command: str, results: dict, status: str = "pass") -> dict:
    payload = {
        "command": command,
        "config": cfg.echo(),
        "grid_id": grid_run_id(cfg.grid(), cfg.timegrid()),
        "versions": {"amalgam": __version__, "numpy": np.__version__, "scipy": _scipy_version()},
        "results": _jsonable(results),
        "status": status,
    }
    if cfg.out:
        stamped = {**payload, "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
        text = json.dumps(stamped, sort_keys=True, indent=1, allow_nan=False) + "\n"
        _write(Path(cfg.out), lambda p: p.write_text(text))
    else:
        print(json.dumps(payload, sort_keys=True, indent=1, allow_nan=False))
    return payload


# -- commands ------------------------------------------------------------------
# Each takes the run's config and the parsed arguments of its own flags.


def _require_d1(cfg: RunConfig, command: str) -> None:
    if cfg.dim != 1:
        raise UsageError(f"{command} is one-dimensional, got --dim {cfg.dim}")


def _frozen_store(cfg: RunConfig) -> FrozenStore | None:
    """The --frozen store; None if missing, a usage error if unusable (or missing under --assert)."""
    try:
        return FrozenStore.load(cfg.frozen)
    except FileNotFoundError as exc:
        if cfg.do_assert:
            raise UsageError(str(exc)) from exc
        return None
    except (OSError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def _cmd_norm(cfg: RunConfig, args) -> None:
    f, e = cfg.sample(), cfg.exponents()
    results = {
        "lp": lp_norm(f, e.p),
        "amalgam_discrete": amalgam_norm(f, e, "discrete"),
        "amalgam_ball": amalgam_norm(f, e, "ball"),
    }
    _emit(cfg, "norm", results)


def _cmd_transform(cfg: RunConfig, args) -> None:
    f = cfg.sample()
    if args.op == "riesz":
        if not 1 <= args.axis <= cfg.dim:
            raise UsageError(f"--axis must lie in 1..{cfg.dim} for dim={cfg.dim}, got {args.axis}")
        g = riesz(f, args.axis)
    else:
        if not args.symbol_file:
            raise UsageError("multiplier transform needs --symbol-file")
        try:
            theta = read_symbol(args.symbol_file)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable or malformed
            raise UsageError(f"--symbol-file {args.symbol_file!r}: {exc}") from exc
        if theta.d != cfg.dim:
            raise UsageError(f"symbol dimension {theta.d} does not match dim={cfg.dim}")
        g = apply_multiplier(f, theta)
    results = {"op": args.op, "input_l2": lp_norm(f, 2), "output_l2": lp_norm(g, 2)}
    if cfg.out:
        data_path = Path(cfg.out).with_suffix(".grid")
        _write(data_path, lambda p: write_grid_function(g, p))
        results["data_file"] = data_path.name
    _emit(cfg, "transform", results)


def _cmd_extend(cfg: RunConfig, args) -> None:
    tg = cfg.timegrid()
    stack = extend(cfg.sample(), args.kernel, tg)
    ts = tg.values
    sups = [float(np.max(np.abs(stack.values[i]))) for i in range(tg.count)]
    l2s = [lp_norm(stack.slice(i), 2) for i in range(tg.count)]
    results = {"kernel": args.kernel, "t": list(ts), "sup": sups, "l2": l2s}
    if cfg.out:
        stack_path = Path(cfg.out).with_suffix(".stack")
        _write(stack_path, lambda p: write_stack(stack, p))
        results["stack_file"] = stack_path.name
        _write_csv(cfg, "slices", ["t", "sup", "l2"], zip(ts, sups, l2s))
    _emit(cfg, "extend", results)


def _cmd_cr_check(cfg: RunConfig, args) -> None:
    if args.lift == "harmonic" and args.mode == "quadrature":
        raise UsageError("--lift harmonic has no --mode quadrature: its residual is spectral only")
    f, tg = cfg.sample(), cfg.timegrid()
    if args.lift == "harmonic":
        rep = harmonic_cr_residual(harmonic_lift(f, tg))
        default_tol = 1e-6
    else:
        rep = caloric_cr_residual(caloric_lift(f, tg), mode=args.mode, keep_magnitude=False)
        default_tol = 1e-6 if args.mode == "spectral" else 1e-2
    tol = default_tol if args.tol is None else args.tol
    maxima = {k: rep.max_of(k) for k in rep.per_slice}
    results = {"lift": args.lift, "report": rep.to_jsonable(), "tol": tol, "max": maxima}
    ok = all(v <= tol for v in maxima.values())
    if cfg.out:
        keys = sorted(rep.per_slice)
        _write_csv(cfg, "residuals", ["t"] + keys, zip(rep.times, *[rep.per_slice[k] for k in keys]))
    _emit(cfg, "cr-check", results, status="pass" if ok else "fail")
    if cfg.do_assert and not ok:
        raise AssertionFailure(f"residuals exceed {tol}: {maxima}")


def _cmd_hardy(cfg: RunConfig, args) -> None:
    _require_d1(cfg, "hardy")
    if args.order < 1:
        raise UsageError(f"--order must be >= 1, got {args.order}")
    f, e, tg = cfg.sample(), cfg.exponents(), cfg.timegrid()
    rq = hardy_quantity_riesz(f, e, tg, order=args.order)
    mq = hardy_quantity_multiplier(f, default_multiplier_family(cfg.dim), e)
    results = {
        "maximal": hardy_norm_maximal(f, e, tg),
        "riesz": rq.value,
        "riesz_threshold_ok": rq.threshold_ok,
        "multiplier": mq.value,
        "multiplier_rank2_ok": mq.threshold_ok,
        "order": args.order,
    }
    if cfg.out:
        _write_csv(cfg, "riesz_scale", ["t", "quantity"], zip(tg.values, rq.per_scale))
    _emit(cfg, "hardy", results)


def _cmd_atoms(cfg: RunConfig, args) -> None:
    spec, e, tg = cfg.grid(), cfg.exponents(), cfg.timegrid()
    store = _frozen_store(cfg) if cfg.do_assert else None
    rows = []
    for m in args.orders:
        for side in args.sides:
            try:
                atom = make_atom(AtomSpec((0.0,) * spec.d, side, m, e.p, e.q), spec)
            except ValueError as exc:  # the cube is too small for the order, or leaves the box
                raise UsageError(f"--orders {m} --sides {side:g}: {exc}") from exc
            rows.append({"m": m, "side": side, "value": hardy_norm_maximal(atom, e, tg)})
    values = [r["value"] for r in rows]
    results = {"atoms": rows, "band_low": min(values), "band_high": max(values)}
    status = "pass"
    if store is not None:
        gid = grid_run_id(spec, tg)
        lo = store.get("atoms-d1", "band_low", e.p, e.q, gid)
        hi = store.get("atoms-d1", "band_high", e.p, e.q, gid)
        ok = min(values) >= lo / SLACK and max(values) <= hi * SLACK
        results["frozen_band"] = [lo, hi]
        status = "pass" if ok else "fail"
    if cfg.out:
        _write_csv(cfg, "atoms", ["m", "side", "value"], [(r["m"], r["side"], r["value"]) for r in rows])
    _emit(cfg, "atoms", results, status)
    if status == "fail":
        raise AssertionFailure(f"atom band {min(values), max(values)} outside frozen band")


def _cmd_report(cfg: RunConfig, args) -> None:
    _require_d1(cfg, "report")
    if len(set(args.methods)) < len(args.methods):
        raise UsageError(f"--methods names a method twice: {','.join(args.methods)}")
    if cfg.do_assert and len(args.methods) < 2:
        raise UsageError("report --assert needs at least two --methods, a pair to compare")
    store = _frozen_store(cfg)
    rep = equivalence_report(reference_family(cfg.grid()), args.pq, cfg.timegrid(), args.methods,
                             store=store)
    results = rep.to_jsonable()
    ok = rep.ok and all(info["ok"] is not None for info in rep.pairs.values()) if cfg.do_assert else rep.ok
    if cfg.out:
        cols = ("min", "max", "spread", "frozen")
        rows = [(pair, *("" if info[c] is None else info[c] for c in cols))
                for pair, info in rep.pairs.items()]
        _write_csv(cfg, "ratios", ["pair", *cols], rows)
    _emit(cfg, "report", results, status="pass" if ok else "fail")
    if cfg.do_assert and not ok:
        bad = {k: v for k, v in rep.pairs.items() if v["ok"] is not True}
        raise AssertionFailure(f"ratio spreads outside frozen bands: {sorted(bad)}")


def _cmd_freeze(cfg: RunConfig, args) -> None:
    _require_d1(cfg, "freeze")
    store = FrozenStore()
    frozen = freeze_constants(cfg.grid(), cfg.timegrid(), store)
    path = Path(cfg.frozen or default_store_path())
    _write(path, store.save)
    _emit(cfg, "freeze", {"store": str(path), "constants": frozen})


# -- flag types: a bad value is a usage error while parsing ------------------------


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


def _exponent_pair(text: str) -> Exponents:
    try:
        p, q = text.split(",")
        return Exponents(float(p), float(q))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expects 'p,q', got {text!r}") from exc


def _list_of(kind, valid, what: str):
    """A comma-separated list of kind, each item valid (what says which)."""
    def parse(text: str) -> list:
        try:
            if all(map(valid, items := [kind(v) for v in text.split(",")])):
                return items
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expects a comma-separated list of {what}, got {text!r}")
    return parse


# -- entry point -----------------------------------------------------------------


# name: (handler, help, the command's own flags as add_argument (flag, keywords))
_COMMANDS = {
    "norm": (_cmd_norm, "Lebesgue and amalgam norms of a sampled function", ()),
    "transform": (_cmd_transform, "Riesz transform or multiplier image", (
        ("--op", dict(choices=("riesz", "multiplier"), default="riesz")),
        ("--axis", dict(type=int, default=1)),
        ("--symbol-file", dict(type=str, default=None)))),
    "extend": (_cmd_extend, "Poisson/heat extension stack dump", (
        ("--kernel", dict(choices=("poisson", "heat"), default="heat")),)),
    "cr-check": (_cmd_cr_check, "conjugate-system residual report", (
        ("--lift", dict(choices=("harmonic", "caloric"), default="harmonic")),
        ("--mode", dict(choices=("spectral", "quadrature"), default="spectral")),
        ("--tol", dict(type=_tolerance, default=None)))),
    "hardy": (_cmd_hardy, "the three Hardy quantities of a function", (
        ("--order", dict(type=int, default=1)),)),
    "atoms": (_cmd_atoms, "atom generation and maximal-norm probe", (
        ("--orders", dict(type=_list_of(int, lambda m: m >= 0, "moment orders >= 0"), default="0,1")),
        ("--sides", dict(type=_list_of(float, ATOM_SIDES.__contains__, f"sides from {ATOM_SIDES}"),
                         default="0.25,0.5,1,2,4")))),
    "report": (_cmd_report, "norm-equivalence ratio report on the reference family", (
        ("--methods", dict(type=_list_of(str.strip, EQUIVALENCE_METHODS.__contains__,
                                         f"methods from {EQUIVALENCE_METHODS}"),
                           default="maximal,riesz1")),
        ("--pq", dict(type=_exponent_pair, default="1,1")))),
    "freeze": (_cmd_freeze, "measure and write the frozen constants", ()),
}


def _build_parser(argv: list) -> _Parser:
    """Every command by name and help; flags only for the one argv invokes
    (its first word not starting with '-', as argparse picks it), the only
    one that parses any."""
    parser = _Parser(prog="amalgam", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    invoked = next((a for a in argv if not a.startswith("-")), None)
    for name, (_, help, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help)
        if name == invoked:
            _add_common(sub)
            for flag, kwargs in flags:
                sub.add_argument(flag, **kwargs)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
        cfg = _build_config(args)
        if cfg.out:  # the report and its siblings are written there
            if Path(cfg.out).is_dir():
                raise UsageError(f"--out {cfg.out!r} is a directory")
            Path(cfg.out).parent.mkdir(parents=True, exist_ok=True)
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command][0](cfg, args)
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
