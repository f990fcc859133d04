"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every workload runs in fresh
single-process interpreters (worker.py), one after another, in a closed loop:
the next pass starts when the previous one has finished and been checked.

Each process sets up, runs a cold pass and a warm pass, and exits; the last
process of a run instead spends what is left of the --seconds budget on warm
passes.  --trace 0 prints the end-to-end metrics: setup_s, cold_pass_s
and pass_s (medians over the processes and warm passes) and peak_rss_mib.  --trace 1 runs one untraced and one traced
process and prints the per-layer metrics of the traced process.  The last line of
standard output is the result object; full records, spans included, go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

WORKLOADS = ("freeze-d1", "caloric-quad-d1", "field-d2")
# Host speed on a shared 2-vCPU machine drifts by +-20% over tens of seconds,
# so cold passes from several processes spread over the run give a steadier
# median than one or two.
MIN_PROCESSES = 2
HARD_LIMIT_S = 170.0  # every process is stopped before the run's 180 s limit
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"setup_s": "s", "cold_pass_s": "s", "pass_s": "s", "peak_rss_mib": "MiB"}


class WorkerError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic_ns()
        self.budget_end = self.start + int(seconds * 1e9)
        self.hard_end = self.start + int(HARD_LIMIT_S * 1e9)
        self.env = dict(os.environ, **PINNED)
        self.count = 0

    def spawn(self, mode: str, warm: int = 1, deadline_ns: int = 0,
              spans: Path | None = None) -> dict:
        self.count += 1
        scratch = OUT / "tmp" / f"{self.workload}-{os.getpid()}-{self.count}"
        scratch.mkdir(parents=True, exist_ok=True)
        spawn_ns = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--spawn-ns", str(spawn_ns),
               "--warm", str(warm), "--deadline-ns", str(deadline_ns), "--scratch", str(scratch)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = max((self.hard_end - spawn_ns) / 1e9, 1.0)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{mode} process exceeded the run's time limit") from exc
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise WorkerError(f"{mode} process exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def remaining_ns(self) -> int:
        return self.budget_end - time.monotonic_ns()


def high_percentile(samples):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p, statistics.quantiles(samples, n=1000, method="inclusive")[int(p * 10) - 1]
    return None, None


def measure(r: Runner) -> dict:
    workers, last_ns = [], 0
    while len(workers) < MIN_PROCESSES or r.remaining_ns() >= last_ns // 2:
        # when no whole process fits after this one, this one is the last and
        # spends the rest of the budget on warm passes (at least half a pass
        # may overrun), so a run lasts about --seconds on any host speed
        final = len(workers) >= MIN_PROCESSES - 1 and r.remaining_ns() < 2 * last_ns
        t0 = time.monotonic_ns()
        workers.append(r.spawn("measure", warm=1 if len(workers) < MIN_PROCESSES else 0,
                               deadline_ns=r.budget_end if final else 0))
        last_ns = time.monotonic_ns() - t0
        if final:
            break
    cold = [w["passes"][0]["wall_s"] for w in workers]
    warm = [p["wall_s"] for w in workers for p in w["passes"][1:]]
    if not warm:
        raise WorkerError("no warm pass completed: " + json.dumps([w["failures"] for w in workers]))
    setups = [w["setup_s"] for w in workers]
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_pass_s": statistics.median(cold),
        "pass_s": statistics.median(warm),
        "peak_rss_mib": max(w["maxrss_mib"] for w in workers),
    }
    p, value = high_percentile(warm)
    notes = [f"setup_s: median of {len(setups)} fresh processes",
             f"cold_pass_s: median of {len(cold)} fresh processes",
             f"pass_s: median of {len(warm)} warm passes"
             + (f"; p{p:g} = {value:.4f} s" if p is not None
                else f"; high percentile omitted (needs >= 20 warm passes for p50, has {len(warm)})")]
    return {"metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()},
            "workers": workers, "notes": notes}


def trace(r: Runner, spans: Path) -> dict:
    untraced = r.spawn("measure")
    traced = r.spawn("trace", spans=spans)
    if len(untraced["passes"]) < 2 or len(traced["passes"]) < 2:
        raise WorkerError("no warm pass completed: "
                          + json.dumps(untraced["failures"] + traced["failures"]))
    plain = untraced["passes"][1]["wall_s"]
    rep = traced["rollups"][1]
    c = rep["counts"]
    m = {
        "grid.fft.calls": (c["grid.fft.calls"], "count"),
        "grid.fft.bytes": (c["grid.fft.bytes"], "B"),
        "grid.forward.distinct_ratio": (
            c["grid.forward.distinct"] / c["grid.forward.calls"] if c["grid.forward.calls"] else 0.0,
            "ratio"),
        "spectral.calls": (c["spectral.calls"], "count"),
        "norms.discrete.calls": (c["norms.discrete.calls"], "count"),
        "extension.extend.slices": (c["extension.extend.slices"], "count"),
        "extension.stack_io.bytes": (c["extension.stack_io.bytes"], "B"),
        "weyl.quadrature.calls": (c["weyl.quadrature.calls"], "count"),
        "weyl.quadrature.evals": (c["weyl.quadrature.evals"], "count"),
    }
    for group, ns in rep["self_ns"].items():
        m[f"{group}.self_s"] = (ns / 1e9, "s")
    pass_s = rep["wall_ns"] / 1e9
    m["trace.self_s"] = (rep["trace_self_ns"] / 1e9, "s")
    m["trace.unattributed_s"] = (rep["unattributed_ns"] / 1e9, "s")
    m["trace.pass_s"] = (pass_s, "s")
    m["trace.overhead_s"] = (pass_s - plain, "s")

    attributed = sum(rep["self_ns"].values()) + rep["trace_self_ns"] + rep["unattributed_ns"]
    counts_repeat = all(x["counts"] == traced["rollups"][0]["counts"] for x in traced["rollups"])
    notes = [f"per-layer figures from the traced warm pass ({traced['wrapped']} functions wrapped)",
             f"self times + trace.self_s + trace.unattributed_s = {attributed / 1e9:.6f} s"
             f" = trace.pass_s {pass_s:.6f} s",
             "grid.fft.bytes is computed as calls x n^d x 16 B x 2",
             f"counts repeat exactly over {len(traced['rollups'])} traced passes: {counts_repeat}"]
    if "diagnostic" in traced:
        diag = traced["diagnostic"]
        notes.append(f"diagnostic weyl.quadrature.res_max = {diag['weyl.quadrature.res_max']:.4g}"
                     f" for {diag['function']} (not gated)")
    checks_ok = counts_repeat and attributed == rep["wall_ns"]
    return {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
            "workers": [untraced, traced], "notes": notes, "checks_ok": checks_ok}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "amalgam" / "__init__.py").is_file():
        print(f"error: no amalgam source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    r = Runner(args.workload, args.seed, args.seconds)
    try:
        res = trace(r, OUT / f"spans-{tag}.jsonl.gz") if args.trace else measure(r)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    workers = res["workers"]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    correct = failed == 0 and res.get("checks_ok", True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": workers[0]["env"],
        "pass_counts": {"processes": len(workers),
                        "cold": len(workers),
                        "warm": sum(len(w["passes"]) - 1 for w in workers)},
        "wall_s": (time.monotonic_ns() - r.start) / 1e9,
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": [f for w in workers for f in w["failures"]],
        "notes": res["notes"], "metrics": res["metrics"], "workers": workers,
    }
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1, allow_nan=False)

    for name, m in res["metrics"].items():
        print(f"{args.workload}  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for note in res["notes"]:
        print(f"{args.workload}  {note}")
    print(f"{args.workload}  fail_frac {failed}/{attempted} = {record['fail_frac']:.4g}")
    for f in record["failures"]:
        print(f"{args.workload}  FAILED pass {f['pass']} {f['op']}: {f['detail']}")
    env_line = {k: record[k] for k in ("env", "seed", "pass_counts", "wall_s")}
    print("env " + json.dumps(env_line, allow_nan=False))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": res["metrics"]}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
