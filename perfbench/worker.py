"""One benchmark process: set up, then run timed passes of one workload.

Started by run.py in a fresh interpreter, with the BLAS/OpenMP thread pools
pinned to one thread.  Set-up time runs from the parent's spawn timestamp
(CLOCK_MONOTONIC is shared by all processes) until `amalgam` and
`amalgam.cli` are imported and the input of the first pass is built.  Then
it runs a cold pass, `--warm` warm passes and, given `--deadline-ns`, more
warm passes while the next one is predicted to end no more than half a pass
after that deadline.

Mode `measure` runs untraced passes; `trace` installs the span tracer first.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--warm", type=int, default=1)
    ap.add_argument("--deadline-ns", type=int, default=0)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    import amalgam  # noqa: F401
    import amalgam.cli  # noqa: F401
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT, Path(args.scratch))
    inp = wl.inputs(0)
    ready = time.monotonic_ns()
    result = {"mode": args.mode, "setup_s": (ready - args.spawn_ns) / 1e9}

    tracer = None
    if args.mode == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    passes, failures = [], []
    attempted = failed = 0
    k = 0
    while True:
        if k > 0:
            inp = wl.inputs(k)
        if tracer:
            tracer.begin_pass(k)
        t0 = time.perf_counter_ns()
        try:
            obs, error = wl.run(k, inp), None
        except Exception:  # a failing pass is counted, not fatal
            obs, error = None, traceback.format_exc()
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.end_pass()
        checks = wl.check(obs) if error is None else [(op, False, error) for op in wl.ops]
        obs = inp = None
        attempted += len(checks)
        for op, ok, detail in checks:
            if not ok:
                failed += 1
                failures.append({"pass": k, "op": op, "detail": str(detail)[-2000:]})
        passes.append({"k": k, "wall_s": (t1 - t0) / 1e9})
        if error is not None:
            break
        k += 1
        if k > args.warm and time.monotonic_ns() + (t1 - t0) // 2 > args.deadline_ns:
            break

    result.update({
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    if tracer:
        result["rollups"] = [tracer.rollup(p["k"]) for p in passes]
        result["wrapped"] = len(tracer.wrapped)
        if hasattr(wl, "diagnostic"):
            result["diagnostic"] = wl.diagnostic()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
