"""In-memory span tracer that wraps the public functions of the amalgam layers.

The program's source is not changed: `Tracer.install` replaces every public
function of the layer modules, in every `amalgam` module that bound it (the
layers import each other with `from .x import y`, so patching only the
defining module would miss most calls).  Each wrapped call records one span,
(name, start, end, parent, pass id), with `time.perf_counter_ns`; spans stay in
memory and are written out once, when the run ends.

A span's self time is its duration minus the part covered by its child spans
and minus the tracer's own bookkeeping for those children, which is booked to
`trace.self_s`.  The root span of a pass is the benchmark's own code; its self
time is the explicit "unattributed" remainder, so the per-layer self times,
`trace.self_s` and `trace.unattributed_s` add up to the traced pass time.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import os
import sys
import time

LAYERS = ("grid", "spectral", "norms", "kernels", "extension",
          "weyl", "crsys", "hardy", "frozen", "cli")

# function span -> metric group; functions not listed roll up into
# "<module>.other", except in the layers measured as a whole
GROUPS = {
    "grid.forward": "grid.fft",
    "grid.inverse": "grid.fft",
    "grid.sample": "grid.sample",
    "grid.bandlimited_random": "grid.sample",
    "norms.amalgam_norm:discrete": "norms.discrete",
    "norms.amalgam_norm:ball": "norms.ball",
    "norms.ball_window_weights": "norms.ball",
    "extension.extend": "extension.extend",
    "extension.radial_maximal": "extension.maximal",
    "extension.nontangential_max": "extension.maximal",
    "extension.hl_maximal": "extension.maximal",
    "extension.area_integral": "extension.area",
    "extension.write_stack": "extension.stack_io",
    "extension.read_stack": "extension.stack_io",
    "weyl.half_derivative_quadrature": "weyl.quadrature",
    "weyl.half_derivative_stack_quadrature": "weyl.quadrature",
    "weyl.half_derivative_spectral": "weyl.spectral",
    "weyl.time_derivative": "weyl.spectral",
    "crsys.harmonic_cr_residual": "crsys.residual",
    "crsys.caloric_cr_residual": "crsys.residual",
    "crsys.sup_vector_amalgam_norm": "crsys.sup",
    "hardy.hardy_norm_maximal": "hardy.quantity",
    "hardy.hardy_quantity_riesz": "hardy.quantity",
    "hardy.hardy_quantity_multiplier": "hardy.quantity",
    "hardy.equivalence_report": "hardy.report",
}
WHOLE_LAYERS = ("spectral", "kernels", "frozen", "cli")

# every group that gets a self-time metric, in report order
SELF_GROUPS = (
    "grid.fft", "grid.sample", "grid.other", "spectral",
    "norms.discrete", "norms.ball", "norms.other", "kernels",
    "extension.extend", "extension.maximal", "extension.area",
    "extension.stack_io", "extension.other",
    "weyl.quadrature", "weyl.spectral",
    "crsys.residual", "crsys.sup", "crsys.other",
    "hardy.quantity", "hardy.report", "hardy.other",
    "frozen", "cli",
)

# exact counters; they must repeat between passes on the same inputs
COUNT_METRICS = (
    "grid.fft.calls", "grid.fft.bytes", "grid.forward.calls", "grid.forward.distinct",
    "spectral.calls", "norms.discrete.calls", "extension.extend.slices",
    "extension.stack_io.bytes", "weyl.quadrature.calls", "weyl.quadrature.evals",
)

ROOT_NAME = "bench.pass"


def group_of(name: str) -> str:
    if name in GROUPS:
        return GROUPS[name]
    layer = name.split(".", 1)[0]
    return layer if layer in WHOLE_LAYERS else f"{layer}.other"


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _size_of_path(args, kwargs, sig) -> int:
    return os.path.getsize(_arguments(sig, args, kwargs)["path"])


class Tracer:
    """Records spans of wrapped calls while a pass is open."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent_index, pass_id, attrs]
        self.spans = []
        self.overhead_ns = []  # bookkeeping booked to each span, per span index
        self._stack = []
        self._pass_id = None
        self.wrapped = []

    # -- passes ---------------------------------------------------------------

    def begin_pass(self, pass_id) -> None:
        self._pass_id = pass_id
        self._stack = [len(self.spans)]
        self.spans.append([ROOT_NAME, time.perf_counter_ns(), None, None, pass_id, None])
        self.overhead_ns.append(0)

    def end_pass(self) -> None:
        root = self._stack[0]
        self.spans[root][2] = time.perf_counter_ns()
        self._stack = []
        self._pass_id = None

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, span_name: str, fn, classify=None, attrs_before=None, attrs_after=None):
        clock = time.perf_counter_ns
        spans, ovh, tracer = self.spans, self.overhead_ns, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._pass_id is None:
                return fn(*args, **kwargs)
            t_in = clock()
            stack = tracer._stack
            parent = stack[-1]
            name = classify(args, kwargs) if classify else span_name
            attrs = attrs_before(args, kwargs) if attrs_before else None
            idx = len(spans)
            spans.append([name, 0, 0, parent, tracer._pass_id, attrs])
            ovh.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = t0, t1
                if attrs_after:
                    extra = attrs_after(args, kwargs)
                    span[5] = extra if span[5] is None else {**span[5], **extra}
                ovh[parent] += (t0 - t_in) + (clock() - t1)

        return wrapper

    def _hooks(self, layer: str, name: str, fn):
        """Span classifier and counter attributes for the counted functions."""
        full = f"{layer}.{name}"
        if full == "grid.forward":
            def before(args, kwargs):
                v = (args[0] if args else kwargs["f"]).values
                return {"digest": hashlib.sha1(v).digest() + repr(v.shape).encode(),
                        "bytes": v.size * 16 * 2}
            return None, before, None
        if full == "grid.inverse":
            def before(args, kwargs):
                return {"bytes": (args[0] if args else kwargs["F"]).coeffs.size * 16 * 2}
            return None, before, None
        sig = inspect.signature(fn)
        if full == "norms.amalgam_norm":
            def classify(args, kwargs):
                return f"{full}:{_arguments(sig, args, kwargs)['window']}"
            return classify, None, None
        if full == "extension.extend":
            def before(args, kwargs):
                return {"slices": _arguments(sig, args, kwargs)["tg"].count}
            return None, before, None
        if full == "weyl.half_derivative_stack_quadrature":
            def before(args, kwargs):
                a = _arguments(sig, args, kwargs)
                times = len(a["t"]) if hasattr(a["t"], "__len__") else 1
                return {"evals": a["stack"].spec.size * times * a["n_quad"]}
            return None, before, None
        if full == "weyl.half_derivative_quadrature":
            def before(args, kwargs):
                return {"evals": _arguments(sig, args, kwargs)["n_quad"]}
            return None, before, None
        if full in ("extension.write_stack", "extension.read_stack"):
            def after(args, kwargs):
                return {"bytes": _size_of_path(args, kwargs, sig)}
            return None, None, after
        return None, None, None

    def install(self) -> None:
        """Wrap the layers' public functions and rebind them everywhere."""
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"amalgam.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                classify, before, after = self._hooks(layer, name, obj)
                replacements[obj] = self._wrap(f"{layer}.{name}", obj, classify, before, after)
                self.wrapped.append(f"{layer}.{name}")
        store_cls = sys.modules["amalgam.frozen"].FrozenStore
        for name, raw in list(vars(store_cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                setattr(store_cls, name,
                        staticmethod(self._wrap(f"frozen.FrozenStore.{name}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(store_cls, name, self._wrap(f"frozen.FrozenStore.{name}", raw))
            else:
                continue
            self.wrapped.append(f"frozen.FrozenStore.{name}")
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "amalgam" or mod_name.startswith("amalgam.")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(mod, name, replacements[obj])

    # -- roll-up --------------------------------------------------------------

    def rollup(self, pass_id) -> dict:
        """Per-layer counts and self times of one pass."""
        idxs = [i for i, s in enumerate(self.spans) if s[4] == pass_id]
        covered = {i: 0 for i in idxs}
        for i in idxs:
            parent = self.spans[i][3]
            if parent is not None:
                covered[parent] += self.spans[i][2] - self.spans[i][1]
        self_ns = {g: 0 for g in SELF_GROUPS}
        calls = {}
        counts = {k: 0 for k in COUNT_METRICS}
        digests = set()
        root_self = wall = bookkeeping = 0
        for i in idxs:
            name, t0, t1, parent, _, attrs = self.spans[i]
            own = (t1 - t0) - covered[i] - self.overhead_ns[i]
            bookkeeping += self.overhead_ns[i]
            if parent is None:
                root_self, wall = own, t1 - t0
                continue
            group = group_of(name)
            self_ns[group] = self_ns.get(group, 0) + own
            calls[group] = calls.get(group, 0) + 1
            attrs = attrs or {}
            if group == "grid.fft":
                counts["grid.fft.calls"] += 1
                counts["grid.fft.bytes"] += attrs["bytes"]
            if name == "grid.forward":
                counts["grid.forward.calls"] += 1
                digests.add(attrs["digest"])
            if group == "extension.extend":
                counts["extension.extend.slices"] += attrs["slices"]
            if group == "extension.stack_io":
                counts["extension.stack_io.bytes"] += attrs["bytes"]
            if group == "weyl.quadrature":
                counts["weyl.quadrature.evals"] += attrs["evals"]
        counts["grid.forward.distinct"] = len(digests)
        counts["spectral.calls"] = calls.get("spectral", 0)
        counts["norms.discrete.calls"] = calls.get("norms.discrete", 0)
        counts["weyl.quadrature.calls"] = calls.get("weyl.quadrature", 0)
        return {
            "wall_ns": wall,
            "self_ns": self_ns,
            "trace_self_ns": bookkeeping,
            "unattributed_ns": root_self,
            "counts": counts,
        }

    def dump(self, path) -> None:
        """Write all spans as gzipped JSON lines (counter digests left out)."""
        with gzip.open(path, "wt") as fh:
            for i, (name, t0, t1, parent, pass_id, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": t0, "end_ns": t1,
                       "parent": parent, "pass": pass_id}
                if attrs:
                    rec.update({k: v for k, v in attrs.items() if k != "digest"})
                fh.write(json.dumps(rec) + "\n")
