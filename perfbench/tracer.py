"""Spans and work counts recorded around calls into fdedim's layers.

The tracer lives entirely in the benchmark: `install()` replaces each
traced public function at every place it is bound inside the fdedim
package (a module attribute, or a name another module imported from it)
with a wrapper, and `uninstall()` puts the originals back.  A span is
(name, start, end, parent); spans stay in memory and are written out when
the run ends.  `core` and `errors` hold data types and helpers that the
other layers call, so their time counts in the caller's span.

Work counts marked "computed" are derived from the call's arguments or
result, not timed, so they repeat exactly for the same inputs.  Byte
counts are computed from array sizes and ignore caches.
"""
from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "charroots", "spectral", "bounds", "sim", "boxdim",
          "covering")
BENCH = "bench"   # the benchmark's own code inside an op or setup span
F8 = 8            # bytes per float64 / int64


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rk4_steps(T_pos, dt_pos):
    def work(w, args, kwargs, result):
        T = _arg(args, kwargs, T_pos, "T")
        dt = _arg(args, kwargs, dt_pos, "dt")
        w["sim.rk4_steps"] += round(T / dt)
    return work


def _squeeze_samples(w, args, kwargs, result):
    w["sim.check_squeeze.samples"] += result["num_samples"]


def _covering_work(w, args, kwargs, result):
    # build_net adopts one center per distance pass over the probe cloud
    # (the origin included) and verify_covering makes one pass per center
    # over a cloud of the same size, so each net costs 2 * centers * probes
    # distance evaluations.  Each evaluation reads an m-vector probe, writes
    # and rereads its difference to the center, and reads and writes the
    # running minimum: 8 * (3m + 2) bytes.
    m = _arg(args, kwargs, 1, "norm").dim
    centers, probes = result["num_centers"], result["num_probes"]
    evals = 2 * centers * probes
    w["covering.centers"] += centers
    w["covering.probes"] += probes
    w["covering.distance_evals"] += evals
    w["covering.bytes_computed"] += evals * F8 * (3 * m + 2)


def _box_count_work(w, args, kwargs, result):
    # one level reads the (n, D) points, writes and rereads the scaled
    # copy, writes the integer cells and sorts them (one read, one write)
    n, D = _arg(args, kwargs, 0, "points").shape
    w["boxdim.box_count.point_levels"] += n
    w["boxdim.box_count.bytes_computed"] += 6 * n * D * F8


# (layer, function, work hook); None as the hook still records a span.
SPANNED = (
    ("cli", "main", None),
    ("charroots", "ordered_spectrum", None),
    ("spectral", "build_decomposition", None),
    ("spectral", "fit_dichotomy_K", None),
    ("spectral", "project", None),
    ("bounds", "optimize_bound", None),
    ("bounds", "bound_grid_csv", None),
    ("sim", "simulate_rde", _rk4_steps(2, 3)),
    ("sim", "simulate_rfde", _rk4_steps(3, 4)),
    ("sim", "linear_semigroup", None),
    ("sim", "check_squeeze", _squeeze_samples),
    ("sim", "check_absorbing", None),
    ("boxdim", "sample_attractor", None),
    ("boxdim", "diameter", None),
    ("boxdim", "box_counting_dim", None),
    ("boxdim", "box_count", _box_count_work),
    ("covering", "build_net", None),
    ("covering", "verify_covering", _covering_work),
    ("covering", "covering_bound", None),
)
SPAN_NAMES = {f"{layer}.{fname}" for layer, fname, _ in SPANNED}
# Called 8,672 times per pipeline op from inside the bound scans: counted
# without a span, so its time stays in the calling span.
COUNTED = (("bounds", "rde_constants"),)


class Tracer:
    """Spans and work counts of one run; see the module docstring."""

    def __init__(self):
        self.spans = []         # [name, start, end, parent index]
        self.stack = []
        self.work = Counter()
        self._patches = []

    # -- recording ---------------------------------------------------------
    def span(self, name, fn, work=None):
        spans, stack, counts = self.spans, self.stack, self.work

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if work is not None:
                work(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.work

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "fdedim"
                                         or n.startswith("fdedim."))]
        wrappers = {}
        for layer, fname, work in SPANNED:
            fn = getattr(importlib.import_module("fdedim." + layer), fname)
            wrappers[id(fn)] = (fn, self.span(f"{layer}.{fname}", fn, work))
        for layer, fname in COUNTED:
            fn = getattr(importlib.import_module("fdedim." + layer), fname)
            wrappers[id(fn)] = (fn, self.counter(f"{layer}.{fname}.calls",
                                                 fn))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        while self._patches:
            mod, attr, val = self._patches.pop()
            setattr(mod, attr, val)

    # -- reduction ---------------------------------------------------------
    def profile(self, roots: str):
        """Per-function calls, busy and self time, and per-layer self time,
        summed over the spans under root spans named `roots`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        under = [False] * len(spans)
        calls, busy, self_t = Counter(), Counter(), Counter()
        layer_self = Counter()
        for k, (name, start, end, parent) in enumerate(spans):
            under[k] = name == roots if parent < 0 else under[parent]
            if not under[k]:
                continue
            dur, own = end - start, end - start - child[k]
            calls[name] += 1
            busy[name] += dur
            self_t[name] += own
            layer_self[name.split(".")[0] if parent >= 0 else BENCH] += own
        return calls, busy, self_t, layer_self

    def dump(self, path: str, meta: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump({"meta": meta, "names": names,
                       "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[index[n], s, e, p]
                                 for n, s, e, p in self.spans],
                       "work": dict(self.work)}, f)
            f.write("\n")


# Per-layer metrics printed by a traced run: (name, unit).  "/op" values
# are per op of the traced phase; "setup." values cover one preparation.
PER_LAYER = [
    ("sim.simulate_rde.calls", "count/op"),
    ("sim.simulate_rde.busy_s", "s/op"),
    ("sim.simulate_rfde.calls", "count/op"),
    ("sim.simulate_rfde.busy_s", "s/op"),
    ("sim.linear_semigroup.busy_s", "s/op"),
    ("sim.rk4_steps", "count/op"),
    ("sim.rk4_steps_per_s", "1/s"),
    ("sim.check_squeeze.busy_s", "s/op"),
    ("sim.check_squeeze.samples", "count/op"),
    ("sim.check_absorbing.busy_s", "s/op"),
    ("spectral.project.calls", "count/op"),
    ("spectral.project.busy_s", "s/op"),
    ("spectral.fit_dichotomy_K.busy_s", "s/op"),
    ("spectral.fit_dichotomy_K.self_s", "s/op"),
    ("spectral.build_decomposition.busy_s", "s/op"),
    ("bounds.optimize_bound.busy_s", "s/op"),
    ("bounds.bound_grid_csv.busy_s", "s/op"),
    ("bounds.rde_constants.calls", "count/op"),
    ("covering.build_net.busy_s", "s/op"),
    ("covering.verify_covering.busy_s", "s/op"),
    ("covering.centers", "count/op"),
    ("covering.probes", "count/op"),
    ("covering.distance_evals", "count/op"),
    ("covering.distance_evals_per_s", "1/s"),
    ("covering.bytes_computed", "B/op"),
    ("boxdim.box_count.calls", "count/op"),
    ("boxdim.box_count.busy_s", "s/op"),
    ("boxdim.box_count.point_levels", "count/op"),
    ("boxdim.box_count.points_per_s", "1/s"),
    ("boxdim.box_count.bytes_computed", "B/op"),
    ("boxdim.box_counting_dim.busy_s", "s/op"),
    ("boxdim.diameter.busy_s", "s/op"),
    ("boxdim.sample_attractor.self_s", "s/op"),
    ("charroots.ordered_spectrum.calls", "count/op"),
    ("charroots.ordered_spectrum.busy_s", "s/op"),
    ("cli.main.busy_s", "s/op"),
    ("cli.main.self_s", "s/op"),
] + [(f"layer.{layer}.self_s", "s/op") for layer in LAYERS + (BENCH,)] \
  + [(f"layer.{layer}.share", "%") for layer in LAYERS + (BENCH,)] \
  + [(f"setup.layer.{layer}.self_s", "s") for layer in LAYERS + (BENCH,)] \
  + [("setup.spectral.fit_dichotomy_K.busy_s", "s"),
     ("trace.overhead", "%"),
     ("trace.ops", "count"),
     ("trace.spans", "count")]


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Every PER_LAYER value except the trace.* entries."""
    calls, busy, self_t, layer_self = tracer.profile("op")
    _, s_busy, _, s_layer = tracer.profile("setup")
    spans = {"calls": calls, "busy_s": busy, "self_s": self_t}
    w = tracer.work
    per_op = lambda x: x / ops
    rate = lambda count, secs: count / secs if secs > 0 else 0.0
    total = busy["op"]
    out = {}
    for name, unit in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if fn in SPAN_NAMES and stat in spans:
            out[name] = per_op(spans[stat][fn])
        elif unit in ("count/op", "B/op"):    # counted or computed work
            out[name] = per_op(w[name])
    out["sim.rk4_steps_per_s"] = rate(
        w["sim.rk4_steps"],
        busy["sim.simulate_rde"] + busy["sim.simulate_rfde"])
    out["covering.distance_evals_per_s"] = rate(
        w["covering.distance_evals"],
        busy["covering.build_net"] + busy["covering.verify_covering"])
    out["boxdim.box_count.points_per_s"] = rate(
        w["boxdim.box_count.point_levels"], busy["boxdim.box_count"])
    for layer in LAYERS + (BENCH,):
        out[f"layer.{layer}.self_s"] = per_op(layer_self[layer])
        out[f"layer.{layer}.share"] = (100.0 * layer_self[layer] / total
                                       if total > 0 else 0.0)
        out[f"setup.layer.{layer}.self_s"] = s_layer[layer]
    out["setup.spectral.fit_dichotomy_K.busy_s"] = \
        s_busy["spectral.fit_dichotomy_K"]
    return out
