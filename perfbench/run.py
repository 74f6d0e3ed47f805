#!/usr/bin/env python3
"""fdedim benchmark: closed-loop workloads with end-to-end and traced runs.

Run from the repository root:

    python3 perfbench/run.py --workload covering --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 1

Workloads (see perfbench/workloads.py): pipeline, ensemble, covering and
boxcount; `all` runs each of them in its own process, one after another.
One workload run is one process with one client thread, and BLAS is pinned
to one thread.  Every op's output passes a correctness gate.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the loop for half
the time untraced and then for half the time traced over the same op inputs,
and prints per-layer metrics and the tracing overhead; spans are written to
perfbench/out/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  fdedim is imported from
the checkout's src/ directory, as the tier-1 test command does.
"""
import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("pipeline", "ensemble", "covering", "boxcount")

# setup_s is the median of this many set-ups, each a fresh-process import of
# fdedim plus the per-run preparation and one untimed warm-up op
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import fdedim.cli; "
                "print(repr(time.perf_counter() - t))")
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MiB"))
# op_tail_s is the workload's tail_pct percentile, which has at least this
# many ops beyond it in a full-length run
TAIL_BEYOND = 10
MAX_REPORTED_ERRORS = 3


def time_import() -> float:
    """Seconds to import fdedim (numpy and scipy included) in a fresh
    interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


class Loop:
    """Outcome of one closed loop: per-op latencies and gate failures."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.errors = 0

    def gate(self, wl, inp, out) -> bool:
        try:
            ok = wl.check(inp, out)
        except Exception:
            self.report_error("gate")
            return False
        if not ok and self.errors < MAX_REPORTED_ERRORS:
            self.errors += 1
            print(f"gate: {wl.name} op output failed its check",
                  file=sys.stderr)
        return ok

    def report_error(self, where):
        if self.errors < MAX_REPORTED_ERRORS:
            self.errors += 1
            print(f"{where} raised:", file=sys.stderr)
            traceback.print_exc()

    def run_op(self, wl, op, i) -> bool:
        inp = wl.make_input(i)
        t0 = perf_counter()
        try:
            out = op(inp)
        except Exception:
            self.latencies.append(perf_counter() - t0)
            self.report_error("op")
            return False
        self.latencies.append(perf_counter() - t0)
        return self.gate(wl, inp, out)

    def run(self, wl, op, seconds):
        """Ops 0, 1, 2, ... until `seconds` have passed (at least one)."""
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            self.failed += not self.run_op(wl, op, i)
            i += 1
        return self


def prepare(cls, seed, workdir):
    """Per-run preparation plus one untimed warm-up op (op 0's inputs)."""
    wl = cls(seed, workdir)
    return wl, Loop().run_op(wl, wl.op, 0)


def setup(cls, seed, workdir):
    samples, ok = [], True
    for _ in range(SETUP_REPEATS):
        imported = time_import()
        t0 = perf_counter()
        wl, warm_ok = prepare(cls, seed, workdir)
        samples.append(imported + perf_counter() - t0)
        ok = ok and warm_ok
    return wl, statistics.median(samples), ok


def tail(latencies, pct):
    """The pct-th percentile latency (nearest rank), or, when fewer than
    TAIL_BEYOND ops lie beyond it, the highest percentile that has that
    many.  Returns (latency, percentile, ops beyond), or None when the run
    holds too few ops for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    wanted = max(1, math.ceil(pct / 100.0 * n))
    k = min(wanted, n - TAIL_BEYOND)
    if k < 1:
        return None
    return ordered[k - 1], (pct if k == wanted else 100.0 * k / n), n - k


def environment(seed) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu or "unknown", "blas_threads": int(BLAS_THREADS),
            "seed": seed}


def print_metrics(metrics: dict, units: dict):
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")


def result_line(correct, attempted, failed, metrics, units) -> str:
    return json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}})


def summary_ok(wl) -> bool:
    ok = True
    for line, line_ok in wl.summary():
        print(f"{wl.name}: {line}")
        ok = ok and line_ok
    return ok


def run_plain(cls, seed, seconds, workdir):
    wl, setup_s, warm_ok = setup(cls, seed, workdir)
    loop = Loop().run(wl, wl.op, seconds)
    whole = len(loop.latencies) // cls.cycle * cls.cycle
    lat = loop.latencies[:whole or None]
    metrics = {"setup_s": setup_s, "ops_per_s": len(lat) / sum(lat),
               "op_p50_s": statistics.median(lat)}
    tail_at = tail(lat, cls.tail_pct)
    if tail_at is not None:
        metrics["op_tail_s"] = tail_at[0]
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    units = dict(END_TO_END)
    attempted = len(loop.latencies)
    print(f"{wl.name}: {attempted} ops, closed loop, 1 client; figures "
          f"over the first {len(lat)} ({sum(lat):.3f} s of op time), "
          + (f"{whole // cls.cycle} whole cycles of {cls.cycle}" if whole
             else f"less than one cycle of {cls.cycle}"))
    print_metrics(metrics, units)
    print(f"  {'failed_frac':<40} {loop.failed / attempted:>16.6g} "
          f"({loop.failed} of {attempted})")
    if tail_at is None:
        print(f"  op_tail_s omitted: {len(lat)} ops leave none with "
              f"{TAIL_BEYOND} beyond it")
    else:
        _, pct, beyond = tail_at
        print(f"  op_tail_s is p{pct:.4g}: {beyond} of {len(lat)} ops beyond "
              f"it" + ("" if pct == cls.tail_pct else
                       f"; p{cls.tail_pct:g} has fewer than {TAIL_BEYOND}"))
    correct = warm_ok and loop.failed == 0 and summary_ok(wl)
    return correct, attempted, loop.failed, metrics, units


def run_traced(cls, seed, seconds, workdir):
    from tracer import PER_LAYER, Tracer, layer_metrics
    tracer = Tracer()
    tracer.install()
    try:
        wl, warm_ok = tracer.span("setup", prepare)(cls, seed, workdir)
    finally:
        tracer.uninstall()
    tracer.work.clear()    # the work counts cover the traced ops only
    plain = Loop().run(wl, wl.op, seconds / 2.0)
    tracer.install()
    try:
        traced = Loop().run(wl, tracer.span("op", wl.op), seconds / 2.0)
    finally:
        tracer.uninstall()
    n = min(len(plain.latencies), len(traced.latencies))
    metrics = layer_metrics(tracer, len(traced.latencies))
    metrics["trace.overhead"] = 100.0 * (
        sum(traced.latencies[:n]) / sum(plain.latencies[:n]) - 1.0)
    metrics["trace.ops"] = len(traced.latencies)
    metrics["trace.spans"] = len(tracer.spans)
    units = dict(PER_LAYER)
    metrics = {name: metrics[name] for name, _ in PER_LAYER}
    print(f"{wl.name}: traced {len(traced.latencies)} ops after "
          f"{len(plain.latencies)} untraced; overhead over the first {n} "
          f"ops {metrics['trace.overhead']:+.2f} %")
    print_metrics(metrics, units)
    shares = {k.split(".")[1]: v for k, v in metrics.items()
              if k.startswith("layer.") and k.endswith(".share")}
    top = max(shares, key=shares.get)
    print(f"{wl.name}: largest layer by self time: {top} "
          f"({shares[top]:.1f} % of op time)")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{wl.name}-seed{seed}.json")
    tracer.dump(path, {"workload": wl.name, "seed": seed,
                       "untraced_ops": len(plain.latencies),
                       "traced_ops": len(traced.latencies)})
    print(f"{wl.name}: spans written to {os.path.relpath(path, ROOT)}")
    failed = plain.failed + traced.failed
    correct = warm_ok and failed == 0 and summary_ok(wl)
    attempted = len(plain.latencies) + len(traced.latencies)
    return correct, attempted, failed, metrics, units


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "fdedim", "__init__.py")):
        print(f"error: fdedim sources not found under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        run = run_traced if args.trace else run_plain
        correct, attempted, failed, metrics, units = run(
            cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each run's report and then
    one JSON line whose metrics are named <workload>.<metric>."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            metrics[f"{name}.{k}"] = v["value"]
            units[f"{name}.{k}"] = v["unit"]
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="fdedim closed-loop benchmark")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
