#!/usr/bin/env python3
"""Self-test of the fdedim benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload briefly through run.py, untraced and traced, and
   checks that the last line has exactly the keys correct, attempted,
   failed and metrics, that every metric BENCHMARK.json names is printed
   with its unit, and that no op failed.
2. Feeds each workload's gate a correct output and deliberately wrong ones
   (a net with one center removed, a perturbed box count, a changed report
   byte, a history that outgrows its dichotomy envelope) and checks that
   only the correct one passes.
3. Runs run.py in a directory holding only BENCHMARK.json and perfbench/
   and checks that it exits with an error and prints no result.
Exits 0 when every check holds.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "out")
# long enough for TAIL_BEYOND ops beyond every workload's tail percentile
SECONDS = 8
failures = []


def expect(ok, what):
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1",
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_printed_metrics(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, listed in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            done = run(workload, trace)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{workload} trace={trace}: no JSON result "
                              f"(exit {done.returncode}) {done.stderr[-500:]}")
                continue
            tag = f"{workload} trace={trace}"
            expect(done.returncode == 0, f"{tag}: exit code 0")
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], f"{tag}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{tag}: correct, {result['failed']} of "
                   f"{result['attempted']} failed")
            metrics = result["metrics"]
            expect(sorted(metrics) == sorted(m["name"] for m in listed),
                   f"{tag}: exactly the {len(listed)} listed metrics")
            expect(all(m["name"] in metrics
                       and metrics[m["name"]]["unit"] == m["unit"]
                       and isinstance(metrics[m["name"]]["value"],
                                      (int, float))
                       for m in listed), f"{tag}: every value with its unit")
            text = "\n".join(lines[:-1])
            expect(all(m["name"] in text for m in listed),
                   f"{tag}: every metric printed by name")


def check_gates():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np
    from workloads import Boxcount, Covering, Ensemble, Pipeline

    work = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
    try:
        wl = Covering(0, work)
        inp = next(inp for inp in map(wl.make_input, range(wl.BLOCK))
                   if inp[0].dim >= 2)
        net, report = wl.op(inp)
        expect(wl.check(inp, (net, report)), "covering: a greedy net passes")
        thinned = net[:-1]
        expect(not wl.check(inp, (thinned, wl.certify(inp, thinned))),
               "covering: a net with one center removed fails")

        wl = Boxcount(0, work)
        for i in range(2):
            inp = wl.make_input(i)
            diam, result = wl.op(inp)
            expect(wl.check(inp, (diam, result)),
                   f"boxcount: the {inp[0]} estimate passes")
            bad = dict(result, counts=list(result["counts"]))
            bad["counts"][-1] = bad["counts"][-2] - 1
            expect(not wl.check(inp, (diam, bad)),
                   f"boxcount: a {inp[0]} count that shrinks as eps "
                   f"shrinks fails")
            expect(not wl.check(inp, (diam, dict(
                result, estimate=result["estimate"] + 0.2))),
                   f"boxcount: a {inp[0]} estimate 0.2 off fails")

        wl = Pipeline(0, work)
        expect(wl.check(0, wl.op(0)), "pipeline: op 0 passes")
        expect(wl.check(0, wl.op(0)), "pipeline: a rerun of op 0 passes")
        expect(not wl.check(0, 2), "pipeline: a nonzero exit code fails")
        code = wl.op(0)
        with open(wl.report_path, "rb") as f:
            data = bytearray(f.read())
        data[len(data) // 2] ^= 1
        with open(wl.report_path, "wb") as f:
            f.write(data)
        expect(not wl.check(0, code),
               "pipeline: a rerun of op 0 with one report byte changed fails")

        wl = Ensemble(0, work)
        inp = wl.make_input(1)
        times, norms = wl.op(inp)
        expect(inp[0] == "dichotomy" and wl.check(inp, (times, norms)),
               "ensemble: a held-out dichotomy history passes")
        expect(wl.check(inp, (times, norms * 10.0))
               and wl.totals["dichotomy"][0] == 1,
               "ensemble: a history 10x over its envelope is counted")
        expect(not wl.check(inp, (times, norms * np.nan)),
               "ensemble: a non-finite history fails")
        inp = wl.make_input(3)
        out = wl.op(inp)
        expect(inp[0] == "rfde_pair" and wl.check(inp, out),
               "ensemble: an RFDE pair passes")
        expect(not wl.check(inp, dict(out, passed=False)),
               "ensemble: a violating RFDE pair fails")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory():
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run("covering", 0, cwd=bare,
                   script=os.path.join(bare, "perfbench", "run.py"))
        expect(done.returncode != 0 and '"correct"' not in done.stdout,
               f"bare directory: exit {done.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(OUT, exist_ok=True)
    check_gates()
    check_bare_directory()
    check_printed_metrics(spec)
    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
