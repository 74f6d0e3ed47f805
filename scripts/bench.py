#!/usr/bin/env python3
"""Repeat the fdedim benchmark in this checkout and summarise the runs.

Runs `perfbench/run.py --trace 0` RUNS times per named workload, one after
another, and writes one JSON file: per workload, the median and the lower
and upper quartiles of the five end-to-end metrics, and how many runs were
correct and how many ops failed.  Example, from the repository root:

    python3 scripts/bench.py --workload ensemble --workload pipeline \\
        --runs 5 --seed 1 --seconds 25 --out BENCH.json
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "perfbench" / "run.py"
METRICS = ("setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced benchmark run."""
    done = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarise(results: list) -> dict:
    out = {"runs": len(results),
           "correct": sum(r["correct"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "attempted": sum(r["attempted"] for r in results)}
    for name in METRICS:
        values = [r["metrics"][name]["value"] for r in results
                  if name in r["metrics"]]
        if not values:
            continue
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else values * 3)
        out[name] = {"median": statistics.median(values), "q1": q1,
                     "q3": q3, "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True,
                    choices=["pipeline", "ensemble", "covering", "boxcount"])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)
    if args.runs < 1 or not args.seconds > 0:
        ap.error("need --runs >= 1 and --seconds > 0")
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in args.workload:
        results = [run_once(workload, args.seed, args.seconds)
                   for _ in range(args.runs)]
        report["workloads"][workload] = summarise(results)
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
