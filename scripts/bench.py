#!/usr/bin/env python3
"""Repeat the fdedim benchmark in this checkout and summarise the runs.

Runs `perfbench/run.py --trace 0` RUNS times per named workload and seed,
one after another, and writes one JSON file with one result per (seed,
workload): the median and the lower and upper quartiles of the five
end-to-end metrics, and how many runs were correct and how many ops
failed.  Example, from the repository root:

    python3 scripts/bench.py --workload ensemble --workload pipeline \\
        --runs 5 --seed 1 --seconds 25 --out BENCH.json

With --baseline DIR (another checkout, such as the parent commit), each
run of this checkout is paired with a run of DIR's `perfbench/run.py`, the
two alternating which runs first.  Each result then also holds the
baseline's summary and, per metric, the ratio change / baseline of every
pair, the number of pairs the change won (ties count for neither), and
worse_than_bound: whether the change's median is worse than the
baseline's by more than the metric's bound times the baseline's median,
and unresolved: whether the baseline's own quartile spread exceeds that
bound times its median, so that its runs cannot tell such a change from
noise, unless every run of the change is better than every baseline run.

The workload names and the end-to-end metrics, with their directions and
bounds, are read from BENCHMARK.json at the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("perfbench") / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# each end-to-end metric: the direction in which it is better, and its bound
METRICS = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The JSON result line of one untraced benchmark run of a checkout."""
    done = subprocess.run(
        [sys.executable, str(checkout / RUNNER), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
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
        out[name] = dict(summarise_values(values),
                         unit=results[0]["metrics"][name]["unit"])
    return out


def summarise_values(values: list) -> dict:
    """Median and lower and upper quartiles of a nonempty list."""
    q1, _, q3 = (statistics.quantiles(values, n=4)
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(change: list, baseline: list) -> dict:
    """Per metric, change / baseline of each pair, the pairs won, whether
    the change's median is worse than the bound allows, and whether the
    baseline's spread leaves the comparison unresolved."""
    out = {}
    for name, (better, bound) in METRICS.items():
        pairs = [(c["metrics"][name]["value"], b["metrics"][name]["value"])
                 for c, b in zip(change, baseline)
                 if name in c["metrics"] and name in b["metrics"]]
        if not pairs:
            continue
        wins = sum(c > b if better == "higher" else c < b for c, b in pairs)
        mine, base = (statistics.median(side) for side in zip(*pairs))
        worse = base - mine if better == "higher" else mine - base
        spread = summarise_values([b for _, b in pairs])
        ahead = (min(c for c, _ in pairs) > max(b for _, b in pairs)
                 if better == "higher" else
                 max(c for c, _ in pairs) < min(b for _, b in pairs))
        out[name] = {"ratios": [c / b for c, b in pairs], "wins": wins,
                     "pairs": len(pairs), "better": better,
                     "worse_than_bound": worse > bound * base,
                     "unresolved": (spread["q3"] - spread["q1"]
                                    > bound * spread["median"])
                     and not ahead}
    return out


def measure(workload: str, seed: int, runs: int, seconds: float,
            baseline: Path | None) -> dict:
    """One result: RUNS runs of this checkout, each paired with a run of
    the baseline checkout when there is one."""
    result = {"seed": seed, "workload": workload}
    if baseline is None:
        result["change"] = summarise([run_once(ROOT, workload, seed, seconds)
                                      for _ in range(runs)])
        return result
    change, base = [], []
    for i in range(runs):
        order = [(base, baseline), (change, ROOT)]
        for results, checkout in (order if i % 2 == 0 else order[::-1]):
            results.append(run_once(checkout, workload, seed, seconds))
    result.update(change=summarise(change), baseline=summarise(base),
                  pairs=compare(change, base))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True,
                    choices=WORKLOADS)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, action="append",
                    help="workload seed, repeatable (default 0)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--baseline", metavar="DIR", type=Path,
                    help="checkout whose perfbench/run.py each run of this "
                         "checkout is paired with")
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args(argv)
    if args.runs < 1 or not args.seconds > 0:
        ap.error("need --runs >= 1 and --seconds > 0")
    baseline = args.baseline.resolve() if args.baseline else None
    if baseline is not None and not (baseline / RUNNER).is_file():
        ap.error(f"--baseline {args.baseline} has no {RUNNER}")
    report = {"seconds": args.seconds, "runs": args.runs,
              "results": [measure(w, seed, args.runs, args.seconds, baseline)
                          for seed in args.seed or [0]
                          for w in args.workload]}
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
