#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--seconds S]

Runs each workload once per seed (seeds first-seed .. first-seed+runs-1)
through run.py, then prints, per end-to-end metric, the median and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json. Run from the checkout root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    worst = 0.0
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        attempted = [r["attempted"] for r in results]
        print(f"{workload}: attempted {min(attempted)}..{max(attempted)} "
              f"failed {failed} correct {all(r['correct'] for r in results)}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            share = spread / m["bound"]
            worst = max(worst, share)
            print(f"  {m['name']:16s} median {med:12.6g}  spread {spread:6.3f}"
                  f"  bound {m['bound']:.2f}  ({share:4.2f} of bound)  "
                  + " ".join(f"{v:.4g}" for v in values))
    print(f"largest spread as a share of its bound: {worst:.2f}")


if __name__ == "__main__":
    main()
