#!/usr/bin/env python3
"""Self-test of the benchmark in a shrunk mode.

    python3 perfbench/test_repeat.py

Runs every workload twice end to end and twice traced, each with a fixed
op count (--ops 1: one round, two in the traced run), through run.py
from the checkout root, and asserts:
  - the host line and every metric named in BENCHMARK.json are present,
    each with its unit;
  - no op failed;
  - the exact counts repeat exactly between the two runs.
Exits non-zero on the first failed assertion.
"""

import json
import subprocess
import sys

SEED = 7
# The daemon's reader thread shares the client's domain, so a word of
# its allocation can land in the replay's window now and then.
TOLERANCE = {("daemon-dse-10k", "gc.minor_mwords_per_op"): 1e-5}
EXACT = {
    "0": ["cut_ratio"],
    "1": ["quality.violation_mean", "gp.cycles", "refine.fm_moves",
          "stream.passes", "gc.minor_mwords_per_op"],
}


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", trace,
         "--ops", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    assert "host" in json.loads(lines[-2]), "no host line"
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    tables = {"0": bench["end_to_end"], "1": bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        for trace, table in tables.items():
            a, b = run(w, trace), run(w, trace)
            for r in (a, b):
                assert r["failed"] == 0 and r["correct"], (w, r)
                for m in table:
                    got = r["metrics"].get(m["name"])
                    assert got is not None, (w, m["name"], "missing")
                    assert got["unit"] == m["unit"], (w, m["name"])
            for name in EXACT[trace]:
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                tol = TOLERANCE.get((w, name), 0.0)
                assert abs(va - vb) <= tol * abs(va), (w, name, va, vb)
            print(f"ok {w} trace={trace}: "
                  + ", ".join(f"{n}={a['metrics'][n]['value']}"
                              for n in EXACT[trace]))
    print("all workloads repeat exactly")


if __name__ == "__main__":
    main()
