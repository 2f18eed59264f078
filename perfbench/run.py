#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a ppnpart checkout. The executable is built with
dune into .bench_build (release profile, dune cache off, so nothing is
written outside the checkout) and then run with the same arguments; its
last line of standard output is the result object. Exits non-zero
without a result when the checkout holds no sources to build from.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no ppnpart sources here; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, TARGET],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
