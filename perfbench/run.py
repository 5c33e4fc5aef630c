#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Start it from the repository root.  The build goes through dune into
_build/; the run's JSON result is the last line of standard output, and
everything else goes to standard error.  Workloads and metrics are
described in perfbench/NOTES.md.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# A run must end within 180 s; the child is killed (and reaped) before.
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile("dune-project"):
        print("run.py: no dune-project here; start from the repository root",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
