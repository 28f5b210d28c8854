#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload in a fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build output goes to stderr; the benchmark's own output, whose last
line is the JSON result, goes to stdout. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    # The shared dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
