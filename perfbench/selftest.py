#!/usr/bin/env python3
"""The benchmark's own test: its answer check must catch a wrong member.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs a short clean run of every workload, which must pass its checks,
and the same runs with one member corrupted on purpose (--corrupt), which
must exit non-zero with a failed check. Exits non-zero if either
expectation is not met.
"""

import json
import subprocess
import sys

WORKLOADS = ["andersen-wide", "doctors-mixed", "tc-sparse-batch"]


def run(workload, *extra):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(cmd, capture_output=True, text=True)


def main():
    ok = True
    for workload in WORKLOADS:
        clean = run(workload)
        result = json.loads(clean.stdout.strip().splitlines()[-1])
        if clean.returncode != 0 or not result["correct"]:
            print(f"FAIL {workload}: clean run did not pass its checks\n{clean.stdout}")
            ok = False
        corrupt = run(workload, "--corrupt")
        if corrupt.returncode == 0 or "check: FAILED" not in corrupt.stdout:
            print(f"FAIL {workload}: corrupted member was not caught\n{corrupt.stdout}")
            ok = False
        else:
            print(f"ok   {workload}: clean run passes, corrupted member exits {corrupt.returncode}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
