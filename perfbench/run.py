#!/usr/bin/env python3
"""Builds the tpset end-to-end benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload query-cold --seed 1 --seconds 20 --trace 0

The engine is compiled from ../src with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the current directory; build output goes to
stderr. The last line of stdout is the benchmark's JSON result. Exits
non-zero without a result when the sources are missing, the build fails,
or an output check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "query", "executor.h")):
        print("perfbench: engine sources (src/) not found beside perfbench/",
              file=sys.stderr)
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
