#!/usr/bin/env python3
"""Builds the mfgcp benchmark program from source and runs one workload.

Usage (from the root of an mfgcp checkout):

    python3 perfbench/run.py --workload replan_drift --seed 1 --seconds 10 --trace 0

The program is built in Release mode under $CARGO_TARGET_DIR (default
.bench_build) the first time and rebuilt incrementally afterwards. Build
output goes to stderr; the program's standard output is passed through, so
its last line is the JSON result. README.md beside this file describes
the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("replan_drift", "request_sweep", "serve_paced")
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def cached_build_type(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    try:
        with open(cache, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        return None
    return None


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            fail("configure failed (is this an mfgcp source checkout?)")
    # Numbers from an unoptimized tree are not comparable: refuse them.
    build_type = cached_build_type(build_dir)
    if build_type != "Release":
        fail(f"build tree {build_dir} is configured as "
             f"'{build_type}', not Release; delete it and rerun")
    if not run_quiet(["cmake", "--build", build_dir, "--target",
                      "perfbench_mfgcp", "-j", str(BUILD_JOBS)]):
        fail("build failed")
    return os.path.join(build_dir, "perfbench_mfgcp")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    binary = build(build_dir)
    spans = os.path.join(
        build_dir, f"spans-{args.workload}-{args.seed}-{args.trace}.jsonl")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", spans]
    sys.stdout.flush()
    result = subprocess.run(cmd)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
