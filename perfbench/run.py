#!/usr/bin/env python3
"""Builds and runs the PEMS long-run benchmark (see README.md here).

    python3 perfbench/run.py --workload window_analytics --seed 1 \
        --seconds 6 --trace 0

Run from the repository root. The first run configures and builds
`pems_perf` (libserena from ../src plus this directory) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. Build output goes to stderr, so the last stdout
line is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("window_analytics", "service_fanout", "query_churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 2


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir, jobs):
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", str(jobs), "--target", "pems_perf"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload '{args.workload}' "
                    f"(known: {', '.join(WORKLOADS)})")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"serena sources not found under {ROOT}/src")

    cores = len(os.sched_getaffinity(0))
    out_dir = build_dir()
    try:
        if not build(out_dir, max(1, min(cores, 4))):
            return fail("build failed")
    except subprocess.TimeoutExpired:
        return fail("build timed out")

    # The main thread plus the pool use no more threads than there are
    # cores. Every other SERENA_* setting is cleared: no stats, journal or
    # metrics files, default vectorization and optimizer.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SERENA_")}
    env["SERENA_THREADS"] = str(max(1, cores - 1))
    env["SERENA_LOG"] = "error"
    command = [os.path.join(out_dir, "pems_perf"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
