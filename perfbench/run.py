#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first run configures and builds `perfbench/` (the analyzer libraries,
the shipped `analyzed` binary and the `perfbench` binary) into
`.bench_build/`; later runs only rebuild what changed.  Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.  Workloads and metrics are
described in BENCHMARK.json and perfbench/layers.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("corpus_serial", "corpus_threads", "serve_mixed", "attainment_sim")


def configured_here(cache):
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                home = line.split("=", 1)[1].strip()
                return os.path.isdir(home) and os.path.samefile(home, HERE)
    return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: no analyzer sources next to perfbench/; run from a checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache) and not configured_here(cache):
        shutil.rmtree(BUILD)  # a build tree of a checkout that has moved
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build()
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode

    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--analyzed", os.path.join(BUILD, "soap", "tools", "analyzed"),
        "--trace-file",
        os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed)),
    ]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
