#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload employee --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the periodk library from src/, the perfbench
binary and the helper tests) into the build directory: $CARGO_TARGET_DIR
when set, else .bench_build/.  Later runs rebuild incrementally.  Build
output goes to stderr; the benchmark's report goes to stdout, ending with
one JSON line.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("employee", "tpcbih", "asof-stream")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "middleware",
                                       "temporal_db.h")):
        sys.exit("perfbench: periodk sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def pin_to_one_cpu():
    # One client thread and engine num_threads = 1: pinning the process
    # to one CPU removes cross-core migration from the measurement.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    build(out)
    if args.self_test:
        test = os.path.join(out, "perfbench_test")
        if not os.path.isfile(test):
            sys.exit("perfbench: GoogleTest not found, helper tests not built")
        sys.exit(subprocess.run([test]).returncode)

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    pin_to_one_cpu()
    command = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out-dir", results]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
