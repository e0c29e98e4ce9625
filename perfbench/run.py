#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload applicability-seq --seed 1 \
        --seconds 8 --trace 0

Workloads: applicability-seq, applicability-par, serve-mixed (see
BENCHMARK.json and perfbench/README.md). The program is configured and built
with CMake under $CARGO_TARGET_DIR (default .bench_build) on first use; the
build's output goes to standard error. The last line of standard output is
the run's JSON result, printed by the program. Any failure to build or run
exits non-zero without a result line.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("applicability-seq", "applicability-par", "serve-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 1


def build(root, build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", source, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", build_dir, "--target", "perfbench",
                     "-j", jobs], BUILD_TIMEOUT_S)
    binary = os.path.join(build_dir, "perfbench")
    return binary if rc == 0 and os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build_dir = os.path.join(build_root, "perfbench")

    binary = build(root, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus", os.path.join(root, "examples", "corpus")]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"perfbench: the program exited with code {proc.returncode} "
              "and no result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
