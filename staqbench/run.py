#!/usr/bin/env python3
"""Builds the staq benchmark and runs one workload of it.

    python3 staqbench/run.py --workload am_peak --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. The benchmark is a CMake package of its
own (staqbench/CMakeLists.txt) that compiles the library from src/; it is
configured once and rebuilt incrementally into .bench_build/. Build output
goes to stderr, so the last stdout line is the run's JSON result. The exit
code is non-zero when the build fails, the run fails, or an answer is wrong.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "staqbench")
BINARY = os.path.join(BUILD_DIR, "staqbench")
WORKLOADS = ("am_peak", "off_peak", "dashboard_mixed")
# A run must end within 180 s; leave room to clean up after a kill.
RUN_TIMEOUT_S = 170


def build_step(cmd):
    """Runs one build command with all its output on stderr."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not build_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return build_step(["cmake", "--build", BUILD_DIR, "-j", "4",
                       "--target", "staqbench"])


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("staqbench: build failed", file=sys.stderr)
        return 1

    tag = f"{args.workload}-seed{args.seed}"
    work_dir = os.path.join(BUILD_ROOT, "run", f"{tag}-{os.getpid()}")
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir,
           "--trace-file", os.path.join(trace_dir, f"{tag}.jsonl")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"staqbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
