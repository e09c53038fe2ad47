#!/usr/bin/env python3
"""Builds and runs the reproduction's benchmark.

Run from the root of a source checkout:

    python3 slobench/run.py --workload steady --seed 42 --seconds 30 --trace 0

The simulator and the benchmark are built from source with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the checkout, the benchmark's
arithmetic self-test runs, then the benchmark itself. Its standard output
passes through unchanged; the last line is the JSON result. Build output
goes to standard error. Exits non-zero if any step fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# A benchmark run must end within 180 s, and a first run, build included,
# within 900 s; each step is stopped a little before.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print(f"slobench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, check=False, **kwargs).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    except OSError as err:
        fail(f"cannot run {cmd[0]}: {err}")


def build(root):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        fail(f"{root} is not a source checkout (no CMakeLists.txt and src/)")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "slobench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
               BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if run(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        fail("build failed")
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = build(root)
    if run([os.path.join(build_dir, "slobench_arith_test")], RUN_TIMEOUT_S) != 0:
        fail("arithmetic self-test failed")
    sys.stdout.flush()
    code = run([os.path.join(build_dir, "slobench"), "--workload", args.workload,
                "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace],
               RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
