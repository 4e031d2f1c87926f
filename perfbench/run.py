#!/usr/bin/env python3
"""End-to-end benchmark of the pdd engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload batch_full|reduction_sweep|standing_ingest \
        --seed N --seconds S --trace 0|1

Builds the engine library and the benchmark program (perfbench/src) from
source with CMake in Release mode, then runs one workload in a fresh
process. The build goes to $CARGO_TARGET_DIR when set (relative paths are
taken from the repository root), else to .bench_build/. Generated inputs
are written under the build directory.

Build output goes to stderr. Stdout carries pddbench's human-readable
lines and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. Any failure to build or run exits
non-zero without printing that line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_full", "reduction_sweep", "standing_ingest")
# Upper bound on one workload run; a hung run is stopped and reported.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def engine_sources_present():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(src):
        return False
    for _, _, files in os.walk(src):
        if any(name.endswith(".cc") for name in files):
            return True
    return False


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "pddbench", "-j", "4"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            fail(f"cannot run {step[0]}: {error}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    binary = os.path.join(build_dir, "pddbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not engine_sources_present():
        fail(f"no engine sources under {os.path.join(ROOT, 'src')}")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    data_dir = os.path.join(build_dir, "perfbench-data")
    os.makedirs(data_dir, exist_ok=True)

    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--data-dir", data_dir,
    ]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as expired:
        # The partial output arrives as bytes even in text mode.
        partial = expired.stdout or b""
        if isinstance(partial, bytes):
            partial = partial.decode(errors="replace")
        sys.stderr.write(partial)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"pddbench exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail("pddbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(done.stdout)
        fail("result line has unexpected keys")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
