#!/usr/bin/env python3
"""Builds perfbench_noc from source and runs one workload.

    python3 perfbench/run.py --workload mesh32_uniform --seed 17 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally); run-time scratch files go to
.bench_build/scratch-<pid> and are removed on exit. The last line of stdout is
perfbench_noc's JSON result; the exit code is perfbench_noc's (0 = every check
passed). See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_noc")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulator.h")):
        fail(f"no simulator sources under {ROOT}/src; run from a repository checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_noc", "-j4"])
    for cmd in steps:
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    build()
    scratch = os.path.join(BUILD_ROOT, f"scratch-{os.getpid()}")
    cmd = [BINARY, "--scratch", scratch]
    if args.selftest:
        cmd.append("--selftest")
    else:
        with open(os.path.join(HERE, "digests.json")) as f:
            recorded = json.load(f).get(args.workload)
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if recorded:
            cmd += ["--reference-digest", recorded["sim_digest"]]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"perfbench_noc did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
