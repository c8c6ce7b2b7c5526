#!/usr/bin/env python3
"""Checks that tools/bench_summary.py passes at parity and fails each gate.

    bench_summary_test.py BENCH_SUMMARY_PY WORK_DIR

Writes synthetic bench results and baselines into WORK_DIR, runs the script
on them and exits non-zero if any case gets the wrong exit code or message.
"""
import json
import os
import subprocess
import sys

SCRIPT, WORK = sys.argv[1], sys.argv[2]
BASE = os.path.join(WORK, "baseline")

KERNELS = {
    "BM_Crc32Flit": 5.6,
    "BM_SecdedEncodeFlit": 4.5,
    "BM_SecdedDecodeCorrupted": 7.5,
    "BM_NetworkCyclePerLoad/8": 38911.9,
    "BM_FaultInjectionGated": 7.03,
    "BM_FaultInjectionNever": 4.59,
    "BM_ControlStep": 178574.0,
    "BM_RouterStep16x16": 202.196,  # ms
    "BM_QLearningStep": 67.3,  # not gated
}

ENV = {"hardware_threads": 4, "build_type": "Release", "compiler": "g++ 12",
       "rlftnoc_telemetry": "ON", "git_sha": "0000000", "workload":
       "parsec_campaign", "seed": 11, "trace": 0}


def microperf(kernels):
    return {"benchmarks": [
        {"name": n, "run_type": "iteration", "real_time": t,
         "time_unit": "ms" if n == "BM_RouterStep16x16" else "ns"}
        for n, t in kernels.items()]}


def perfbench_result(cps, correct=True):
    return {"correct": correct, "attempted": 1000, "failed": 0, "metrics": {
        "run_wall_s": {"value": 3.0, "unit": "s"},
        "sim_cycles_per_s": {"value": cps, "unit": "cycles/s"}}}


def scaling(identical):
    cells = [{"mesh": 16, "sim_threads": t, "cycles_per_second": 1000.0 * s,
              "speedup_vs_serial": s,
              "phase_seconds": {"serial": 0.0, "receive": 0.1,
                                "execute": 0.1, "merge": 0.0}}
             for t, s in ((1, 1.0), (4, 2.0))]
    return {"schema": "rlftnoc-bench-scaling-v2", "hardware_threads": 4,
            "results_identical": identical, "cells": cells}


def write(name, text):
    path = os.path.join(WORK, name)
    with open(path, "w") as f:
        f.write(text)
    return path


def run(micro, cps, identical, correct):
    """bench_summary.py's exit code and output on one synthetic result set."""
    m = write("micro.json", json.dumps(microperf(micro)))
    s = write("scaling.json", json.dumps(scaling(identical)))
    p = write("perfbench.txt", "\n".join([
        "perfbench env " + json.dumps(ENV),
        "perfbench sim_digest 0123456789abcdef (workload parsec_campaign)",
        json.dumps(perfbench_result(cps, correct))]) + "\n")
    proc = subprocess.run(
        [sys.executable, SCRIPT, m, "--scaling", s, "--perfbench", p,
         "--baseline", BASE],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


os.makedirs(BASE, exist_ok=True)
with open(os.path.join(BASE, "BENCH_microperf.json"), "w") as f:
    json.dump(microperf(KERNELS), f)
with open(os.path.join(BASE, "BENCH_perfbench.json"), "w") as f:
    f.write(json.dumps(dict(perfbench_result(150000.0), env=ENV)) + "\n")


def slower(name, factor):
    k = dict(KERNELS)
    k[name] *= factor
    return k


CASES = [
    # (what, kernels, campaign cps, results identical, campaign correct,
    #  exit, text in output)
    ("parity", KERNELS, 150000.0, True, True, 0, "perf check passed"),
    ("gated kernel 20% slower", slower("BM_ControlStep", 1.2), 150000.0,
     True, True, 0, "perf check passed"),
    ("ungated kernel 30% slower", slower("BM_QLearningStep", 1.3), 150000.0,
     True, True, 0, "perf check passed"),
    ("gated kernel 30% slower", slower("BM_SecdedEncodeFlit", 1.3), 150000.0,
     True, True, 1, "BM_SecdedEncodeFlit"),
    ("16x16 run 30% slower", slower("BM_RouterStep16x16", 1.3), 150000.0,
     True, True, 1, "BM_RouterStep16x16"),
    ("campaign 30% lower", KERNELS, 105000.0, True, True, 1,
     "campaign sim_cycles_per_s"),
    ("campaign incorrect", KERNELS, 150000.0, True, False, 1,
     '"correct": false'),
    ("scaling divergence", KERNELS, 150000.0, False, True, 1, "divergence"),
]

failed = 0
for what, kernels, cps, identical, correct, want_rc, want_text in CASES:
    rc, out = run(kernels, cps, identical, correct)
    ok = rc == want_rc and want_text in out
    print(f"{'ok  ' if ok else 'FAIL'} {what}: exit {rc} (want {want_rc})")
    if not ok:
        print(out)
        failed += 1
sys.exit(1 if failed else 0)
