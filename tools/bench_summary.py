#!/usr/bin/env python3
"""Summarize the rlftnoc perf results and gate them against the baselines.

Usage:
  bench_summary.py MICROPERF [--scaling SCALING] [--perfbench PERFBENCH]
                   [--baseline DIR]

MICROPERF is bench_microperf's --benchmark_out JSON, SCALING is
bench_scaling's JSON (schema rlftnoc-bench-scaling-v2) and PERFBENCH is the
stdout of `python3 perfbench/run.py --workload parsec_campaign ...`.
Three gates; a failing one prints its reason and the script exits 1:

  kernels   each kernel in GATED_KERNELS must take at most 25% more time
            per iteration than in DIR/BENCH_microperf.json.
  scaling   the bench must report bit-identical results across sim_threads;
            when its machine had >= 4 hardware threads, the 16x16
            sim_threads=4 speedup must also reach 1.5x (a conservative
            floor for noisy shared runners; quiet 4-core hardware reaches
            about 2.5x).
  campaign  the run must be correct, and its sim_cycles_per_s may be lower
            than in DIR/BENCH_perfbench.json by at most the bound
            BENCHMARK.json gives that metric.

The kernel and campaign gates apply only with --baseline; the scaling gate
needs no baseline. DIR/BENCH_perfbench.json is a committed perfbench result:
the last line of a run.py transcript with the transcript's env line added
as "env".
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Micro-kernels the gate covers: the coding kernels, the mid-load network
# cycle, the skip-sampled error draws, the control step and one serial run
# of a loaded 16x16 mesh.
GATED_KERNELS = [
    "BM_Crc32Flit",
    "BM_SecdedEncodeFlit",
    "BM_SecdedDecodeCorrupted",
    "BM_NetworkCyclePerLoad/8",
    "BM_FaultInjectionGated",
    "BM_FaultInjectionNever",
    "BM_ControlStep",
    "BM_RouterStep16x16",
]

KERNEL_BOUND = 0.25
SCALING_FLOOR = 1.5
ENV_PREFIX = "perfbench env "


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_microperf(path):
    """Returns {benchmark name: real_time in ns}."""
    out = {}
    for entry in load_json(path).get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[entry["time_unit"]]
        out[entry["name"]] = float(entry["real_time"]) * scale
    if not out:
        sys.exit(f"{path}: no benchmark entries found")
    return out


def load_scaling(path):
    doc = load_json(path)
    if doc.get("schema") != "rlftnoc-bench-scaling-v2":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def load_perfbench(path):
    """The result object of a perfbench run, with its env under "env"."""
    with open(path) as f:
        lines = f.read().strip().splitlines()
    if not lines:
        sys.exit(f"{path}: empty perfbench result")
    doc = json.loads(lines[-1])
    for line in lines:
        if line.startswith(ENV_PREFIX):
            doc["env"] = json.loads(line[len(ENV_PREFIX):])
    if "env" not in doc or "metrics" not in doc:
        sys.exit(f"{path}: not a perfbench result (no env line or metrics)")
    return doc


def metric_bound(name):
    """The bound BENCHMARK.json gives an end-to-end metric."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    for m in bench["end_to_end"]:
        if m["name"] == name:
            return float(m["bound"])
    sys.exit(f"BENCHMARK.json has no end-to-end metric {name!r}")


def check_kernels(micro, base):
    """Prints the kernel table; returns the gate's failure messages."""
    failures = []
    width = max(len(n) for n in micro)
    print(f"{'micro-kernel':<{width}}  {'ns/op':>14}  {'baseline':>14}  gated")
    for name, ns in micro.items():
        old = base.get(name)
        ref = f"{old:>14.2f}" if old else f"{'-':>14}"
        print(f"{name:<{width}}  {ns:>14.2f}  {ref}  "
              f"{'yes' if name in GATED_KERNELS else ''}")
    if not base:
        return failures
    for name in GATED_KERNELS:
        if name not in micro or name not in base:
            failures.append(f"gated kernel {name} missing from results or baseline")
            continue
        new, old = micro[name], base[name]
        if new > old * (1.0 + KERNEL_BOUND):
            failures.append(
                f"{name}: {new:.2f} ns vs baseline {old:.2f} ns "
                f"(+{(new / old - 1.0) * 100.0:.1f}%, limit "
                f"+{KERNEL_BOUND * 100.0:.0f}%)"
            )
    return failures


def check_scaling(scaling):
    """Prints the scaling matrix; returns the gate's failure messages."""
    hw = scaling.get("hardware_threads", 0)
    print(f"\nscaling (hardware threads on producing machine: {hw})")
    print(f"{'mesh':>8}  {'sim_threads':>11}  {'cycles/s':>10}  {'speedup':>7}"
          f"  {'serial':>7}  {'receive':>7}  {'execute':>7}  {'merge':>7}")
    for c in scaling["cells"]:
        ph = c["phase_seconds"]
        print(f"{c['mesh']:>5}x{c['mesh']:<3} {c['sim_threads']:>11} "
              f"{c['cycles_per_second']:>11.0f}  {c['speedup_vs_serial']:>6.2f}x"
              f"  {ph['serial']:>6.3f}s {ph['receive']:>6.3f}s "
              f"{ph['execute']:>6.3f}s {ph['merge']:>6.3f}s")
    failures = []
    if not scaling.get("results_identical", False):
        failures.append("scaling bench reported result divergence across "
                        "sim_threads (determinism contract broken)")
    if hw < 4:
        print(f"scaling speedup gate skipped: only {hw} hardware thread(s) "
              f"on the producing machine (need >= 4)")
        return failures
    cell = next((c for c in scaling["cells"]
                 if c["mesh"] == 16 and c["sim_threads"] == 4), None)
    if cell is None:
        failures.append("scaling results missing the 16x16 sim_threads=4 cell")
    elif cell["speedup_vs_serial"] < SCALING_FLOOR:
        failures.append(f"16x16 sim_threads=4 speedup "
                        f"{cell['speedup_vs_serial']:.2f}x below the "
                        f"{SCALING_FLOOR:.2f}x floor")
    return failures


def check_campaign(run, base):
    """Prints the perfbench campaign line; returns the gate's failures."""
    cps = run["metrics"]["sim_cycles_per_s"]["value"]
    env = run["env"]
    print(f"\nperfbench {env['workload']} seed {env['seed']}: "
          f"sim_cycles_per_s {cps:.0f} on {env['hardware_threads']} "
          f"hardware threads")
    failures = []
    if not run.get("correct", False):
        failures.append("perfbench run reported \"correct\": false")
    if base is None:
        return failures
    old = base["metrics"]["sim_cycles_per_s"]["value"]
    bound = metric_bound("sim_cycles_per_s")
    print(f"  baseline {old:.0f} on {base['env']['hardware_threads']} "
          f"hardware threads (git {base['env']['git_sha']})")
    keys = ("workload", "seed", "trace")
    if any(env.get(k) != base["env"].get(k) for k in keys):
        failures.append(
            f"perfbench run {[env.get(k) for k in keys]} does not match "
            f"the baseline's {[base['env'].get(k) for k in keys]} "
            f"(workload, seed, trace)")
    elif cps < old * (1.0 - bound):
        failures.append(
            f"campaign sim_cycles_per_s: {cps:.0f} vs baseline {old:.0f} "
            f"({(cps / old - 1.0) * 100.0:.1f}%, limit -{bound * 100.0:.0f}%)")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    ap.add_argument("microperf")
    ap.add_argument("--scaling", metavar="SCALING")
    ap.add_argument("--perfbench", metavar="PERFBENCH")
    ap.add_argument("--baseline", metavar="DIR",
                    help="directory holding BENCH_microperf.json and "
                    "BENCH_perfbench.json")
    args = ap.parse_args()

    def baseline(name):
        return os.path.join(args.baseline, name)

    base_micro = (load_microperf(baseline("BENCH_microperf.json"))
                  if args.baseline else {})
    failures = check_kernels(load_microperf(args.microperf), base_micro)
    if args.scaling:
        failures += check_scaling(load_scaling(args.scaling))
    if args.perfbench:
        base_run = (load_perfbench(baseline("BENCH_perfbench.json"))
                    if args.baseline else None)
        failures += check_campaign(load_perfbench(args.perfbench), base_run)

    print()
    for msg in failures:
        print(f"PERF REGRESSION: {msg}")
    if failures:
        sys.exit(1)
    if args.baseline:
        print(f"perf check passed ({len(GATED_KERNELS)} gated kernels"
              f"{', scaling' if args.scaling else ''}"
              f"{', perfbench campaign' if args.perfbench else ''})")


if __name__ == "__main__":
    main()
