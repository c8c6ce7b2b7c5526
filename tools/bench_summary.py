#!/usr/bin/env python3
"""Summarize (and optionally gate on) the rlftnoc perf artifacts.

Inputs are the JSON files produced by run_benches.sh:
  BENCH_microperf.json  google-benchmark JSON from bench_microperf
  BENCH_campaign.json   wall-time / simulated-cycles-per-second from
                        bench_campaign (schema rlftnoc-bench-campaign-v1)
  BENCH_scaling.json    per-(mesh, sim_threads) throughput matrix from
                        bench_scaling (schema rlftnoc-bench-scaling-v2,
                        with the per-phase wall-time breakdown per cell)

Usage:
  bench_summary.py MICROPERF_JSON CAMPAIGN_JSON
      Print a human-readable summary table.

  bench_summary.py MICROPERF_JSON CAMPAIGN_JSON \
      --check-against BASELINE_MICROPERF BASELINE_CAMPAIGN [--threshold 0.25]
      Additionally compare against a committed baseline and exit non-zero if
      any gated micro-kernel slows down by more than the threshold, or the
      campaign cycles-per-second throughput drops by more than it.

  bench_summary.py ... --scaling BENCH_SCALING [--scaling-floor 1.5]
      Additionally summarize the intra-run scaling matrix. Always fails if
      the bench reported a cross-thread-count result divergence. The speedup
      gate (16x16 mesh, sim_threads=4 vs 1, machine-relative) applies only
      when the producing machine had >= 4 hardware threads: the floor is a
      conservative 1.5x for noisy shared CI runners, against the 2.5x the
      stepper achieves on quiet 4-core hardware.

The gate covers the kernels this repo actively optimizes; other benchmarks
are reported but not gated (end-to-end network benches on shared CI runners
are too noisy for a hard 25% bar at per-cycle granularity, the three gated
coding/router kernels are not).
"""

import argparse
import json
import sys

# Micro-kernels the CI perf-smoke job hard-fails on: the coding kernels and
# the mid-load router-step kernel.
GATED_KERNELS = [
    "BM_Crc32Flit",
    "BM_SecdedEncodeFlit",
    "BM_SecdedDecodeCorrupted",
    "BM_NetworkCyclePerLoad/8",
]


def load_microperf(path):
    """Returns {benchmark name: real_time in ns}."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for entry in doc.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate rows (mean/median/stddev)
        unit = entry.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        out[entry["name"]] = float(entry["real_time"]) * scale
    if not out:
        sys.exit(f"{path}: no benchmark entries found")
    return out


def load_campaign(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "rlftnoc-bench-campaign-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def load_scaling(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "rlftnoc-bench-scaling-v2":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def load_faults(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "rlftnoc-bench-faults-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def load_workload(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "rlftnoc-bench-workload-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def load_router(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "rlftnoc-bench-router-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def print_router(router):
    rs = router["router_step"]
    ed = router["error_draw"]
    cs = router["control_step"]
    ph = rs["phase_seconds"]
    print()
    print("execute-phase kernels (bench_router)")
    print(
        f"  router_step   {rs['mesh']}x{rs['mesh']} serial: "
        f"{rs['cycles_per_second']:>9.0f} cycles/s  "
        f"execute share {rs['execute_share'] * 100.0:.1f}%  "
        f"[ser {ph['serial']:.3f}s rx {ph['receive']:.3f}s "
        f"ex {ph['execute']:.3f}s mg {ph['merge']:.3f}s]"
    )
    print(
        f"  error_draw    p={ed['prob']}: legacy "
        f"{ed['legacy_mtraversals_per_second']:.1f} M/s  gated "
        f"{ed['gated_mtraversals_per_second']:.1f} M/s  zero-prob "
        f"{ed['zero_prob_mtraversals_per_second']:.1f} M/s"
    )
    print(
        f"  control_step  {cs['routers']} routers: "
        f"{cs['steps_per_second']:.0f} steps/s "
        f"({cs['micros_per_step']:.1f} us/step)"
    )


def check_router(router, base, threshold):
    """Returns a list of regression messages (empty = pass)."""
    gates = [
        (
            "router_step cycles/s",
            router["router_step"]["cycles_per_second"],
            base["router_step"]["cycles_per_second"],
        ),
        (
            "error_draw gated M/s",
            router["error_draw"]["gated_mtraversals_per_second"],
            base["error_draw"]["gated_mtraversals_per_second"],
        ),
        (
            "error_draw zero-prob M/s",
            router["error_draw"]["zero_prob_mtraversals_per_second"],
            base["error_draw"]["zero_prob_mtraversals_per_second"],
        ),
        (
            "control_step steps/s",
            router["control_step"]["steps_per_second"],
            base["control_step"]["steps_per_second"],
        ),
    ]
    failures = []
    for name, new, old in gates:
        if old > 0 and new < old * (1.0 - threshold):
            failures.append(
                f"{name}: {new:.1f} vs baseline {old:.1f} "
                f"({(new / old - 1.0) * 100.0:.1f}%, limit "
                f"-{threshold * 100.0:.0f}%)"
            )
    return failures


def print_workload(workload):
    print()
    print(
        f"workload replay (open-loop vs dependency-gated, "
        f"{workload['mesh']}x{workload['mesh']} mesh)"
    )
    print(
        f"{'workload':>9}  {'mode':>5}  {'transfers':>9}  {'retired':>7}  "
        f"{'latency':>8}  {'cycles':>8}"
    )
    for c in workload["cells"]:
        mode = "gated" if c["gated"] else "open"
        print(
            f"{c['workload']:>9}  {mode:>5}  {c['transfers']:>9}  "
            f"{c['retired']:>7}  {c['avg_latency']:>8.2f}  "
            f"{c['total_cycles']:>8}"
        )


def check_workload(workload):
    """Returns a list of failure messages (empty = pass)."""
    failures = []
    if not workload.get("results_identical", False):
        failures.append(
            "workload bench reported result divergence across sim_threads "
            "(determinism contract broken for dependency-gated replay)"
        )
    for c in workload["cells"]:
        mode = "gated" if c["gated"] else "open"
        if c["retired"] != c["transfers"]:
            failures.append(
                f"{c['workload']} ({mode}): only {c['retired']} of "
                f"{c['transfers']} transfers retired (gating deadlock?)"
            )
        if not c["drained"]:
            failures.append(f"{c['workload']} ({mode}) did not drain")
    return failures


def print_faults(faults):
    print()
    print(
        f"hard-fault sweep ({faults['mesh']}x{faults['mesh']} "
        f"{faults['topology']}, {faults['routing']} routing, "
        f"{faults['total_links']} links)"
    )
    print(
        f"{'faults':>7}  {'killed':>6}  {'delivered':>9}  {'unreach':>7}  "
        f"{'latency':>8}  {'vs fault-free':>13}"
    )
    for c in faults["cells"]:
        print(
            f"{c['fraction'] * 100.0:>6.1f}%  {c['links_killed']:>6}  "
            f"{c['packets_delivered']:>9}  {c['unreachable_drops']:>7}  "
            f"{c['avg_latency']:>8.2f}  "
            f"{c['delivered_vs_faultfree'] * 100.0:>12.1f}%"
        )


def check_faults(faults):
    """Returns a list of failure messages (empty = pass)."""
    failures = []
    if not faults.get("results_identical", False):
        failures.append(
            "faults bench reported result divergence across sim_threads "
            "(determinism contract broken under hard faults)"
        )
    for c in faults["cells"]:
        if c["packets_delivered"] == 0:
            failures.append(
                f"zero throughput with {c['links_killed']} dead links"
            )
        if not c["drained"]:
            failures.append(
                f"run with {c['links_killed']} dead links did not drain"
            )
    return failures


def print_scaling(scaling):
    print()
    print(
        f"scaling (hardware threads on producing machine: "
        f"{scaling['hardware_threads']})"
    )
    print(
        f"{'mesh':>8}  {'sim_threads':>11}  {'cycles/s':>10}  {'speedup':>7}"
        f"  {'serial':>7}  {'receive':>7}  {'execute':>7}  {'merge':>7}"
    )
    for c in scaling["cells"]:
        ph = c["phase_seconds"]
        print(
            f"{c['mesh']:>5}x{c['mesh']:<3} {c['sim_threads']:>11} "
            f"{c['cycles_per_second']:>11.0f}  {c['speedup_vs_serial']:>6.2f}x"
            f"  {ph['serial']:>6.3f}s {ph['receive']:>6.3f}s "
            f"{ph['execute']:>6.3f}s {ph['merge']:>6.3f}s"
        )


def check_scaling(scaling, floor):
    """Returns a list of failure messages (empty = pass)."""
    failures = []
    if not scaling.get("results_identical", False):
        failures.append(
            "scaling bench reported result divergence across sim_threads "
            "(determinism contract broken)"
        )
    hw = scaling.get("hardware_threads", 0)
    if hw < 4:
        print(
            f"scaling speedup gate skipped: only {hw} hardware thread(s) "
            f"on the producing machine (need >= 4)"
        )
        return failures
    cell = next(
        (
            c
            for c in scaling["cells"]
            if c["mesh"] == 16 and c["sim_threads"] == 4
        ),
        None,
    )
    if cell is None:
        failures.append("scaling results missing the 16x16 sim_threads=4 cell")
    elif cell["speedup_vs_serial"] < floor:
        failures.append(
            f"16x16 sim_threads=4 speedup {cell['speedup_vs_serial']:.2f}x "
            f"below the {floor:.2f}x floor"
        )
    return failures


def print_summary(micro, campaign):
    width = max(len(n) for n in micro)
    print(f"{'micro-kernel':<{width}}  {'ns/op':>12}  gated")
    for name, ns in micro.items():
        gate = "yes" if name in GATED_KERNELS else ""
        print(f"{name:<{width}}  {ns:>12.2f}  {gate}")
    print()
    print(f"campaign runs            : {campaign['runs']}")
    print(f"campaign wall seconds    : {campaign['wall_seconds']:.3f}")
    print(f"campaign simulated cycles: {campaign['simulated_cycles']}")
    print(f"campaign cycles/second   : {campaign['cycles_per_second']:.0f}")


def check(micro, campaign, base_micro, base_campaign, threshold):
    """Returns a list of regression messages (empty = pass)."""
    failures = []
    for name in GATED_KERNELS:
        if name not in micro or name not in base_micro:
            failures.append(f"gated kernel {name} missing from results")
            continue
        new, old = micro[name], base_micro[name]
        if old > 0 and new > old * (1.0 + threshold):
            failures.append(
                f"{name}: {new:.2f} ns vs baseline {old:.2f} ns "
                f"(+{(new / old - 1.0) * 100.0:.1f}%, limit "
                f"+{threshold * 100.0:.0f}%)"
            )
    new_cps = campaign["cycles_per_second"]
    old_cps = base_campaign["cycles_per_second"]
    if old_cps > 0 and new_cps < old_cps * (1.0 - threshold):
        failures.append(
            f"campaign throughput: {new_cps:.0f} cycles/s vs baseline "
            f"{old_cps:.0f} ({(new_cps / old_cps - 1.0) * 100.0:.1f}%, limit "
            f"-{threshold * 100.0:.0f}%)"
        )
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("microperf")
    ap.add_argument("campaign")
    ap.add_argument(
        "--check-against",
        nargs=2,
        metavar=("BASELINE_MICROPERF", "BASELINE_CAMPAIGN"),
        help="baseline JSON pair to gate against",
    )
    ap.add_argument("--threshold", type=float, default=0.25)
    ap.add_argument(
        "--scaling",
        metavar="BENCH_SCALING",
        help="bench_scaling JSON to summarize and gate",
    )
    ap.add_argument("--scaling-floor", type=float, default=1.5)
    ap.add_argument(
        "--faults",
        metavar="BENCH_FAULTS",
        help="bench_faults JSON to summarize and gate",
    )
    ap.add_argument(
        "--workload",
        metavar="BENCH_WORKLOAD",
        help="bench_workload JSON to summarize and gate",
    )
    ap.add_argument(
        "--router",
        metavar="BENCH_ROUTER",
        help="bench_router JSON to summarize",
    )
    ap.add_argument(
        "--router-baseline",
        metavar="BASELINE_ROUTER",
        help="committed bench_router baseline to gate --router against "
        "(shares --threshold)",
    )
    args = ap.parse_args()

    micro = load_microperf(args.microperf)
    campaign = load_campaign(args.campaign)
    print_summary(micro, campaign)

    if args.scaling:
        scaling = load_scaling(args.scaling)
        print_scaling(scaling)
        failures = check_scaling(scaling, args.scaling_floor)
        if failures:
            for msg in failures:
                print(f"PERF REGRESSION: {msg}")
            sys.exit(1)

    if args.faults:
        faults = load_faults(args.faults)
        print_faults(faults)
        failures = check_faults(faults)
        if failures:
            for msg in failures:
                print(f"FAULT SWEEP FAILURE: {msg}")
            sys.exit(1)

    if args.workload:
        workload = load_workload(args.workload)
        print_workload(workload)
        failures = check_workload(workload)
        if failures:
            for msg in failures:
                print(f"WORKLOAD BENCH FAILURE: {msg}")
            sys.exit(1)

    if args.router:
        router = load_router(args.router)
        print_router(router)
        if args.router_baseline:
            base = load_router(args.router_baseline)
            failures = check_router(router, base, args.threshold)
            if failures:
                for msg in failures:
                    print(f"PERF REGRESSION: {msg}")
                sys.exit(1)

    if args.check_against:
        base_micro = load_microperf(args.check_against[0])
        base_campaign = load_campaign(args.check_against[1])
        failures = check(micro, campaign, base_micro, base_campaign, args.threshold)
        print()
        if failures:
            for msg in failures:
                print(f"PERF REGRESSION: {msg}")
            sys.exit(1)
        print(
            f"perf check passed (threshold {args.threshold * 100.0:.0f}%, "
            f"{len(GATED_KERNELS)} gated kernels + campaign throughput)"
        )


if __name__ == "__main__":
    main()
