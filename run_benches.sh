#!/bin/sh
# Runs every bench binary (bench_paper_figures prints Table II and Figs.
# 6-10 from one cached campaign), then the
# perf-tracking benches, which emit BENCH_microperf.json, BENCH_campaign.json,
# BENCH_scaling.json, BENCH_router.json, BENCH_faults.json and
# BENCH_workload.json.
# tools/bench_summary.py turns those into a summary table and (with --check)
# a regression gate against the committed baseline.
set -e
cd "$(dirname "$0")"
for b in \
  build/bench/bench_paper_figures \
  build/bench/bench_overheads \
  build/bench/bench_ablation_modes \
  build/bench/bench_ablation_rl \
  build/bench/bench_latency_throughput \
  build/bench/bench_mode_map; do
  echo "===== $b ====="
  "$b" "$@"
done

echo "===== build/bench/bench_microperf ====="
build/bench/bench_microperf \
  --benchmark_out=BENCH_microperf.json --benchmark_out_format=json

echo "===== build/bench/bench_campaign ====="
build/bench/bench_campaign --out=BENCH_campaign.json

echo "===== build/bench/bench_scaling ====="
build/bench/bench_scaling --out=BENCH_scaling.json

echo "===== build/bench/bench_router ====="
build/bench/bench_router --out=BENCH_router.json

echo "===== build/bench/bench_faults ====="
build/bench/bench_faults --out=BENCH_faults.json

echo "===== build/bench/bench_workload ====="
build/bench/bench_workload --out=BENCH_workload.json

echo "===== perf summary ====="
python3 tools/bench_summary.py BENCH_microperf.json BENCH_campaign.json \
  --scaling BENCH_scaling.json --router BENCH_router.json \
  --faults BENCH_faults.json --workload BENCH_workload.json
