#!/bin/sh
# Runs every bench binary (bench_paper_figures prints Table II and Figs.
# 6-10 from one cached campaign and takes this script's arguments, e.g.
# --scale=1 --jobs=4), then the perf harness: bench_microperf,
# bench_scaling and the perfbench parsec_campaign workload. Fresh results go
# to build/bench-out/; the committed BENCH_microperf.json, BENCH_scaling.json
# and BENCH_perfbench.json are never written. tools/bench_summary.py gates
# them against the committed baselines.
# To refresh a baseline, copy the fresh file over it (README,
# "Performance").
# E11, the spatial mode-residency map, is a traced rlftnoc_run read back by
# rlftnoc_report --telemetry (README, "Reproducing the paper's figures").
set -e
cd "$(dirname "$0")"
echo "===== build/bench/bench_paper_figures ====="
build/bench/bench_paper_figures "$@"
for b in \
  build/bench/bench_overheads \
  build/bench/bench_ablation_modes \
  build/bench/bench_ablation_rl \
  build/bench/bench_latency_throughput; do
  echo "===== $b ====="
  "$b"
done

out=build/bench-out
mkdir -p "$out"

echo "===== build/bench/bench_microperf ====="
build/bench/bench_microperf \
  --benchmark_out="$out/BENCH_microperf.json" --benchmark_out_format=json

echo "===== build/bench/bench_scaling ====="
build/bench/bench_scaling --out="$out/BENCH_scaling.json"

echo "===== perfbench parsec_campaign ====="
python3 perfbench/run.py --workload parsec_campaign --seed 11 --seconds 25 \
  --trace 0 > "$out/parsec_campaign.txt"

echo "===== perf summary ====="
python3 tools/bench_summary.py "$out/BENCH_microperf.json" \
  --scaling "$out/BENCH_scaling.json" \
  --perfbench "$out/parsec_campaign.txt" --baseline .
