#!/bin/sh
# Runs the paper campaign (rlftnoc_run configs/paper_campaign.cfg; this
# script's arguments are key=value overrides or rlftnoc_run flags, e.g.
# budget_pct=1 --jobs 4) and renders Table II and Figs. 6-10 with
# rlftnoc_report, then every bench binary, then the perf harness:
# bench_microperf, bench_scaling and the perfbench parsec_campaign workload.
# Fresh results go to build/bench-out/; the committed BENCH_microperf.json,
# BENCH_scaling.json and BENCH_perfbench.json are never written.
# tools/bench_summary.py gates them against the committed baselines.
# To refresh a baseline, copy the fresh file over it (README,
# "Performance").
# E11, the spatial mode-residency map, is a traced rlftnoc_run read back by
# rlftnoc_report --telemetry (README, "Reproducing the paper's figures").
set -e
cd "$(dirname "$0")"
out=build/bench-out
mkdir -p "$out"

echo "===== build/apps/rlftnoc_run configs/paper_campaign.cfg ====="
build/apps/rlftnoc_run configs/paper_campaign.cfg \
  results_out="$out/campaign_results.tsv" "$@"
echo "===== build/apps/rlftnoc_report ====="
build/apps/rlftnoc_report "$out/campaign_results.tsv" | tee "$out/report.md"
for b in \
  build/bench/bench_overheads \
  build/bench/bench_ablation_modes \
  build/bench/bench_ablation_rl \
  build/bench/bench_latency_throughput; do
  echo "===== $b ====="
  "$b"
done

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
