// Shared harness for the benches.
//
// Every bench reads the wall clock through time_seconds(), the one
// wall-clock lint exemption under bench/, and the pinned bench
// (bench_scaling) takes its only knob, --out=PATH, through out_path_arg().
// The forced-mode benches (E8
// bench_ablation_modes, E10 bench_latency_throughput) drive a bare Network
// through run_forced_mode(), which counts the packets a full NI queue
// refused.
//
// Figures 6-10 (kPaperFigures, sim/campaign.h) are different views of one
// campaign (8 PARSEC-like benchmarks x 4 policies). bench_paper_figures runs
// it once and caches the raw results as `campaign_results.tsv` in the
// working directory; later runs with the same options reuse the cache.
// Flags:
//   --fresh        ignore and overwrite the cache
//   --scale=N      packet-budget percentage (default 100 = full budgets)
//   --full         paper-scale pretrain/warm-up phases + 100% budgets
//   --seed=N       experiment seed (default 11)
//   --jobs=N       parallel (benchmark, policy) runs; 0 = all hardware
//                  threads, 1 = serial (default). Results are identical
//                  for any value (per-run seed derivation).
//   --cache=PATH   cache location (default ./campaign_results.tsv)
// A numeric flag whose value is not a plain decimal integer in range exits
// 2, naming the flag and the value.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "noc/network.h"
#include "sim/campaign.h"
#include "sim/results_io.h"
#include "traffic/traffic.h"

namespace rlftnoc::bench {

/// Wall-clock seconds `fn` takes to run. Timing is what a bench reports;
/// it never feeds a simulation input.
double time_seconds(const std::function<void()>& fn);

/// The `--out=PATH` argument of a pinned bench (`def` when absent). Any
/// other argument prints "unknown flag '<arg>' (supported: --out=PATH)"
/// and exits 2.
std::string out_path_arg(int argc, char** argv, const std::string& def);

struct BenchArgs {
  bool fresh = false;
  std::uint64_t scale_pct = 100;
  bool full = false;
  std::uint64_t seed = 11;
  unsigned jobs = 1;
  std::string cache = "campaign_results.tsv";
};

BenchArgs parse_args(int argc, char** argv);

/// The four policies of the paper's evaluation, CRC first (the baseline
/// every figure normalizes to).
const std::vector<PolicyKind>& paper_policies();

/// All eight benchmark names.
std::vector<std::string> paper_benchmarks();

/// Hash of every option that determines campaign *results* (seed, scale,
/// phase lengths, benchmark and policy lists). `jobs` is excluded on
/// purpose: results are bit-identical for any job count, so a cache written
/// at --jobs=4 is valid for a serial rerun. The cache file records this
/// hash in a leading `# campaign-options-hash <hex>` comment and a reload
/// only reuses the file when the hash matches — editing options can no
/// longer silently serve stale cached results.
std::uint64_t campaign_options_hash(const BenchArgs& args);

/// Loads the cached campaign or runs it (and caches).
CampaignResults load_or_run_campaign(const BenchArgs& args);

/// One run on a bare Network with no controller: every router held in
/// `mode`, every live link at error probability `p_error`.
struct ForcedModeRun {
  NocConfig noc;
  OpMode mode = OpMode::kMode0;
  double p_error = 0.0;
  SyntheticTraffic::Options traffic;
  std::uint64_t traffic_seed = 0;
  Cycle warmup = 0;      ///< metrics reset when the clock reaches this cycle
  Cycle max_cycles = 0;  ///< stop here even if traffic or network is not done
};

struct ForcedModeResult {
  NetworkMetrics metrics;          ///< since the warm-up reset
  double dynamic_energy_pj = 0.0;  ///< whole run
  std::uint64_t offered = 0;       ///< packets the traffic generated
  std::uint64_t rejected = 0;      ///< of those, refused by a full NI queue
};

/// Steps the network until the traffic is exhausted and the network has
/// drained, or until `max_cycles`.
ForcedModeResult run_forced_mode(const ForcedModeRun& run);

}  // namespace rlftnoc::bench
