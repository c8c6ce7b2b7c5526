// Shared harness for the benches.
//
// Every bench reads the wall clock through time_seconds(), the one
// wall-clock lint exemption under bench/, and the pinned benches (bench_campaign,
// bench_scaling, bench_router, bench_faults, bench_workload) take their
// only knob, --out=PATH, through out_path_arg().
//
// Figures 6-10 are different views of one campaign (8 PARSEC-like
// benchmarks x 4 policies). bench_paper_figures runs it once and caches the
// raw results as `campaign_results.tsv` in the working directory; later runs
// with the same options reuse the cache. Flags:
//   --fresh        ignore and overwrite the cache
//   --scale=N      packet-budget percentage (default 100 = full budgets)
//   --full         paper-scale pretrain/warm-up phases + 100% budgets
//   --seed=N       experiment seed (default 11)
//   --jobs=N       parallel (benchmark, policy) runs; 0 = all hardware
//                  threads, 1 = serial (default). Results are identical
//                  for any value (per-run seed derivation).
//   --cache=PATH   cache location (default ./campaign_results.tsv)
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/campaign.h"
#include "sim/results_io.h"

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

}  // namespace rlftnoc::bench
