// End-to-end campaign throughput benchmark.
//
// Runs the fixed-seed reference campaign (8 PARSEC-like benchmarks x the 4
// paper policies, 3% packet budgets, seed 11, serial) and reports simulated
// cycles per wall-clock second — the number the ROADMAP's "as fast as the
// hardware allows" goal is tracked against. Results go to stdout and to a
// small JSON file (BENCH_campaign.json by default) that CI archives and
// tools/bench_summary.py compares against the committed baseline.
//
// The configuration is pinned (not taken from bench_common flags) so every
// emitted JSON measures the same workload; --out=PATH is the only knob.
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.h"
#include "sim/campaign.h"

namespace {

constexpr std::uint64_t kSeed = 11;
constexpr std::uint64_t kBudgetPct = 3;

}  // namespace

int main(int argc, char** argv) {
  using namespace rlftnoc;
  const std::string out_path =
      bench::out_path_arg(argc, argv, "BENCH_campaign.json");

  SimOptions base;
  base.seed = kSeed;
  base.jobs = 1;
  const std::vector<std::string> benchmarks = bench::paper_benchmarks();
  const std::vector<PolicyKind>& policies = bench::paper_policies();

  std::fprintf(stderr,
               "[bench_campaign] reference campaign: %zu benchmarks x %zu "
               "policies, budget %llu%%, seed %llu, serial\n",
               benchmarks.size(), policies.size(),
               static_cast<unsigned long long>(kBudgetPct),
               static_cast<unsigned long long>(kSeed));

  CampaignResults res;
  const double wall_seconds = bench::time_seconds(
      [&] { res = run_campaign(base, benchmarks, policies, kBudgetPct); });
  std::uint64_t simulated_cycles = 0;
  for (const auto& row : res.results) {
    for (const SimResult& r : row) simulated_cycles += r.total_cycles;
  }
  const double cps =
      wall_seconds > 0.0 ? static_cast<double>(simulated_cycles) / wall_seconds
                         : 0.0;

  std::printf("campaign runs          : %zu\n",
              benchmarks.size() * policies.size());
  std::printf("wall seconds           : %.3f\n", wall_seconds);
  std::printf("simulated cycles       : %llu\n",
              static_cast<unsigned long long>(simulated_cycles));
  std::printf("simulated cycles / sec : %.0f\n", cps);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"schema\": \"rlftnoc-bench-campaign-v1\",\n"
      << "  \"seed\": " << kSeed << ",\n"
      << "  \"budget_pct\": " << kBudgetPct << ",\n"
      << "  \"runs\": " << benchmarks.size() * policies.size() << ",\n"
      << "  \"wall_seconds\": " << wall_seconds << ",\n"
      << "  \"simulated_cycles\": " << simulated_cycles << ",\n"
      << "  \"cycles_per_second\": " << cps << "\n"
      << "}\n";
  std::fprintf(stderr, "[bench_campaign] wrote %s\n", out_path.c_str());
  return 0;
}
