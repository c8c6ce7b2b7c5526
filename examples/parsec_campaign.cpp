// Campaign example: run a subset of the PARSEC-like suite across all four
// policies and print every figure's normalized table in one go.
//
//   ./parsec_campaign [--scale=N] [--jobs=N] [bench1 bench2 ...]
//
// Default: three representative benchmarks (light / medium / heavy) at 25%
// packet budget, so it finishes in a few minutes. See bench/ for the full
// per-figure harnesses.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "sim/campaign.h"

using namespace rlftnoc;

int main(int argc, char** argv) {
  std::uint64_t scale = 25;
  unsigned jobs = 1;
  std::vector<std::string> benchmarks;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--scale=", 0) == 0) {
      scale = std::strtoull(a.c_str() + 8, nullptr, 10);
    } else if (a.rfind("--jobs=", 0) == 0) {
      jobs = static_cast<unsigned>(std::strtoul(a.c_str() + 7, nullptr, 10));
    } else {
      benchmarks.push_back(a);
    }
  }
  if (benchmarks.empty()) benchmarks = {"blackscholes", "ferret", "canneal"};

  SimOptions base;
  base.seed = 11;
  base.jobs = jobs;

  const std::vector<PolicyKind> policies = {
      PolicyKind::kStaticCrc, PolicyKind::kStaticArqEcc, PolicyKind::kDecisionTree,
      PolicyKind::kRl};

  const CampaignResults res = run_campaign(base, benchmarks, policies, scale);

  for (const PaperFigure& f : kPaperFigures) {
    print_normalized_table(std::cout, res,
                           "Fig. " + std::to_string(f.number) + ": " + f.title,
                           f.metric, f.higher_is_better());
  }

  std::printf("\nper-run detail:\n");
  for (std::size_t b = 0; b < res.benchmarks.size(); ++b) {
    for (std::size_t p = 0; p < res.policies.size(); ++p) {
      const SimResult& r = res.at(b, p);
      std::printf("  %-13s %-8s lat=%7.1f cyc  T=%3.0f/%3.0f C  "
                  "modes=[%.2f %.2f %.2f %.2f]%s\n",
                  r.workload.c_str(), r.policy.c_str(), r.avg_packet_latency,
                  r.avg_temperature_c, r.max_temperature_c, r.mode_fraction[0],
                  r.mode_fraction[1], r.mode_fraction[2], r.mode_fraction[3],
                  r.drained ? "" : "  [NOT DRAINED]");
    }
  }
  return 0;
}
