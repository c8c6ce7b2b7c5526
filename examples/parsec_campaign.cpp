// Campaign example: run a subset of the PARSEC-like suite across all four
// policies and print every figure's normalized table in one go.
//
//   ./parsec_campaign [--scale=N] [--jobs=N] [bench1 bench2 ...]
//
// --scale is the packet budget in percent (>= 1); --jobs the runs in flight
// (0: one per hardware thread). A malformed value exits 2 with a message.
//
// Default: three representative benchmarks (light / medium / heavy) at 25%
// packet budget, so it finishes in a few minutes. See bench/ for the full
// per-figure harnesses.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/campaign.h"

using namespace rlftnoc;

namespace {
/// Parses all of `text` as a decimal count; false on an empty value, a sign,
/// trailing junk or overflow.
template <typename T>
bool parse_count(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}
}  // namespace

int main(int argc, char** argv) {
  std::uint64_t scale = 25;
  unsigned jobs = 1;
  std::vector<std::string> benchmarks;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.starts_with("--scale=")) {
      if (!parse_count(a.substr(8), scale) || scale == 0) {
        std::fprintf(stderr, "parsec_campaign: --scale wants a packet budget "
                             "percentage >= 1, got '%s'\n", argv[i] + 8);
        return 2;
      }
    } else if (a.starts_with("--jobs=")) {
      if (!parse_count(a.substr(7), jobs)) {
        std::fprintf(stderr, "parsec_campaign: --jobs wants a thread count "
                             "(0: one per hardware thread), got '%s'\n",
                     argv[i] + 7);
        return 2;
      }
    } else {
      benchmarks.emplace_back(a);
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
