// E1-E6 — Table II, then Figs. 6-10 as views of one cached campaign
// (8 PARSEC-like benchmarks x CRC, ARQ+ECC, DT, RL), each normalized to the
// CRC baseline next to the paper's value. Fig. 6 counts fault-caused
// re-sends only (end-to-end plus NACK-triggered link resends); mode-2
// duplicates are deliberate traffic, listed apart. Fig. 7's speed-ups are
// compressed because our traces replay open-loop (EXPERIMENTS.md deviation
// 1a). The exit status is non-zero if a Table II headline parameter drifts.
#include <array>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.h"

using namespace rlftnoc;
using namespace rlftnoc::bench;

namespace {

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

/// Prints one parameter row; returns 1 if a must-match row drifted.
int param_row(const char* name, const std::string& paper, const std::string& ours,
              bool must_match = true) {
  const bool ok = !must_match || paper == ours;
  std::printf("%-28s %-28s %-28s %s\n", name, paper.c_str(), ours.c_str(),
              ok ? "" : "<-- MISMATCH");
  return ok ? 0 : 1;
}

/// Prints Table II; returns the number of drifted headline parameters.
int print_table2() {
  const SimOptions opt;  // defaults = the campaign configuration

  std::printf("== Table II: simulation parameters ==\n");
  std::printf("%-28s %-28s %-28s\n", "parameter", "paper", "this build");
  std::printf("%.88s\n",
              "----------------------------------------------------------------"
              "------------------------------");

  int failures = 0;
  failures += param_row("# of cores", "64 out-of-order",
                        std::to_string(opt.noc.num_nodes()) + " (traffic endpoints)",
                        false);
  failures += param_row("technology", "32 nm", "32 nm (ORION-lite coefficients)", false);
  failures += param_row("voltage", "1.0 V",
                        std::to_string(opt.controller.voltage).substr(0, 3) + " V");
  failures += param_row("frequency", "2.0 GHz",
                        std::to_string(opt.power.clock_hz / 1e9).substr(0, 3) + " GHz");
  failures += param_row("topology", "8x8 2D mesh",
                        std::to_string(opt.noc.mesh_width) + "x" +
                            std::to_string(opt.noc.mesh_height) + " 2D mesh");
  failures += param_row("routing", "X-Y", "X-Y (dimension ordered)", false);
  failures += param_row("router pipeline", "4-stage",
                        "RC/VA/SA+ST + link (see DESIGN.md)", false);
  failures += param_row("VCs per port", "4", std::to_string(opt.noc.vcs_per_port));
  failures += param_row("flit size", "128 bits", std::to_string(BitVec128::kBits) + " bits");
  failures += param_row("packet size", "4 flits",
                        std::to_string(opt.noc.flits_per_packet) + " flits");
  failures += param_row("RL time-step", "1000 cycles",
                        std::to_string(opt.controller.step_cycles) + " cycles");
  failures += param_row("RL alpha", "0.1", std::to_string(opt.rl.alpha).substr(0, 3));
  failures += param_row("RL epsilon", "0.1", std::to_string(opt.rl.epsilon).substr(0, 3));
  failures += param_row("pre-training", "1M cycles",
                        std::to_string(opt.pretrain_cycles) + " cycles (--full: 1M)",
                        false);
  failures += param_row("warm-up", "300K cycles",
                        std::to_string(opt.warmup_cycles) + " cycles (--full: 300K)",
                        false);
  failures += param_row(
      "temperature band", "50-100 C",
      "ambient " + std::to_string(static_cast<int>(opt.thermal.ambient_c)) +
          " C, throttle " + std::to_string(static_cast<int>(opt.thermal.max_temp_c)) +
          " C",
      false);

  if (failures != 0) {
    std::printf("\n%d headline parameter(s) drifted from Table II\n", failures);
  } else {
    std::printf("\nall checked parameters match Table II\n");
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Figs. 6-10
// ---------------------------------------------------------------------------

double fault_retransmissions(const SimResult& r) {
  return static_cast<double>(r.retx_flits_e2e + r.retx_flits_hop);
}

/// Geometric mean of metric(policy column) / metric(CRC column) over all
/// benchmarks — the "average normalized bar" of a figure.
double normalized_geomean(const CampaignResults& campaign, const MetricFn& metric,
                          std::size_t policy_column) {
  double log_sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t b = 0; b < campaign.benchmarks.size(); ++b) {
    const double base = metric(campaign.at(b, 0));
    const double val = metric(campaign.at(b, policy_column));
    if (base <= 0.0 || val <= 0.0) continue;
    log_sum += std::log(val / base);
    ++counted;
  }
  return counted ? std::exp(log_sum / static_cast<double>(counted)) : 0.0;
}

/// A "benchmark" header plus one row per benchmark; `cell` prints the
/// (benchmark, policy) entry.
template <typename Cell>
void print_grid(const CampaignResults& c, int width, Cell cell) {
  std::printf("%-14s", "benchmark");
  for (const PolicyKind p : c.policies) std::printf("%*s", width, policy_name(p));
  std::printf("\n");
  for (std::size_t b = 0; b < c.benchmarks.size(); ++b) {
    std::printf("%-14s", c.benchmarks[b].c_str());
    for (std::size_t p = 0; p < c.policies.size(); ++p) cell(c.at(b, 0), c.at(b, p));
    std::printf("\n");
  }
}

void print_dup_flits(const CampaignResults& c) {
  std::printf("\n%-14s", "dup flits:");
  for (const PolicyKind p : c.policies) std::printf("%10s", policy_name(p));
  std::printf("\n%-14s", "(total)");
  for (std::size_t p = 0; p < c.policies.size(); ++p) {
    std::uint64_t dups = 0;
    for (std::size_t b = 0; b < c.benchmarks.size(); ++b) dups += c.at(b, p).dup_flits;
    std::printf("%10llu", static_cast<unsigned long long>(dups));
  }
  std::printf("\n\n");
}

void print_speedups(const CampaignResults& c) {
  print_grid(c, 10, [](const SimResult& crc, const SimResult& r) {
    const double cyc = static_cast<double>(r.execution_cycles);
    std::printf("%10.3f",
                cyc > 0.0 ? static_cast<double>(crc.execution_cycles) / cyc : 0.0);
  });
}

void print_latencies(const CampaignResults& c) {
  std::printf("\nabsolute latencies (cycles):\n");
  print_grid(c, 10, [](const SimResult&, const SimResult& r) {
    std::printf("%10.1f", r.avg_packet_latency);
  });
  std::printf("\n");
}

void print_efficiencies(const CampaignResults& c) {
  std::printf("\nabsolute efficiency (flits/nJ) and energy split (uJ):\n");
  print_grid(c, 18, [](const SimResult&, const SimResult& r) {
    std::printf("  %5.2f (%4.1f+%4.1f)", r.energy_efficiency,
                r.dynamic_energy_pj * 1e-6, r.leakage_energy_pj * 1e-6);
  });
  std::printf("\n");
}

void print_dynamic_powers(const CampaignResults& c) {
  std::printf("\nabsolute network dynamic power (W):\n");
  print_grid(c, 10, [](const SimResult&, const SimResult& r) {
    std::printf("%10.3f", r.avg_dynamic_power_w);
  });
  std::printf("\n");
}

enum class Direction {
  kLowerIsBetter,
  kHigherIsBetter,
  /// The metric is a time; the figure plots its inverse, the speed-up.
  kSpeedup,
};

struct Figure {
  int number;
  const char* banner;
  /// Title of the normalized per-benchmark table (none for the speed-up
  /// figure, whose absolute columns are already ratios).
  const char* table_title;
  double (*metric)(const SimResult&);
  Direction direction;
  std::array<double, 3> paper;  ///< ARQ+ECC, DT, RL
  const char* summary;          ///< "paper-vs-measured" label suffix
  void (*print_absolute)(const CampaignResults&);
};

const Figure kFigures[] = {
    {6, "retransmission traffic caused by faults", "fault-caused retransmitted flits",
     fault_retransmissions, Direction::kLowerIsBetter, {0.67, 0.60, 0.52},
     "retx (norm. to CRC)", print_dup_flits},
    {7, "execution-time speed-up over CRC", nullptr, metric_exec_speedup_inverse,
     Direction::kSpeedup, {1.15, 1.15, 1.25}, "speed-up vs CRC", print_speedups},
    {8, "average end-to-end packet latency", "avg end-to-end latency", metric_latency,
     Direction::kLowerIsBetter, {0.70, 0.50, 0.45}, "latency (norm. to CRC)",
     print_latencies},
    {9, "energy efficiency (delivered flits per energy)", "energy efficiency",
     metric_energy_efficiency, Direction::kHigherIsBetter, {1.25, 1.49, 1.64},
     "efficiency (norm. to CRC)", print_efficiencies},
    {10, "dynamic power consumption", "dynamic power", metric_dynamic_power,
     Direction::kLowerIsBetter, {0.75, 0.65, 0.54}, "dyn power (norm. to CRC)",
     print_dynamic_powers},
};

double paper_value(const Figure& f, PolicyKind p) {
  if (p == PolicyKind::kStaticArqEcc) return f.paper[0];
  if (p == PolicyKind::kRl) return f.paper[2];
  return f.paper[1];
}

void print_figure(const CampaignResults& campaign, const Figure& f) {
  std::printf("== Fig. %d: %s ==\n", f.number, f.banner);
  if (f.table_title != nullptr) {
    print_normalized_table(std::cout, campaign, f.table_title, f.metric,
                           f.direction == Direction::kHigherIsBetter);
  }
  f.print_absolute(campaign);
  for (std::size_t p = 1; p < campaign.policies.size(); ++p) {
    const double g = normalized_geomean(campaign, f.metric, p);
    const std::string label = "Fig" + std::to_string(f.number) + " " +
                              policy_name(campaign.policies[p]) + " " + f.summary;
    std::printf("paper-vs-measured  %-34s paper=%6.2f  measured=%6.2f\n",
                label.c_str(), paper_value(f, campaign.policies[p]),
                f.direction == Direction::kSpeedup ? 1.0 / g : g);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_args(argc, argv);
  const int drifted = print_table2();
  const CampaignResults campaign = load_or_run_campaign(args);
  for (const Figure& f : kFigures) print_figure(campaign, f);
  return drifted == 0 ? 0 : 1;
}
