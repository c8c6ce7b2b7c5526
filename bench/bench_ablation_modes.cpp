// E8 — ablation of the four operation modes (the design choice behind
// Section III): every router forced into one mode, swept across link error
// probabilities, reporting latency / fault retransmissions / energy per
// flit. This regenerates the crossover table that calibrates the oracle /
// DT thresholds (ErrorLevelThresholds).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"

using namespace rlftnoc;

namespace {

struct Cell {
  double latency;
  std::uint64_t fault_retx;
  std::uint64_t dups;
  double energy_per_flit_pj;
};

Cell run(OpMode mode, double p_error, double injection_rate) {
  bench::ForcedModeRun run;
  run.mode = mode;
  run.p_error = p_error;
  run.traffic.injection_rate = injection_rate;
  run.traffic.total_packets = 3000;
  run.traffic_seed = 7;
  // 600K-cycle guard: saturated cells (mode 0 at high p) report truncated
  // latencies, which is enough to show the collapse without a 10x runtime.
  run.max_cycles = 600'000;
  const bench::ForcedModeResult r = bench::run_forced_mode(run);
  const NetworkMetrics& m = r.metrics;
  Cell cell;
  cell.latency = m.packet_latency.mean();
  cell.fault_retx = m.retx_flits_e2e + m.retx_flits_hop;
  cell.dups = m.dup_flits;
  cell.energy_per_flit_pj =
      m.flits_delivered
          ? r.dynamic_energy_pj / static_cast<double>(m.flits_delivered)
          : 0.0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const double rate = argc > 1 ? std::atof(argv[1]) : 0.06;
  std::printf("== E8: forced-mode sweep (8x8 mesh, uniform %.2f flits/node/cyc) ==\n",
              rate);
  std::printf("%-8s", "p_err");
  for (int m = 0; m < 4; ++m)
    std::printf("      mode%d lat/retx/E", m);
  std::printf("\n");
  const std::vector<double> probs = {0.001, 0.005, 0.012, 0.03,
                                     0.06,  0.12,  0.25,  0.35};
  std::vector<int> best_per_p;
  for (const double p : probs) {
    std::printf("%-8.3f", p);
    double best = 1e300;
    int best_mode = 0;
    for (int m = 0; m < 4; ++m) {
      const Cell c = run(static_cast<OpMode>(m), p, rate);
      // The controller's objective: latency x energy-per-flit.
      const double objective = c.latency * c.energy_per_flit_pj;
      if (objective < best) {
        best = objective;
        best_mode = m;
      }
      std::printf("  %7.1f/%6llu/%4.1f", c.latency,
                  static_cast<unsigned long long>(c.fault_retx),
                  c.energy_per_flit_pj);
    }
    best_per_p.push_back(best_mode);
    std::printf("   -> best: mode%d\n", best_mode);
  }

  std::printf("\noptimal mode escalates with error probability:");
  bool monotone = true;
  for (std::size_t i = 1; i < best_per_p.size(); ++i) {
    if (best_per_p[i] < best_per_p[i - 1]) monotone = false;
  }
  std::printf(" %s\n", monotone ? "yes" : "NO (see table)");
  return 0;
}
