// E10 — classic NoC load-latency curves: average latency vs offered load
// for the synthetic patterns, per operation mode, fault-free and faulty.
// A sanity check that the substrate behaves like a real mesh (flat latency
// until the knee, then divergence; mode 3's knee at ~1/3 the load).
#include <cstdio>
#include <vector>

#include "bench_common.h"

using namespace rlftnoc;

namespace {

/// Prints one point's average latency over a 25K-cycle window after a 5K
/// warm-up, or `sat` if the NIs refused a packet or delivered none.
void print_point(TrafficPattern pattern, double rate, OpMode mode,
                 double p_err) {
  bench::ForcedModeRun run;
  run.mode = mode;
  run.p_error = p_err;
  run.traffic.pattern = pattern;
  run.traffic.injection_rate = rate;
  run.traffic.total_packets = 0;  // open loop; measure over a fixed window
  run.traffic_seed = 3;
  run.warmup = 5000;
  run.max_cycles = 5000 + 25000;
  const bench::ForcedModeResult r = bench::run_forced_mode(run);
  if (r.rejected > 0 || r.metrics.packet_latency.count() == 0) {
    std::printf("%10s", "sat");
  } else {
    std::printf("%10.1f", r.metrics.packet_latency.mean());
  }
}

}  // namespace

int main() {
  const std::vector<double> loads = {0.02, 0.05, 0.10, 0.15, 0.20, 0.28};

  std::printf("== E10: load-latency curves (8x8 mesh, fault-free) ==\n");
  for (const TrafficPattern pat :
       {TrafficPattern::kUniform, TrafficPattern::kTranspose,
        TrafficPattern::kHotspot}) {
    std::printf("%-14s", spelling(pat));
    for (const double load : loads) print_point(pat, load, OpMode::kMode0, 0.0);
    std::printf("   (load: 0.02..0.28 flits/node/cyc)\n");
  }

  std::printf("\nuniform traffic per mode (p_err = 0.01):\n");
  for (int m = 0; m < 4; ++m) {
    std::printf("mode%-10d", m);
    for (const double load : loads)
      print_point(TrafficPattern::kUniform, load, static_cast<OpMode>(m), 0.01);
    std::printf("\n");
  }
  std::printf("\nexpected shape: flat latency until the knee; mode 3 saturates"
              " at roughly 1/3 the mode-0/1 load.\n");
  return 0;
}
