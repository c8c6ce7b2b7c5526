#include "bench_common.h"

#include <gtest/gtest.h>

namespace rlftnoc::bench {
namespace {

ForcedModeRun small_run(TrafficPattern pattern, double rate,
                        std::uint64_t packets) {
  ForcedModeRun run;
  run.noc.mesh_width = 4;
  run.noc.mesh_height = 4;
  run.traffic.pattern = pattern;
  run.traffic.injection_rate = rate;
  run.traffic.total_packets = packets;
  run.traffic_seed = 5;
  run.max_cycles = 200'000;
  return run;
}

TEST(BenchDriver, FullNiQueueRejectsAreCounted) {
  ForcedModeRun run = small_run(TrafficPattern::kHotspot, 0.6, 2000);
  run.noc.ni_queue_limit = 2;
  const ForcedModeResult r = run_forced_mode(run);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.offered, 2000u);
  // Every accepted packet is injected and, fault-free, delivered.
  EXPECT_EQ(r.metrics.packets_injected, r.metrics.packets_delivered);
  EXPECT_EQ(r.offered, r.metrics.packets_delivered + r.rejected);
  EXPECT_GT(r.dynamic_energy_pj, 0.0);
}

TEST(BenchDriver, LowLoadRunDrainsWithoutRejects) {
  ForcedModeRun run = small_run(TrafficPattern::kUniform, 0.02, 500);
  const ForcedModeResult r = run_forced_mode(run);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.offered, 500u);
  EXPECT_EQ(r.metrics.packets_delivered, 500u);
  EXPECT_LT(r.metrics.last_delivery_cycle, run.max_cycles);

  // Metrics restart at the warm-up cycle; the offered count does not.
  run.warmup = 2000;
  const ForcedModeResult warm = run_forced_mode(run);
  EXPECT_EQ(warm.offered, 500u);
  EXPECT_GT(warm.metrics.packets_delivered, 0u);
  EXPECT_LT(warm.metrics.packets_delivered, 500u);
}

}  // namespace
}  // namespace rlftnoc::bench
