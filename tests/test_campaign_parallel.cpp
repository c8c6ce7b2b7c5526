// Determinism contract of the parallel campaign runner: any SimOptions::jobs
// value must produce bit-identical results, because each (benchmark, policy)
// job derives its own seed and writes into its own pre-sized slot.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "sim/campaign.h"
#include "sim/results_io.h"

namespace rlftnoc {
namespace {

SimOptions tiny_base() {
  SimOptions base;
  base.seed = 7;
  base.noc.mesh_width = 4;
  base.noc.mesh_height = 4;
  // Effective phase lengths are these times the 2% budget scale below.
  base.pretrain_cycles = 100000;
  base.warmup_cycles = 50000;
  return base;
}

const std::vector<std::string> kBenchmarks = {"swaptions", "blackscholes"};
const std::vector<PolicyKind> kPolicies = {PolicyKind::kStaticCrc,
                                           PolicyKind::kRl};
constexpr std::uint64_t kScalePct = 2;

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.execution_cycles, b.execution_cycles);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.avg_packet_latency, b.avg_packet_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.enqueue_drops, b.enqueue_drops);
  EXPECT_EQ(a.retransmitted_flits, b.retransmitted_flits);
  EXPECT_EQ(a.retx_flits_e2e, b.retx_flits_e2e);
  EXPECT_EQ(a.retx_flits_hop, b.retx_flits_hop);
  EXPECT_EQ(a.dup_flits, b.dup_flits);
  EXPECT_EQ(a.crc_packet_failures, b.crc_packet_failures);
  EXPECT_EQ(a.dynamic_energy_pj, b.dynamic_energy_pj);
  EXPECT_EQ(a.leakage_energy_pj, b.leakage_energy_pj);
  EXPECT_EQ(a.total_energy_pj, b.total_energy_pj);
  EXPECT_EQ(a.energy_efficiency, b.energy_efficiency);
  EXPECT_EQ(a.avg_dynamic_power_w, b.avg_dynamic_power_w);
  EXPECT_EQ(a.avg_total_power_w, b.avg_total_power_w);
  EXPECT_EQ(a.avg_temperature_c, b.avg_temperature_c);
  EXPECT_EQ(a.max_temperature_c, b.max_temperature_c);
  for (std::size_t m = 0; m < kNumOpModes; ++m)
    EXPECT_EQ(a.mode_fraction[m], b.mode_fraction[m]);
  EXPECT_EQ(a.rl_table_entries, b.rl_table_entries);
}

TEST(CampaignParallel, SeedDerivationIsPerConfigurationAndStable) {
  std::set<std::uint64_t> seeds;
  for (const std::string& bench : kBenchmarks) {
    for (const PolicyKind pol : kPolicies) {
      const std::uint64_t s = campaign_run_seed(7, bench, pol);
      EXPECT_EQ(s, 7 ^ fnv1a64(bench + "/" + policy_name(pol)));
      seeds.insert(s);
    }
  }
  // All four configurations draw from distinct streams.
  EXPECT_EQ(seeds.size(), kBenchmarks.size() * kPolicies.size());
}

TEST(CampaignParallel, FourJobsBitIdenticalToSerial) {
  SimOptions serial = tiny_base();
  serial.jobs = 1;
  const CampaignResults a =
      run_campaign(serial, kBenchmarks, kPolicies, kScalePct);
  ASSERT_EQ(a.results.size(), 2u);
  std::ostringstream tsv_a;
  write_results(tsv_a, a);

  // 0 = one job per hardware thread; 3 splits the 4-cell grid unevenly
  // (the caller plus two helpers); 4 gives every cell its own executor.
  for (const unsigned jobs : {0u, 3u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    SimOptions parallel = tiny_base();
    parallel.jobs = jobs;
    const CampaignResults b =
        run_campaign(parallel, kBenchmarks, kPolicies, kScalePct);

    ASSERT_EQ(b.results.size(), 2u);
    for (std::size_t bench = 0; bench < kBenchmarks.size(); ++bench) {
      ASSERT_EQ(a.results[bench].size(), kPolicies.size());
      ASSERT_EQ(b.results[bench].size(), kPolicies.size());
      for (std::size_t p = 0; p < kPolicies.size(); ++p) {
        SCOPED_TRACE(kBenchmarks[bench] + "/" + policy_name(kPolicies[p]));
        expect_identical(a.at(bench, p), b.at(bench, p));
        // Sanity: the runs actually simulated something.
        EXPECT_GT(a.at(bench, p).packets_delivered, 0u);
      }
    }

    // The acceptance-criterion form: the serialized TSVs are byte-identical.
    std::ostringstream tsv_b;
    write_results(tsv_b, b);
    EXPECT_EQ(tsv_a.str(), tsv_b.str());
  }
}

TEST(CampaignParallel, UnknownBenchmarkRethrowsInvalidArgument) {
  // One cell names no PARSEC profile: its run throws, the other cells still
  // run on the pool, and run_campaign rethrows the failure to the caller.
  SimOptions base = tiny_base();
  base.jobs = 4;
  EXPECT_THROW(run_campaign(base, {"swaptions", "no-such-benchmark"},
                            {PolicyKind::kStaticCrc, PolicyKind::kStaticArqEcc},
                            kScalePct),
               std::invalid_argument);
}

TEST(CampaignParallel, TinyBudgetStillInjectsAtLeastOnePacket) {
  // A 0% budget used to truncate total_packets to zero, producing an empty
  // measured phase whose row the normalized tables silently skip.
  SimOptions base = tiny_base();
  base.jobs = 2;
  const CampaignResults res = run_campaign(
      base, {"swaptions"}, {PolicyKind::kStaticCrc}, /*scale_pct=*/0);
  EXPECT_GE(res.at(0, 0).packets_injected, 1u);
  EXPECT_GE(res.at(0, 0).packets_delivered, 1u);
}

}  // namespace
}  // namespace rlftnoc
