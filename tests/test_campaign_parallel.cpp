// Determinism contract of the parallel campaign runner: any SimOptions::jobs
// value must produce bit-identical results, because each (benchmark, policy)
// job derives its own seed and writes into its own pre-sized slot.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/campaign.h"
#include "sim/results_io.h"
#include "workload/replay.h"

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
        EXPECT_EQ(a.at(bench, p), b.at(bench, p));
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
  // One cell names no workload: its run throws, the other cells still
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

/// Packets a generator emits until exhausted (bounded, so a broken budget
/// fails instead of hanging).
std::uint64_t drain_packets(TrafficGenerator& gen) {
  std::vector<Packet> out;
  for (Cycle c = 0; c < 10'000'000 && !gen.exhausted(); ++c) gen.tick(c, out);
  return out.size();
}

TEST(WorkloadResolver, ZeroBudgetParsecStillEmitsOnePacket) {
  // A measured phase needs at least one packet, whatever the budget.
  const MeshTopology topo(tiny_base().noc);
  const auto gen = make_workload_traffic("canneal", topo, Config{}, 3, 0);
  EXPECT_EQ(gen->name(), "canneal");
  EXPECT_EQ(drain_packets(*gen), 1u);
}

TEST(WorkloadResolver, ResolvesEachKindAndDefaultsToUniform) {
  const MeshTopology topo(tiny_base().noc);
  const Config cfg = Config::from_string("packets = 25\nwl.layers = 3\n");
  const auto synthetic = make_workload_traffic("transpose", topo, cfg, 3, 100);
  EXPECT_EQ(synthetic->name(), "transpose");
  EXPECT_EQ(drain_packets(*synthetic), 25u);  // `packets` from wl_cfg
  EXPECT_EQ(make_workload_traffic("", topo, Config{}, 3, 100)->name(),
            kDefaultWorkload);
  const auto gen = make_workload_traffic("dnn", topo, cfg, 3, 100);
  EXPECT_NE(dynamic_cast<WorkloadReplayTraffic*>(gen.get()), nullptr);
  EXPECT_TRUE(cfg.unread_keys().empty());  // both kinds read their keys
  EXPECT_THROW(make_workload_traffic("no-such-workload", topo, Config{}, 3, 100),
               std::invalid_argument);
}

}  // namespace
}  // namespace rlftnoc
