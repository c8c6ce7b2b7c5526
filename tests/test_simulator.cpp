#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "traffic/parsec.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

/// Fast options: 4x4 mesh, short phases — enough to exercise every phase
/// transition without making the suite slow.
SimOptions fast_options(PolicyKind policy, std::uint64_t seed = 1) {
  SimOptions opt;
  opt.policy = policy;
  opt.seed = seed;
  opt.noc.mesh_width = 4;
  opt.noc.mesh_height = 4;
  opt.pretrain_cycles = 30000;
  opt.warmup_cycles = 2000;
  opt.max_measure_cycles = 400000;
  return opt;
}

SyntheticTraffic fast_workload(const SimOptions& opt, std::uint64_t packets = 4000) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.08;
  o.total_packets = packets;
  return SyntheticTraffic(MeshTopology(opt.noc), o, opt.seed);
}

/// Parameterized over all policy kinds: each runs end to end.
class SimulatorAllPolicies : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(SimulatorAllPolicies, RunsToCompletion) {
  const SimOptions opt = fast_options(GetParam());
  Simulator sim(opt);
  SyntheticTraffic gen = fast_workload(opt);
  const SimResult r = sim.run(gen);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.policy, std::string(policy_name(GetParam())));
  EXPECT_GT(r.packets_delivered, 0u);
  EXPECT_GT(r.avg_packet_latency, 5.0);
  EXPECT_LT(r.avg_packet_latency, 5000.0);
  EXPECT_GT(r.execution_cycles, 0u);
  EXPECT_GT(r.total_energy_pj, 0.0);
  EXPECT_GT(r.energy_efficiency, 0.0);
  EXPECT_GT(r.avg_dynamic_power_w, 0.0);
  EXPECT_GT(r.avg_temperature_c, 45.0);
  double mode_sum = 0.0;
  for (const double f : r.mode_fraction) mode_sum += f;
  EXPECT_NEAR(mode_sum, 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Policies, SimulatorAllPolicies,
                         ::testing::Values(PolicyKind::kStaticCrc,
                                           PolicyKind::kStaticArqEcc,
                                           PolicyKind::kDecisionTree,
                                           PolicyKind::kRl,
                                           PolicyKind::kOracle),
                         [](const auto& info) {
                           std::string n = policy_name(info.param);
                           for (char& c : n) {
                             if (c == '+') c = '_';
                           }
                           return n;
                         });

TEST(Simulator, StaticPoliciesHaveFixedModeFractions) {
  const SimOptions opt = fast_options(PolicyKind::kStaticArqEcc);
  Simulator sim(opt);
  SyntheticTraffic gen = fast_workload(opt);
  const SimResult r = sim.run(gen);
  EXPECT_NEAR(r.mode_fraction[1], 1.0, 1e-9);
}

TEST(Simulator, DeterministicForSameSeed) {
  auto run = [] {
    const SimOptions opt = fast_options(PolicyKind::kRl, 77);
    Simulator sim(opt);
    SyntheticTraffic gen = fast_workload(opt, 1500);
    return sim.run(gen);
  };
  const SimResult a = run();
  const SimResult b = run();
  EXPECT_EQ(a, b);
}

TEST(Simulator, SeedChangesOutcome) {
  auto run = [](std::uint64_t seed) {
    const SimOptions opt = fast_options(PolicyKind::kStaticCrc, seed);
    Simulator sim(opt);
    SyntheticTraffic gen = fast_workload(opt, 1500);
    return sim.run(gen).avg_packet_latency;
  };
  EXPECT_NE(run(1), run(2));
}

TEST(Simulator, StaticPoliciesSkipPretraining) {
  SimOptions opt = fast_options(PolicyKind::kStaticCrc);
  opt.pretrain_cycles = 1'000'000;  // would be very slow if not skipped
  Simulator sim(opt);
  SyntheticTraffic gen = fast_workload(opt, 500);
  const SimResult r = sim.run(gen);
  EXPECT_TRUE(r.drained);
  // The whole run (warmup + measure) stays far below the pretrain budget.
  EXPECT_LT(sim.network().now(), 500000u);
}

TEST(Simulator, RlReportsTableSize) {
  const SimOptions opt = fast_options(PolicyKind::kRl);
  Simulator sim(opt);
  SyntheticTraffic gen = fast_workload(opt);
  const SimResult r = sim.run(gen);
  EXPECT_GT(r.rl_table_entries, 0u);
}

TEST(Simulator, DtReportsTrainingAccuracy) {
  const SimOptions opt = fast_options(PolicyKind::kDecisionTree);
  Simulator sim(opt);
  SyntheticTraffic gen = fast_workload(opt);
  const SimResult r = sim.run(gen);
  EXPECT_GT(r.dt_training_accuracy, 0.5);
  EXPECT_LE(r.dt_training_accuracy, 1.0);
}

TEST(Simulator, CustomPolicyInjection) {
  // Any user-defined ControlPolicy slots in (the custom_policy example).
  class AlternatingPolicy final : public ControlPolicy {
   public:
    const char* name() const override { return "alternating"; }
    OpMode decide(NodeId router, const FeatureSnapshot&, double) override {
      return static_cast<OpMode>(router % 2);
    }
  };
  SimOptions opt = fast_options(PolicyKind::kStaticCrc);
  Simulator sim(opt, std::make_unique<AlternatingPolicy>());
  SyntheticTraffic gen = fast_workload(opt, 1200);
  const SimResult r = sim.run(gen);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.policy, "alternating");
  EXPECT_NEAR(r.mode_fraction[0], 0.5, 1e-9);
  EXPECT_NEAR(r.mode_fraction[1], 0.5, 1e-9);
}

TEST(Simulator, ErrorScaleZeroMeansNoRetransmissions) {
  SimOptions opt = fast_options(PolicyKind::kStaticCrc);
  opt.error_scale = 0.0;
  Simulator sim(opt);
  SyntheticTraffic gen = fast_workload(opt, 1500);
  const SimResult r = sim.run(gen);
  EXPECT_EQ(r.retransmitted_flits, 0u);
  EXPECT_EQ(r.crc_packet_failures, 0u);
}

TEST(Simulator, HigherErrorScaleHurtsCrcBaseline) {
  auto run = [](double scale) {
    SimOptions opt = fast_options(PolicyKind::kStaticCrc);
    opt.error_scale = scale;
    Simulator sim(opt);
    SyntheticTraffic gen = fast_workload(opt, 1500);
    return sim.run(gen);
  };
  const SimResult lo = run(0.2);
  const SimResult hi = run(3.0);
  EXPECT_GT(hi.retransmitted_flits, lo.retransmitted_flits);
  EXPECT_GT(hi.avg_packet_latency, lo.avg_packet_latency);
}

TEST(Simulator, ParsecWorkloadRuns) {
  SimOptions opt = fast_options(PolicyKind::kStaticArqEcc);
  ParsecProfile prof = parsec_profile("swaptions");
  prof.total_packets = 2000;
  Simulator sim(opt);
  ParsecTraffic gen(MeshTopology(opt.noc), prof, opt.seed);
  const SimResult r = sim.run(gen);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.workload, "swaptions");
  EXPECT_GT(r.packets_delivered, 1000u);
}

TEST(Simulator, PaperScaleSetterAdjustsPhases) {
  SimOptions opt;
  opt.use_paper_scale();
  EXPECT_EQ(opt.pretrain_cycles, 1'000'000u);
  EXPECT_EQ(opt.warmup_cycles, 300'000u);
}

}  // namespace
}  // namespace rlftnoc
