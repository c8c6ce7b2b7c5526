#include <gtest/gtest.h>

#include "ftnoc/dt_policy.h"
#include "ftnoc/policy.h"
#include "ftnoc/rl_policy.h"

namespace rlftnoc {
namespace {

FeatureSnapshot snapshot_with(double temp, double error_prob) {
  FeatureSnapshot s;
  s.temperature_c = temp;
  s.true_error_prob = error_prob;
  return s;
}

TEST(StaticPolicy, AlwaysReturnsItsMode) {
  StaticPolicy crc(OpMode::kMode0);
  StaticPolicy arq(OpMode::kMode1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(crc.decide(i, snapshot_with(90.0, 0.5), 0.1), OpMode::kMode0);
    EXPECT_EQ(arq.decide(i, snapshot_with(50.0, 0.0), 0.9), OpMode::kMode1);
  }
  EXPECT_STREQ(crc.name(), "CRC");
  EXPECT_STREQ(arq.name(), "ARQ+ECC");
  EXPECT_FALSE(crc.control_energy_event().has_value());
}

TEST(OraclePolicy, FollowsTrueErrorLevel) {
  const ErrorLevelThresholds t;
  OraclePolicy o(t);
  EXPECT_EQ(o.decide(0, snapshot_with(50, t.low / 2), 0), OpMode::kMode0);
  EXPECT_EQ(o.decide(0, snapshot_with(50, t.low * 2), 0), OpMode::kMode1);
  EXPECT_EQ(o.decide(0, snapshot_with(50, t.medium * 1.1), 0), OpMode::kMode2);
  EXPECT_EQ(o.decide(0, snapshot_with(50, t.high * 2), 0), OpMode::kMode3);
}

TEST(DtPolicy, ActsLikeOracleDuringPretrain) {
  DtPolicy dt;
  const ErrorLevelThresholds t;
  dt.begin_phase(SimPhase::kPretrain);
  EXPECT_EQ(dt.decide(0, snapshot_with(55, t.low / 2), 0), OpMode::kMode0);
  EXPECT_EQ(dt.decide(0, snapshot_with(95, t.medium * 1.1), 0), OpMode::kMode2);
  EXPECT_EQ(dt.collected_samples(), 2u);
}

TEST(DtPolicy, TrainsAtEndOfPretrainAndFreezes) {
  DtPolicy dt;
  dt.begin_phase(SimPhase::kPretrain);
  const ErrorLevelThresholds t;
  // Temperature is the separating feature: hot <-> level 1, cool <-> level 0.
  for (int i = 0; i < 300; ++i) {
    dt.decide(0, snapshot_with(55.0 + (i % 5), t.low / 2), 0);
    dt.decide(0, snapshot_with(92.0 + (i % 5), t.low * 3), 0);
  }
  dt.begin_phase(SimPhase::kWarmup);
  EXPECT_TRUE(dt.tree().trained());
  EXPECT_GT(dt.training_accuracy(), 0.95);
  EXPECT_EQ(dt.collected_samples(), 0u);  // cleared after training

  // At test time the ground truth is hidden: predictions come from the
  // observable features only.
  EXPECT_EQ(dt.decide(0, snapshot_with(56.0, /*truth ignored*/ 1.0), 0),
            OpMode::kMode0);
  EXPECT_EQ(dt.decide(0, snapshot_with(93.0, /*truth ignored*/ 0.0), 0),
            OpMode::kMode1);
}

TEST(DtPolicy, UntrainedFallsBackToMode1) {
  DtPolicy dt;
  dt.begin_phase(SimPhase::kMeasure);
  EXPECT_EQ(dt.decide(0, snapshot_with(70, 0.5), 0), OpMode::kMode1);
}

TEST(DtPolicy, ReportsControlEnergy) {
  DtPolicy dt;
  ASSERT_TRUE(dt.control_energy_event().has_value());
  EXPECT_EQ(*dt.control_energy_event(), PowerEvent::kDtInference);
}

TEST(RlPolicy, SharedTableSeesAllRouters) {
  QLearningParams p;
  RlPolicy rl(8, p, 1, false, /*shared_table=*/true);
  const FeatureSnapshot s = snapshot_with(80, 0.01);
  for (NodeId r = 0; r < 8; ++r) rl.decide(r, s, 0.5);
  for (NodeId r = 0; r < 8; ++r) rl.decide(r, s, 0.5);  // triggers updates
  EXPECT_GE(rl.total_table_entries(), 1u);
  // Shared: agent(0) and agent(7) are the same table.
  EXPECT_EQ(&rl.agent(0), &rl.agent(7));
}

TEST(RlPolicy, PerRouterTablesAreIndependent) {
  QLearningParams p;
  RlPolicy rl(4, p, 1, false, /*shared_table=*/false);
  EXPECT_NE(&rl.agent(0), &rl.agent(3));
  const FeatureSnapshot s = snapshot_with(80, 0.01);
  rl.decide(0, s, 0.5);
  rl.decide(0, s, 0.5);
  EXPECT_GE(rl.agent(0).table().size(), 1u);
  EXPECT_EQ(rl.agent(3).table().size(), 0u);
}

TEST(RlPolicy, FreezeStopsUpdates) {
  QLearningParams p;
  RlPolicy rl(1, p, 1);
  rl.set_freeze_on_measure(true);
  const FeatureSnapshot s = snapshot_with(75, 0.01);
  rl.begin_phase(SimPhase::kPretrain);
  rl.decide(0, s, 1.0);
  rl.decide(0, s, 1.0);
  const std::size_t entries = rl.total_table_entries();
  rl.begin_phase(SimPhase::kMeasure);
  FeatureSnapshot other = snapshot_with(99.0, 0.2);
  other.buffer_util = 0.9;
  for (int i = 0; i < 20; ++i) rl.decide(0, other, 1.0);
  // Frozen: no new rows were created by the unseen state.
  EXPECT_EQ(rl.total_table_entries(), entries);
}

TEST(RlPolicy, PretrainEpsilonHigherThanMeasure) {
  QLearningParams p;
  p.epsilon = 0.1;
  RlPolicy rl(1, p, 1);
  rl.begin_phase(SimPhase::kPretrain);
  EXPECT_DOUBLE_EQ(rl.agent(0).params().epsilon, 0.25);
  rl.begin_phase(SimPhase::kWarmup);
  EXPECT_DOUBLE_EQ(rl.agent(0).params().epsilon, 0.1);
}

TEST(RlPolicy, LearnsRewardingActionInFixedState) {
  // Drill: one recurring state where mode 1 always pays the most. The
  // reward delivered at step t applies to the action chosen at step t-1.
  QLearningParams p;
  p.gamma = 0.0;
  p.optimistic_init = 2.0;
  p.confidence_penalty = 0.0;
  p.action_cost_prior = 0.0;
  RlPolicy rl(1, p, 3);
  const FeatureSnapshot s = snapshot_with(95.0, 0.05);
  OpMode last = OpMode::kMode0;
  for (int i = 0; i < 300; ++i) {
    const double reward = last == OpMode::kMode1 ? 1.0 : 0.2;
    last = rl.decide(0, s, reward);
  }
  rl.begin_phase(SimPhase::kMeasure);
  DiscreteState d;
  s.discretize_into(d);
  EXPECT_EQ(rl.agent(0).greedy_action(d), 1);
}

}  // namespace
}  // namespace rlftnoc
