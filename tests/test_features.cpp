#include "ftnoc/features.h"

#include <gtest/gtest.h>

namespace rlftnoc {
namespace {

FeatureSnapshot sample_snapshot() {
  FeatureSnapshot s;
  s.buffer_util = 0.35;
  s.in_link_util = {0.05, 0.10, 0.15, 0.20, 0.02};
  s.out_link_util = {0.06, 0.12, 0.18, 0.24, 0.01};
  s.in_nack_rate = {0.0, 0.001, 0.01, 0.1, 0.0};
  s.out_nack_rate = {0.0, 0.0, 0.005, 0.05, 0.0};
  s.temperature_c = 83.0;
  return s;
}

DiscreteState binned(const FeatureSnapshot& s, bool per_port = false) {
  DiscreteState d;
  s.discretize_into(d, per_port);
  return d;
}

TEST(Features, VectorSizes) {
  const FeatureSnapshot s = sample_snapshot();
  EXPECT_EQ(s.to_vector(false).size(),
            static_cast<std::size_t>(FeatureSnapshot::kNumFeaturesAggregated));
  EXPECT_EQ(s.to_vector(true).size(),
            static_cast<std::size_t>(FeatureSnapshot::kNumFeaturesPerPort));
  EXPECT_EQ(binned(s, false).size(),
            static_cast<std::size_t>(FeatureSnapshot::kNumFeaturesAggregated));
  EXPECT_EQ(binned(s, true).size(),
            static_cast<std::size_t>(FeatureSnapshot::kNumFeaturesPerPort));
}

TEST(Features, AggregatedVectorContents) {
  const FeatureSnapshot s = sample_snapshot();
  const auto v = s.to_vector(false);
  EXPECT_DOUBLE_EQ(v[0], 0.35);
  EXPECT_NEAR(v[1], (0.05 + 0.10 + 0.15 + 0.20 + 0.02) / 5.0, 1e-12);  // mean in
  EXPECT_DOUBLE_EQ(v[2], 0.20);   // max in
  EXPECT_DOUBLE_EQ(v[4], 0.24);   // max out
  EXPECT_DOUBLE_EQ(v[5], 0.1);    // max in-nack
  EXPECT_DOUBLE_EQ(v[6], 0.05);   // max out-nack
  EXPECT_DOUBLE_EQ(v[7], 83.0);
}

TEST(Features, PerPortVectorOrdering) {
  const FeatureSnapshot s = sample_snapshot();
  const auto v = s.to_vector(true);
  EXPECT_DOUBLE_EQ(v[0], 0.35);
  EXPECT_DOUBLE_EQ(v[1], 0.05);                 // first in-util
  EXPECT_DOUBLE_EQ(v[6], 0.06);                 // first out-util
  EXPECT_DOUBLE_EQ(v[11], 0.0);                 // first in-nack
  EXPECT_DOUBLE_EQ(v[21], 83.0);                // temperature
}

TEST(Features, FillVectorMatchesToVectorBothLayouts) {
  // fill_vector is the allocation-free core to_vector wraps; the two must
  // agree element-for-element so migrating a caller can never change
  // downstream decisions (DT inference reads this exact layout).
  FeatureSnapshot s = sample_snapshot();
  s.out_link_dead = {0.0, 1.0, 0.0, 0.0, 1.0};
  for (const bool per_port : {false, true}) {
    const auto expect = s.to_vector(per_port);
    std::vector<double> got(
        static_cast<std::size_t>(FeatureSnapshot::num_features(per_port)),
        -1.0);
    EXPECT_EQ(s.fill_vector(got, per_port), expect.size());
    EXPECT_EQ(got, expect);
  }
}

TEST(Features, DiscretizeIntoReusesScratchAcrossLayouts) {
  FeatureSnapshot s = sample_snapshot();
  s.out_link_dead = {1.0, 0.0, 0.0, 1.0, 0.0};
  DiscreteState scratch;
  for (const bool per_port : {false, true}) {
    s.discretize_into(scratch, per_port);
    EXPECT_EQ(scratch, binned(s, per_port));
  }
  // Reuse with stale larger contents: clear-then-fill must leave exactly
  // the new layout, not a mix, in the storage the scratch already holds.
  const auto* storage = scratch.data();
  s.discretize_into(scratch, false);
  EXPECT_EQ(scratch, binned(s, false));
  EXPECT_EQ(scratch.data(), storage);
}

TEST(Features, DiscretizationBins) {
  FeatureSnapshot s = sample_snapshot();
  const DiscreteState d = binned(s, false);
  // buffer 0.35 in [0,1)/5 -> bin 1
  EXPECT_EQ(d[0], 1);
  // temp 83 in [50,100]/5 -> bin 3
  EXPECT_EQ(d[7], 3);
  // max in-util 0.20 in [0,0.3]/5 -> bin 3
  EXPECT_EQ(d[2], 3);
}

TEST(Features, TemperatureBinSweep) {
  // Temperature is the 8th aggregated feature (index 7); the dead-link
  // count now sits behind it.
  FeatureSnapshot s;
  s.temperature_c = 49.0;
  EXPECT_EQ(binned(s)[7], 0);
  s.temperature_c = 65.0;
  EXPECT_EQ(binned(s)[7], 1);
  s.temperature_c = 75.0;
  EXPECT_EQ(binned(s)[7], 2);
  s.temperature_c = 85.0;
  EXPECT_EQ(binned(s)[7], 3);
  s.temperature_c = 99.0;
  EXPECT_EQ(binned(s)[7], 4);
  s.temperature_c = 140.0;
  EXPECT_EQ(binned(s)[7], 4);
}

TEST(Features, DeadLinkFeature) {
  FeatureSnapshot s = sample_snapshot();
  // Fault-free: the dead-link feature is exactly zero in both layouts.
  EXPECT_DOUBLE_EQ(s.to_vector(false).back(), 0.0);
  EXPECT_EQ(binned(s, false).back(), 0);
  EXPECT_EQ(binned(s, true).back(), 0);

  s.out_link_dead[port_index(Port::kEast)] = 1.0;
  s.out_link_dead[port_index(Port::kNorth)] = 1.0;
  EXPECT_DOUBLE_EQ(s.to_vector(false).back(), 2.0 / 5.0);  // dead fraction
  EXPECT_EQ(binned(s, false).back(), 2);                // dead count
  const DiscreteState per_port = binned(s, true);
  EXPECT_EQ(per_port[22 + static_cast<int>(port_index(Port::kEast))], 1);
  EXPECT_EQ(per_port[22 + static_cast<int>(port_index(Port::kWest))], 0);
}

TEST(Features, IdenticalSnapshotsDiscretizeEqually) {
  const FeatureSnapshot a = sample_snapshot();
  const FeatureSnapshot b = sample_snapshot();
  EXPECT_EQ(binned(a, false), binned(b, false));
  EXPECT_EQ(binned(a, true), binned(b, true));
}

TEST(Features, SmallPerturbationWithinBinKeepsState) {
  FeatureSnapshot a = sample_snapshot();
  FeatureSnapshot b = a;
  b.temperature_c += 0.5;
  b.buffer_util += 0.01;
  EXPECT_EQ(binned(a), binned(b));
}

TEST(Thresholds, ClassifyBands) {
  const ErrorLevelThresholds t;
  EXPECT_EQ(t.classify(0.0), OpMode::kMode0);
  EXPECT_EQ(t.classify(t.low / 2), OpMode::kMode0);
  EXPECT_EQ(t.classify(t.low * 1.01), OpMode::kMode1);
  EXPECT_EQ(t.classify(t.medium * 1.01), OpMode::kMode2);
  EXPECT_EQ(t.classify(t.high * 1.01), OpMode::kMode3);
  EXPECT_EQ(t.classify(1.0), OpMode::kMode3);
}

TEST(Thresholds, OrderingInvariant) {
  const ErrorLevelThresholds t;
  EXPECT_LT(t.low, t.medium);
  EXPECT_LT(t.medium, t.high);
}

}  // namespace
}  // namespace rlftnoc
