#include "power/orion_lite.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>

namespace rlftnoc {
namespace {

TEST(Power, StartsEmpty) {
  PowerModel m(4);
  EXPECT_EQ(m.total_dynamic_energy_pj(), 0.0);
  EXPECT_EQ(m.total_leakage_energy_pj(), 0.0);
  EXPECT_EQ(m.window_dynamic_energy_pj(0), 0.0);
}

TEST(Power, InvalidRouterCountThrows) {
  EXPECT_THROW(PowerModel(0), std::invalid_argument);
}

TEST(Power, RecordAccumulatesEnergy) {
  PowerModel m(2);
  m.record(0, PowerEvent::kBufferWrite, 10);
  const double expected =
      10.0 * m.params().energy_pj[static_cast<std::size_t>(PowerEvent::kBufferWrite)];
  EXPECT_DOUBLE_EQ(m.total_dynamic_energy_pj(0), expected);
  EXPECT_DOUBLE_EQ(m.total_dynamic_energy_pj(1), 0.0);
  EXPECT_DOUBLE_EQ(m.total_dynamic_energy_pj(), expected);
}

TEST(Power, WindowResetKeepsTotals) {
  PowerModel m(1);
  m.record(0, PowerEvent::kCrossbar, 5);
  EXPECT_GT(m.window_dynamic_energy_pj(0), 0.0);
  m.reset_window(0);
  EXPECT_DOUBLE_EQ(m.window_dynamic_energy_pj(0), 0.0);
  EXPECT_GT(m.total_dynamic_energy_pj(0), 0.0);
}

TEST(Power, TotalsEqualTheSumOfWindowsAcrossResetsExactly) {
  // Events land in one window row; every reset_window folds it into the
  // totals. Totals must count exactly the events of all windows, folded or
  // still open, and price them as the same double a single running count
  // would give.
  PowerModel m(3);
  std::array<std::array<std::uint64_t, kNumPowerEvents>, 3> want{};
  const auto priced = [&m](const std::array<std::uint64_t, kNumPowerEvents>& c) {
    double pj = 0.0;
    for (std::size_t i = 0; i < kNumPowerEvents; ++i)
      pj += static_cast<double>(c[i]) * m.params().energy_pj[i];
    return pj;
  };
  std::uint64_t n = 1;
  for (int window = 0; window < 5; ++window) {
    for (int r = 0; r < 3; ++r) {
      for (std::size_t e = 0; e < kNumPowerEvents; e += 1 + (window + r) % 3) {
        n = n * 7 % 1000 + 1;
        m.record(r, static_cast<PowerEvent>(e), n);
        want[static_cast<std::size_t>(r)][e] += n;
      }
    }
    // Window 2 leaves router 1 open across the next window.
    for (int r = 0; r < 3; ++r)
      if (window != 2 || r != 1) m.reset_window(r);
    for (int r = 0; r < 3; ++r)
      EXPECT_EQ(m.total_dynamic_energy_pj(r), priced(want[static_cast<std::size_t>(r)]))
          << "router " << r << " after window " << window;
    for (std::size_t e = 0; e < kNumPowerEvents; ++e)
      EXPECT_EQ(m.total_event_count(static_cast<PowerEvent>(e)),
                want[0][e] + want[1][e] + want[2][e]);
    EXPECT_EQ(m.total_dynamic_energy_pj(),
              priced(want[0]) + priced(want[1]) + priced(want[2]));
  }
  m.reset_totals();
  EXPECT_EQ(m.total_dynamic_energy_pj(), 0.0);
  EXPECT_EQ(m.total_event_count(PowerEvent::kBufferWrite), 0u);
}

TEST(Power, ResetTotalsClearsEverything) {
  PowerModel m(1);
  m.record(0, PowerEvent::kLinkTraversal, 3);
  m.integrate_leakage(0, 80.0, 1000);
  m.reset_totals();
  EXPECT_DOUBLE_EQ(m.total_dynamic_energy_pj(), 0.0);
  EXPECT_DOUBLE_EQ(m.total_leakage_energy_pj(), 0.0);
  EXPECT_DOUBLE_EQ(m.window_dynamic_energy_pj(0), 0.0);
}

TEST(Power, WindowPowerConversion) {
  PowerModel m(1);
  m.record(0, PowerEvent::kLinkTraversal, 1000);
  // 1000 events over 1000 cycles at 2 GHz.
  const double pj = 1000.0 * m.params().energy_pj[static_cast<std::size_t>(
                                 PowerEvent::kLinkTraversal)];
  const double seconds = 1000.0 / m.params().clock_hz;
  EXPECT_NEAR(m.window_dynamic_power_w(0, 1000), pj * 1e-12 / seconds, 1e-9);
  EXPECT_EQ(m.window_dynamic_power_w(0, 0), 0.0);
}

TEST(Power, LeakageGrowsExponentiallyWithTemperature) {
  PowerModel m(1);
  const double at50 = m.leakage_watts(50.0);
  const double at80 = m.leakage_watts(80.0);
  const double at110 = m.leakage_watts(110.0);
  EXPECT_NEAR(at50, m.params().leak_w_at_ref, 1e-12);
  EXPECT_GT(at80, at50);
  // Constant ratio per 30 C step (exponential).
  EXPECT_NEAR(at110 / at80, at80 / at50, 1e-9);
}

TEST(Power, LeakageExponentClamped) {
  PowerModel m(1);
  EXPECT_DOUBLE_EQ(m.leakage_watts(150.0), m.leakage_watts(1000.0));
}

TEST(Power, LeakageIntegration) {
  PowerModel m(1);
  m.integrate_leakage(0, 50.0, 2'000'000'000ULL);  // exactly one second
  EXPECT_NEAR(m.total_leakage_energy_pj(0), m.params().leak_w_at_ref * 1e12, 1.0);
}

TEST(Power, EventCounting) {
  PowerModel m(3);
  m.record(0, PowerEvent::kEccEncode, 2);
  m.record(2, PowerEvent::kEccEncode, 3);
  m.record(1, PowerEvent::kEccDecode, 7);
  EXPECT_EQ(m.total_event_count(PowerEvent::kEccEncode), 5u);
  EXPECT_EQ(m.total_event_count(PowerEvent::kEccDecode), 7u);
  EXPECT_EQ(m.total_event_count(PowerEvent::kAckFlit), 0u);
}

TEST(Power, EventNamesAreDistinct) {
  for (std::size_t i = 0; i < kNumPowerEvents; ++i) {
    for (std::size_t j = i + 1; j < kNumPowerEvents; ++j) {
      EXPECT_STRNE(power_event_name(static_cast<PowerEvent>(i)),
                   power_event_name(static_cast<PowerEvent>(j)));
    }
  }
}

// Out-of-range router indices are an RLFTNOC_CHECK invariant violation (the
// record path runs per power event per cycle, so it uses unchecked indexing
// with the always-on invariant layer instead of throwing .at()).
#if RLFTNOC_CHECK_ENABLED
using PowerDeathTest = ::testing::Test;

TEST(PowerDeathTest, OutOfRangeRouterAborts) {
  PowerModel m(2);
  EXPECT_DEATH(m.record(5, PowerEvent::kCrossbar), "RLFTNOC_CHECK failed");
  EXPECT_DEATH(m.window_dynamic_energy_pj(-1), "RLFTNOC_CHECK failed");
}
#endif

TEST(Power, PerFlitHopCostCalibration) {
  // One hop of a flit: buffer write + read + arbitration + crossbar + link.
  // The sum must sit in the single-digit pJ range that makes the paper's
  // 13.3 pJ/flit router-energy (Section VI-B arithmetic) plausible over an
  // average ~2-hop journey.
  PowerParams p;
  const double hop =
      p.energy_pj[static_cast<std::size_t>(PowerEvent::kBufferWrite)] +
      p.energy_pj[static_cast<std::size_t>(PowerEvent::kBufferRead)] +
      p.energy_pj[static_cast<std::size_t>(PowerEvent::kArbitration)] +
      p.energy_pj[static_cast<std::size_t>(PowerEvent::kCrossbar)] +
      p.energy_pj[static_cast<std::size_t>(PowerEvent::kLinkTraversal)];
  EXPECT_GT(hop, 4.0);
  EXPECT_LT(hop, 10.0);
}

}  // namespace
}  // namespace rlftnoc
