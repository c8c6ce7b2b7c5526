// Per-router state features (Table I of the paper) and their discretization.
//
// Features 1-5 carry one value per port (5 directions); feature 6 is the
// local temperature. Continuous features are binned evenly: linear bins for
// utilizations and temperature (5 bins), log-space bins for the NACK rates
// (4 bins), following Section IV.B.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "rl/discretizer.h"
#include "rl/qtable.h"

namespace rlftnoc {

/// Snapshot of one router's observable state over one control time-step.
struct FeatureSnapshot {
  /// Feature 1: fraction of occupied input VCs (paper: count; normalized
  /// here so the binning is topology-independent).
  double buffer_util = 0.0;
  /// Features 2-3: flits/cycle per port over the window.
  std::array<double, kNumPorts> in_link_util{};
  std::array<double, kNumPorts> out_link_util{};
  /// Features 4-5: NACKs per transmitted / received flit, per port.
  std::array<double, kNumPorts> in_nack_rate{};   ///< NACKs received (we sent flits)
  std::array<double, kNumPorts> out_nack_rate{};  ///< NACKs sent (we received flits)
  /// Feature 6: local router temperature (C).
  double temperature_c = 50.0;
  /// Feature 7 (extension over Table I): 1.0 where the structural outgoing
  /// link exists but has been hard-faulted dead (see Topology::link_alive).
  /// All-zero in fault-free runs, so the learned state space is unchanged
  /// there.
  std::array<double, kNumPorts> out_link_dead{};

  /// Ground truth, NOT part of the observable feature vector: the highest
  /// per-flit error probability across this router's outgoing links. Used
  /// by the oracle policy and as the decision-tree training label source.
  double true_error_prob = 0.0;

  /// Number of observable features in per-port form
  /// (1 + 5 + 5 + 5 + 5 + 1 + 5).
  static constexpr int kNumFeaturesPerPort = 27;
  /// Number of features in aggregated form (see below).
  static constexpr int kNumFeaturesAggregated = 9;

  /// Feature count for one layout (the size fill_vector writes).
  static constexpr int num_features(bool per_port) noexcept {
    return per_port ? kNumFeaturesPerPort : kNumFeaturesAggregated;
  }

  /// Flattens the observable features into caller-owned storage — the
  /// allocation-free core the per-step RL/DT paths use. `out` must hold at
  /// least num_features(per_port) doubles; returns the count written.
  ///
  /// `per_port = true` is the paper-literal Table I layout (one value per
  /// direction). The default aggregates each per-port feature to its
  /// mean and max across ports: the action is a single per-router mode, so
  /// port identity is not actionable, and the 8-dimensional state recurs
  /// often enough for the tabular learner to converge within the paper's
  /// 1K-step training budget (ablation: bench_ablation_rl).
  std::size_t fill_vector(std::span<double> out, bool per_port = false) const {
    const auto need = static_cast<std::size_t>(num_features(per_port));
    RLFTNOC_CHECK(out.size() >= need,
                  "FeatureSnapshot::fill_vector: span holds %zu of %zu",
                  out.size(), need);
    std::size_t i = 0;
    if (per_port) {
      out[i++] = buffer_util;
      for (const double x : in_link_util) out[i++] = x;
      for (const double x : out_link_util) out[i++] = x;
      for (const double x : in_nack_rate) out[i++] = x;
      for (const double x : out_nack_rate) out[i++] = x;
      out[i++] = temperature_c;
      for (const double x : out_link_dead) out[i++] = x;
      return i;
    }
    out[i++] = buffer_util;
    out[i++] = mean(in_link_util);
    out[i++] = max(in_link_util);
    out[i++] = mean(out_link_util);
    out[i++] = max(out_link_util);
    out[i++] = max(in_nack_rate);
    out[i++] = max(out_nack_rate);
    out[i++] = temperature_c;
    out[i++] = mean(out_link_dead);  // fraction of dead outgoing links
    return i;
  }

  /// Allocating convenience wrapper over fill_vector (cold paths, tests).
  std::vector<double> to_vector(bool per_port = false) const {
    std::vector<double> v(static_cast<std::size_t>(num_features(per_port)));
    fill_vector(v, per_port);
    return v;
  }

  /// Table I binning: 5 linear bins for utilizations/temperature, 4 log
  /// bins for NACK rates, applied to either feature layout. Reuses `s`'s
  /// capacity, so a caller-held scratch state makes the per-step RL
  /// discretization allocation-free after warm-up.
  void discretize_into(DiscreteState& s, bool per_port = false) const {
    static const LinearBins kBufBins(0.0, 1.0, 5);
    static const LinearBins kUtilBins(0.0, 0.3, 5);
    static const LogBins kNackBins(1e-3, 0.5, 4);
    static const LinearBins kTempBins(50.0, 100.0, 5);

    s.clear();
    if (per_port) {
      s.reserve(kNumFeaturesPerPort);
      s.push_back(kBufBins.bin(buffer_util));
      for (const double x : in_link_util) s.push_back(kUtilBins.bin(x));
      for (const double x : out_link_util) s.push_back(kUtilBins.bin(x));
      for (const double x : in_nack_rate) s.push_back(kNackBins.bin(x));
      for (const double x : out_nack_rate) s.push_back(kNackBins.bin(x));
      s.push_back(kTempBins.bin(temperature_c));
      for (const double x : out_link_dead) s.push_back(x > 0.5 ? 1 : 0);
      return;
    }
    s.reserve(kNumFeaturesAggregated);
    s.push_back(kBufBins.bin(buffer_util));
    s.push_back(kUtilBins.bin(mean(in_link_util)));
    s.push_back(kUtilBins.bin(max(in_link_util)));
    s.push_back(kUtilBins.bin(mean(out_link_util)));
    s.push_back(kUtilBins.bin(max(out_link_util)));
    s.push_back(kNackBins.bin(max(in_nack_rate)));
    s.push_back(kNackBins.bin(max(out_nack_rate)));
    s.push_back(kTempBins.bin(temperature_c));
    s.push_back(dead_count());  // 0..5 dead outgoing links, exact
  }

 private:
  int dead_count() const {
    int n = 0;
    for (const double x : out_link_dead) n += x > 0.5 ? 1 : 0;
    return n;
  }
  static double mean(const std::array<double, kNumPorts>& a) {
    double s = 0.0;
    for (const double x : a) s += x;
    return s / static_cast<double>(kNumPorts);
  }
  static double max(const std::array<double, kNumPorts>& a) {
    double m = a[0];
    for (const double x : a) m = x > m ? x : m;
    return m;
  }
};

/// Error-level classification thresholds shared by the oracle policy and
/// the decision-tree label generator: per-flit error probability below
/// `low` -> mode 0, below `medium` -> mode 1, below `high` -> mode 2,
/// otherwise mode 3.
struct ErrorLevelThresholds {
  // Crossovers measured on this simulator (bench_ablation_modes): mode 0
  // wins below ~1.2e-2; mode 1 holds remarkably far (go-back-N at moderate
  // load) until ~2.5e-1, where pre-retransmission briefly pays; relaxed
  // timing (mode 3) is the last resort past ~3e-1. Within the nominal
  // thermal envelope (<= ~112 C, p <= ~0.1) modes 0/1 therefore dominate;
  // modes 2/3 engage under elevated error scales (fault sweeps).
  double low = 1.2e-2;
  double medium = 2.5e-1;
  double high = 3.2e-1;

  OpMode classify(double p) const noexcept {
    if (p < low) return OpMode::kMode0;
    if (p < medium) return OpMode::kMode1;
    if (p < high) return OpMode::kMode2;
    return OpMode::kMode3;
  }
};

}  // namespace rlftnoc
