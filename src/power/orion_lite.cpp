#include "power/orion_lite.h"

#include "common/check.h"

#include <cmath>
#include <stdexcept>

namespace rlftnoc {

const char* power_event_name(PowerEvent e) noexcept {
  switch (e) {
    case PowerEvent::kBufferWrite: return "buffer_write";
    case PowerEvent::kBufferRead: return "buffer_read";
    case PowerEvent::kArbitration: return "arbitration";
    case PowerEvent::kCrossbar: return "crossbar";
    case PowerEvent::kLinkTraversal: return "link_traversal";
    case PowerEvent::kCrcEncode: return "crc_encode";
    case PowerEvent::kCrcDecode: return "crc_decode";
    case PowerEvent::kEccEncode: return "ecc_encode";
    case PowerEvent::kEccDecode: return "ecc_decode";
    case PowerEvent::kAckFlit: return "ack_flit";
    case PowerEvent::kRetransmission: return "retransmission";
    case PowerEvent::kOutputBufferWrite: return "output_buffer_write";
    case PowerEvent::kRlStep: return "rl_step";
    case PowerEvent::kDtInference: return "dt_inference";
    case PowerEvent::kCount: break;
  }
  return "?";
}

PowerModel::PowerModel(int num_routers, PowerParams params) : params_(params) {
  if (num_routers <= 0) throw std::invalid_argument("PowerModel: no routers");
  window_counts_.assign(static_cast<std::size_t>(num_routers), EventCounts{});
  folded_counts_.assign(static_cast<std::size_t>(num_routers), EventCounts{});
  leak_energy_pj_.assign(static_cast<std::size_t>(num_routers), 0.0);
}

double PowerModel::leakage_watts(double temp_c) const noexcept {
  // Clamp the exponent so a runaway thermal input cannot overflow.
  const double t = std::min(temp_c, 150.0);
  return params_.leak_w_at_ref *
         std::exp(params_.leak_temp_coeff * (t - params_.leak_ref_temp_c));
}

void PowerModel::integrate_leakage(int router, double temp_c, std::uint64_t cycles) {
  const double seconds = static_cast<double>(cycles) / params_.clock_hz;
  const auto r = static_cast<std::size_t>(router);
  RLFTNOC_CHECK(r < leak_energy_pj_.size(),
                "PowerModel::integrate_leakage: router %d out of range", router);
  leak_energy_pj_[r] += leakage_watts(temp_c) * seconds * 1e12;
}

double PowerModel::counts_to_pj(const EventCounts& c) const noexcept {
  double pj = 0.0;
  for (std::size_t i = 0; i < kNumPowerEvents; ++i)
    pj += static_cast<double>(c[i]) * params_.energy_pj[i];
  return pj;
}

PowerModel::EventCounts PowerModel::total_counts(std::size_t router) const noexcept {
  EventCounts c = folded_counts_[router];
  for (std::size_t i = 0; i < kNumPowerEvents; ++i) c[i] += window_counts_[router][i];
  return c;
}

double PowerModel::window_dynamic_energy_pj(int router) const {
  const auto r = static_cast<std::size_t>(router);
  RLFTNOC_CHECK(r < window_counts_.size(), "PowerModel: router %d out of range", router);
  return counts_to_pj(window_counts_[r]);
}

double PowerModel::window_dynamic_power_w(int router, std::uint64_t cycles) const {
  if (cycles == 0) return 0.0;
  const double seconds = static_cast<double>(cycles) / params_.clock_hz;
  return window_dynamic_energy_pj(router) * 1e-12 / seconds;
}

void PowerModel::reset_window(int router) {
  const auto r = static_cast<std::size_t>(router);
  RLFTNOC_CHECK(r < window_counts_.size(),
                "PowerModel::reset_window: router %d out of range", router);
  for (std::size_t i = 0; i < kNumPowerEvents; ++i)
    folded_counts_[r][i] += window_counts_[r][i];
  window_counts_[r] = EventCounts{};
}

double PowerModel::total_dynamic_energy_pj(int router) const {
  const auto r = static_cast<std::size_t>(router);
  RLFTNOC_CHECK(r < folded_counts_.size(), "PowerModel: router %d out of range", router);
  return counts_to_pj(total_counts(r));
}

double PowerModel::total_dynamic_energy_pj() const {
  double pj = 0.0;
  for (std::size_t r = 0; r < folded_counts_.size(); ++r)
    pj += counts_to_pj(total_counts(r));
  return pj;
}

double PowerModel::total_leakage_energy_pj(int router) const {
  const auto r = static_cast<std::size_t>(router);
  RLFTNOC_CHECK(r < leak_energy_pj_.size(),
                "PowerModel: router %d out of range", router);
  return leak_energy_pj_[r];
}

double PowerModel::total_leakage_energy_pj() const {
  double pj = 0.0;
  for (const double e : leak_energy_pj_) pj += e;
  return pj;
}

std::uint64_t PowerModel::total_event_count(PowerEvent e) const {
  const auto i = static_cast<std::size_t>(e);
  std::uint64_t n = 0;
  for (std::size_t r = 0; r < folded_counts_.size(); ++r)
    n += folded_counts_[r][i] + window_counts_[r][i];
  return n;
}

void PowerModel::reset_totals() {
  for (auto& c : window_counts_) c = EventCounts{};
  for (auto& c : folded_counts_) c = EventCounts{};
  for (auto& e : leak_energy_pj_) e = 0.0;
}

}  // namespace rlftnoc
