// ORION-lite: event-based NoC power model (Kahng et al., DATE 2009 style).
//
// Dynamic energy is accumulated per router from discrete micro-architectural
// events (buffer accesses, crossbar/arbiter activity, link traversals, codec
// operations, ACK flits, retransmissions). Leakage is integrated over time
// with an exponential temperature dependence. Per-event energies are
// calibrated for 32 nm / 1.0 V / 2 GHz so a flit's full per-hop cost
// (write + read + arbitration + crossbar + link) comes to ~6.4 pJ and the
// paper's quoted 13.3 pJ baseline per-flit router energy (from the 0.16 pJ =
// 1.2 % RL-overhead arithmetic of Section VI-B) is met for a 2-hop average
// payload journey.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/check.h"

namespace rlftnoc {

/// Micro-architectural events that cost dynamic energy.
enum class PowerEvent : std::uint8_t {
  kBufferWrite = 0,   ///< flit written into an input VC buffer
  kBufferRead,        ///< flit read out of an input VC buffer
  kArbitration,       ///< one RC/VA/SA arbitration for a flit
  kCrossbar,          ///< crossbar traversal
  kLinkTraversal,     ///< flit crosses an inter-router link
  kCrcEncode,         ///< CRC computation at the source NI
  kCrcDecode,         ///< CRC check at the destination NI
  kEccEncode,         ///< SECDED encode at an enabled ECC link
  kEccDecode,         ///< SECDED decode at an enabled ECC link
  kAckFlit,           ///< ACK/NACK control flit exchanged between routers
  kRetransmission,    ///< a flit (or packet flit) re-sent due to a fault
  kOutputBufferWrite, ///< retention copy written to the output flit buffer
  kRlStep,            ///< Q-table lookup + update for one control interval
  kDtInference,       ///< decision-tree inference for one control interval
  kCount
};

inline constexpr std::size_t kNumPowerEvents = static_cast<std::size_t>(PowerEvent::kCount);

const char* power_event_name(PowerEvent e) noexcept;

/// Per-event energies (pJ) and leakage coefficients.
struct PowerParams {
  std::array<double, kNumPowerEvents> energy_pj = {
      1.15,  // kBufferWrite
      0.95,  // kBufferRead
      0.55,  // kArbitration
      1.90,  // kCrossbar
      1.80,  // kLinkTraversal
      0.36,  // kCrcEncode
      0.36,  // kCrcDecode
      0.52,  // kEccEncode
      0.74,  // kEccDecode
      0.42,  // kAckFlit
      0.80,  // kRetransmission (control overhead beyond the re-traversal costs)
      0.60,  // kOutputBufferWrite
      36.0,  // kRlStep (Q-table SRAM read+write + ALU, per control step)
      20.0,  // kDtInference
  };

  /// Leakage: P_leak(T) = leak_w_at_ref * exp(leak_temp_coeff * (T - ref)).
  double leak_w_at_ref = 0.045;   ///< per-router leakage at ref temp (W)
  double leak_ref_temp_c = 50.0;
  double leak_temp_coeff = 0.023; ///< ~2x per 30 C, typical for 32 nm

  double clock_hz = 2.0e9;        ///< Table II: 2.0 GHz
};

/// Per-router energy bookkeeping.
///
/// Two accounting horizons coexist:
///  * *totals* over the whole measurement phase (drive Figs. 9-10), and
///  * a *window* that the control layer resets each RL time-step to compute
///    the instantaneous power used in the reward and fed to HotSpot.
/// An event increments only its router's window row; reset_window folds the
/// row into the router's totals, and a total reads folded + window. Counts
/// are exact integers, so every energy is the same double either way.
class PowerModel {
 public:
  PowerModel(int num_routers, PowerParams params = {});

  const PowerParams& params() const noexcept { return params_; }
  int num_routers() const noexcept { return static_cast<int>(window_counts_.size()); }

  /// Records `n` occurrences of `e` at `router`.
  void record(int router, PowerEvent e, std::uint64_t n = 1) {
    const auto r = static_cast<std::size_t>(router);
    const auto i = static_cast<std::size_t>(e);
    RLFTNOC_CHECK(r < window_counts_.size() && i < kNumPowerEvents,
                  "PowerModel::record: router %d event %zu out of range", router,
                  i);
    window_counts_[r][i] += n;
  }

  /// Integrates leakage for `router` over `cycles` at temperature `temp_c`.
  void integrate_leakage(int router, double temp_c, std::uint64_t cycles);

  /// Leakage power (W) at the given temperature.
  double leakage_watts(double temp_c) const noexcept;

  /// --- window accounting (per control interval) ---
  /// Dynamic energy (pJ) recorded at `router` since its last window reset.
  double window_dynamic_energy_pj(int router) const;
  /// Average dynamic power (W) over a window of `cycles` cycles.
  double window_dynamic_power_w(int router, std::uint64_t cycles) const;
  /// Folds the window counters of `router` into its totals and resets them.
  void reset_window(int router);

  /// --- totals over the measurement phase ---
  double total_dynamic_energy_pj(int router) const;
  double total_dynamic_energy_pj() const;
  double total_leakage_energy_pj(int router) const;
  double total_leakage_energy_pj() const;
  double total_energy_pj() const { return total_dynamic_energy_pj() + total_leakage_energy_pj(); }

  /// Event count over the measurement phase (all routers).
  std::uint64_t total_event_count(PowerEvent e) const;

  /// Clears totals and windows (start of the measurement phase).
  void reset_totals();

 private:
  PowerParams params_;
  using EventCounts = std::array<std::uint64_t, kNumPowerEvents>;
  std::vector<EventCounts> window_counts_;
  /// Per router: the counts of every window reset since reset_totals.
  std::vector<EventCounts> folded_counts_;
  std::vector<double> leak_energy_pj_;

  double counts_to_pj(const EventCounts& c) const noexcept;
  /// Per-event counts of `router` since reset_totals (folded + window).
  EventCounts total_counts(std::size_t router) const noexcept;
};

}  // namespace rlftnoc
