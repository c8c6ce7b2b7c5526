// Delay-line channels.
//
// Every inter-router signal (flits, credits, ACK/NACKs) travels through a
// fixed-latency delay line, which is what makes the cycle-driven update
// order-independent: producers push entries stamped `deliver_at = now +
// latency`, consumers only pop entries whose stamp has matured. Pushing and
// popping within the same simulated cycle therefore never race.
//
// A line the Network wires up is also bound to one occupancy byte owned by
// its consumer node (noc/node_hot.h): the byte is 1 exactly while the line
// holds an entry, mature or not, so the stepper finds the lanes with work by
// reading bytes instead of walking lines.
//
// Sizing: a line's ring starts with kMaxFlitsInFlight slots, the bound a flit
// lane can reach (below), and doubles only if a line ever needs more — a
// burst of credits returned by hard-fault teardown, say.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/ring_buffer.h"
#include "common/types.h"
#include "noc/flit.h"

namespace rlftnoc {

/// Most flits a flit lane holds between steps. A port puts at most one flit
/// on the wire per cycle (busy_until), a flit stays on it at most 1 (link)
/// + 1 (SECDED codec) + 2 (mode-3 stretch) = 4 cycles, and the consumer pops
/// it in the cycle it matures; so after a step only flits pushed in the last
/// four cycles remain. The auditor checks the bound (noc/audit.h).
inline constexpr std::size_t kMaxFlitsInFlight = 4;

/// FIFO with per-entry maturity stamps.
template <typename T>
class DelayLine {
 public:
  explicit DelayLine(Cycle latency = 1) noexcept : latency_(latency) {}

  Cycle latency() const noexcept { return latency_; }

  /// Binds the line to its consumer's occupancy byte (null unbinds) and
  /// syncs the byte to the current contents. From here on push() sets it,
  /// and a pop() or clear() that empties the line clears it. An unbound line
  /// touches no byte.
  void bind_occupancy(std::uint8_t* byte) noexcept {
    occ_ = byte;
    if (occ_ != nullptr) *occ_ = entries_.empty() ? 0 : 1;
  }
  /// The bound occupancy byte; null when unbound (auditing).
  const std::uint8_t* occupancy_byte() const noexcept { return occ_; }

  /// Enqueues `value` at time `now`; it becomes visible at `now + latency`.
  void push(Cycle now, T value) { push_delayed(now, std::move(value), 0); }

  /// Enqueues with `extra` additional cycles of delay (mode-3 relaxed-timing
  /// transfers). Callers keep the channel busy over the stretch, so stamps
  /// stay monotone and FIFO order is preserved.
  void push_delayed(Cycle now, T value, Cycle extra) {
    const Cycle at = now + latency_ + extra;
    // FIFO delivery order requires monotone maturity stamps; a violation
    // means a producer bypassed the channel-occupancy protocol.
    RLFTNOC_CHECK(entries_.empty() || entries_.back().deliver_at <= at,
                  "delay line stamp regressed: %llu after %llu",
                  static_cast<unsigned long long>(at),
                  static_cast<unsigned long long>(entries_.back().deliver_at));
    entries_.push_back(Entry{at, std::move(value)});
    if (occ_ != nullptr) *occ_ = 1;
  }

  /// Pops the oldest entry if it has matured by `now`.
  std::optional<T> pop(Cycle now) {
    if (entries_.empty() || entries_.front().deliver_at > now) return std::nullopt;
    T out = std::move(entries_.front().value);
    entries_.pop_front();
    if (occ_ != nullptr && entries_.empty()) *occ_ = 0;
    return out;
  }

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  /// Allocated slots (0 until the first push).
  std::size_t capacity() const noexcept { return entries_.capacity(); }

  /// Discards everything in flight (hard-fault teardown of a dead link /
  /// router). Returns the number of entries dropped so the caller can keep
  /// conservation accounting honest.
  std::size_t clear() noexcept {
    const std::size_t n = entries_.size();
    entries_.clear();
    if (occ_ != nullptr) *occ_ = 0;
    return n;
  }

  /// Visits every queued value oldest-first (auditing / diagnostics only —
  /// the simulation itself must go through pop() to honour maturity).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    entries_.for_each([&fn](const Entry& e) { fn(e.value); });
  }

 private:
  struct Entry {
    Cycle deliver_at = 0;
    T value{};
  };
  Cycle latency_;
  std::uint8_t* occ_ = nullptr;  ///< consumer's occupancy byte; null = unbound
  RingBuffer<Entry, kMaxFlitsInFlight> entries_;
};

/// Credit returned upstream when a flit vacates an input VC buffer slot.
struct Credit {
  VcId vc = kInvalidVc;
};

/// Link-level ACK/NACK for the ARQ+ECC protocol.
struct AckMsg {
  FlitId flit_id = 0;
  VcId vc = kInvalidVc;
  bool nack = false;
};

/// One direction of a physical channel between adjacent routers (or between
/// a router and its network interface): a flit lane plus the reverse credit
/// and ACK lanes.
struct ChannelPair {
  DelayLine<Flit> flits{1};
  DelayLine<Credit> credits{1};
  DelayLine<AckMsg> acks{1};
};

}  // namespace rlftnoc
