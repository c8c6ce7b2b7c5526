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
// Storage: a line keeps kMaxFlitsInFlight entries inline (the bound a flit
// lane can reach, below), so the channel arrays hold every lane's entries
// and a push or pop touches no heap block. Only a serial burst beyond that —
// credits returned by hard-fault teardown, say — spills the newer entries
// into a heap ring, which refills the inline slots as they drain.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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
  /// Destroys the entries still in flight. Writes no occupancy byte: the
  /// consumer's byte array may already be gone.
  ~DelayLine() { destroy_inline(); }

  DelayLine(const DelayLine&) = delete;
  DelayLine& operator=(const DelayLine&) = delete;

  Cycle latency() const noexcept { return latency_; }

  /// Binds the line to its consumer's occupancy byte (null unbinds) and
  /// syncs the byte to the current contents. From here on push() sets it,
  /// and a pop() or clear() that empties the line clears it. An unbound line
  /// touches no byte.
  void bind_occupancy(std::uint8_t* byte) noexcept {
    occ_ = byte;
    if (occ_ != nullptr) *occ_ = size_ == 0 ? 0 : 1;
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
    RLFTNOC_CHECK(size_ == 0 || back_stamp() <= at,
                  "delay line stamp regressed: %llu after %llu",
                  static_cast<unsigned long long>(at),
                  static_cast<unsigned long long>(back_stamp()));
    if (size_ < kInline) {
      const std::uint32_t k = slot(size_);
      at_[k] = at;
      std::construct_at(&slots_[k].value, std::move(value));
    } else {
      spill(at, std::move(value));
    }
    ++size_;
    if (occ_ != nullptr) *occ_ = 1;
  }

  /// Pops the oldest entry if it has matured by `now`.
  std::optional<T> pop(Cycle now) {
    if (size_ == 0 || at_[head_] > now) return std::nullopt;
    std::optional<T> out(std::move(slots_[head_].value));
    std::destroy_at(&slots_[head_].value);
    head_ = slot(1);
    --size_;
    if (size_ >= kInline) {
      refill();
    } else if (occ_ != nullptr && size_ == 0) {
      *occ_ = 0;
    }
    return out;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  /// Slots the line can hold without allocating: the inline ones plus the
  /// spill ring's (0 until a burst first overflows the inline slots).
  std::size_t capacity() const noexcept {
    return kInline + (spilled_ != nullptr ? spilled_->capacity() : 0);
  }

  /// Discards everything in flight (hard-fault teardown of a dead link /
  /// router). Returns the number of entries dropped so the caller can keep
  /// conservation accounting honest.
  std::size_t clear() noexcept {
    const std::size_t n = size_;
    destroy_inline();
    if (spilled_ != nullptr) spilled_->clear();
    head_ = 0;
    size_ = 0;
    if (occ_ != nullptr) *occ_ = 0;
    return n;
  }

  /// Visits every queued value oldest-first (auditing / diagnostics only —
  /// the simulation itself must go through pop() to honour maturity).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t i = 0; i < inline_size(); ++i)
      fn(slots_[slot(i)].value);
    if (spilled_ != nullptr)
      spilled_->for_each([&fn](const Spilled& e) { fn(e.value); });
  }

 private:
  static constexpr std::uint32_t kInline = kMaxFlitsInFlight;
  static_assert((kInline & (kInline - 1)) == 0,
                "DelayLine: the inline ring size must be a power of two");

  /// Raw inline storage: constructing a line writes none of it, and only
  /// the live entries are ever constructed.
  union Slot {
    Slot() noexcept {}
    ~Slot() {}
    T value;
  };
  /// An entry beyond the inline slots, in the heap ring.
  struct Spilled {
    Cycle at = 0;
    T value{};
  };

  /// The inline slot `i` places after the head.
  std::uint32_t slot(std::uint32_t i) const noexcept {
    return (head_ + i) & (kInline - 1);
  }
  std::uint32_t inline_size() const noexcept {
    return size_ < kInline ? size_ : kInline;
  }
  void destroy_inline() noexcept {
    for (std::uint32_t i = 0; i < inline_size(); ++i)
      std::destroy_at(&slots_[slot(i)].value);
  }
  Cycle back_stamp() const noexcept {
    return size_ <= kInline ? at_[slot(size_ - 1)] : spilled_->back().at;
  }
  /// The inline slots are full: queue behind them in the spill ring.
  void spill(Cycle at, T value) {
    if (spilled_ == nullptr) spilled_ = std::make_unique<RingBuffer<Spilled>>();
    spilled_->push_back(Spilled{at, std::move(value)});
  }
  /// A pop freed the last inline slot: the spill ring's oldest entry, next
  /// in FIFO order, moves into it.
  void refill() {
    Spilled& e = spilled_->front();
    const std::uint32_t k = slot(kInline - 1);
    at_[k] = e.at;
    std::construct_at(&slots_[k].value, std::move(e.value));
    spilled_->pop_front();
  }

  Cycle at_[kInline];  ///< maturity stamps of the inline slots (live ones set)
  std::uint32_t head_ = 0;  ///< inline slot of the oldest entry
  std::uint32_t size_ = 0;  ///< entries in flight, inline and spilled
  std::uint8_t* occ_ = nullptr;  ///< consumer's occupancy byte; null = unbound
  Cycle latency_;
  std::unique_ptr<RingBuffer<Spilled>> spilled_;  ///< null until a burst spills
  Slot slots_[kInline];
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
  /// User-provided so that value-initialising an array of channels does not
  /// zero every lane's inline storage first.
  ChannelPair() noexcept {}
  DelayLine<Flit> flits{1};
  DelayLine<Credit> credits{1};
  DelayLine<AckMsg> acks{1};
};

}  // namespace rlftnoc
