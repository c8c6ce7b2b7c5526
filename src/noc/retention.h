// Per-output-port ARQ retention buffer: a ring of clean copies in send order.
//
// The retention buffer holds the pristine encoded copy of every flit that is
// on the wire awaiting a link-level ACK. It is bounded (NocConfig::
// retention_depth, 8 by default) but interrogated constantly: every ACK/NACK
// arrival, every re-send and every mode-2 duplicate resolves its entry by
// FlitId.
//
// Layout: one preallocated power-of-two ring, oldest entry first, on each
// mesh output port with a live link; the Local port and a port whose link is
// absent or dead hold none (reset(0)). Entries are appended at transmission,
// so they are held in ascending link sequence number (the auditor checks
// this). Under go-back-N the receiver answers in
// lsn order, so an ACK almost always resolves the oldest entry: lookup scans
// from the front and the first probe hits, touching one cache line. Erasing
// the oldest entry just advances the head; erasing from the middle (an ACK
// that overtook a NACKed predecessor) shifts the younger entries down one
// slot, keeping the ring compact and in order. The key is the stored flit's
// own id(), so there is no separate index to keep consistent.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/check.h"
#include "noc/flit.h"

namespace rlftnoc {

/// Retained copy of a transmitted flit awaiting link-level ACK.
struct ArqRetention {
  Flit clean;          ///< pristine encoded flit (payload + check bits)
  int unresolved = 0;  ///< copies on the wire without a response yet
  bool resend_queued = false;
};

class RetentionTable {
 public:
  RetentionTable() = default;

  /// Sizes the table for at most `capacity` live entries (0 frees the ring:
  /// a port with no live protected link keeps none). Discards contents.
  void reset(std::size_t capacity) {
    if (capacity == 0) {
      ring_.reset();
      mask_ = 0;
    } else {
      const std::size_t slots = std::bit_ceil(capacity);
      if (slots != mask_ + 1 || ring_ == nullptr)
        ring_ = std::make_unique<ArqRetention[]>(slots);
      mask_ = slots - 1;
    }
    capacity_ = capacity;
    head_ = 0;
    size_ = 0;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Looks up the entry for `id`, scanning oldest first; nullptr if absent.
  ArqRetention* find(FlitId id) noexcept {
    for (std::size_t i = 0; i < size_; ++i) {
      ArqRetention& e = slot(i);
      if (e.clean.id() == id) return &e;
    }
    return nullptr;
  }

  /// Appends `entry` as the newest entry (keyed by entry.clean.id()) and
  /// returns it. The caller must ensure there is room (size() < capacity()),
  /// that the id is not present and that its lsn exceeds every retained
  /// one — protocol invariants the auditor checks.
  ArqRetention& insert(ArqRetention entry) {
    RLFTNOC_CHECK(size_ < capacity_, "RetentionTable: insert past capacity");
    ArqRetention& e = slot(size_);
    e = std::move(entry);
    ++size_;
    return e;
  }

  /// Removes the entry for `id` if present; returns whether it existed.
  /// Erasing the oldest entry never moves the others; erasing a younger one
  /// shifts the entries behind it down a slot.
  bool erase(FlitId id) noexcept {
    for (std::size_t i = 0; i < size_; ++i) {
      if (slot(i).clean.id() != id) continue;
      if (i == 0) {
        head_ = (head_ + 1) & mask_;
      } else {
        for (std::size_t j = i; j + 1 < size_; ++j) slot(j) = std::move(slot(j + 1));
      }
      --size_;
      return true;
    }
    return false;
  }

  /// Visits every live (id, entry) pair oldest first (ascending lsn).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) {
      const ArqRetention& e = ring_[(head_ + i) & mask_];
      fn(e.clean.id(), e);
    }
  }

 private:
  ArqRetention& slot(std::size_t i) noexcept { return ring_[(head_ + i) & mask_]; }

  std::unique_ptr<ArqRetention[]> ring_;
  std::size_t mask_ = 0;      ///< ring slots - 1 (slots is a power of two)
  std::size_t capacity_ = 0;  ///< live-entry bound (<= slots)
  std::size_t head_ = 0;      ///< ring index of the oldest entry
  std::size_t size_ = 0;
};

}  // namespace rlftnoc
