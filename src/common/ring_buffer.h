// Fixed/growable circular buffer — the zero-allocation replacement for the
// hot-path std::deques (ARQ resend queues, NI packet queues, delay-line
// spill rings).
//
// std::deque allocates a heap node roughly every few entries, which put an
// allocator round-trip on the per-cycle datapath of every router. RingBuffer
// keeps one flat power-of-two array: pushes and pops are an index mask and a
// move, and the only allocation ever performed is a capacity doubling (which
// stops once the buffer has seen its high-water mark, so a warmed-up
// simulation allocates nothing per cycle). The first allocation holds
// kFirstCapacity entries, so a user whose protocol bounds its occupancy
// can start at that bound.
//
// Requirements on T: default-constructible and move-assignable (the backing
// store is value-initialized up front and entries are moved in and out).
// Move-only types work. Popped slots are not destroyed until overwritten or
// the buffer dies; callers that care about eager resource release should
// std::move() out of front() before pop_front() — every hot-path user here
// does.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace rlftnoc {

template <typename T, std::size_t kFirstCapacity = 8>
class RingBuffer {
  static_assert(std::has_single_bit(kFirstCapacity),
                "RingBuffer: first capacity must be a power of two");

 public:
  RingBuffer() = default;
  /// Preallocates room for at least `min_capacity` entries.
  explicit RingBuffer(std::size_t min_capacity) { reserve(min_capacity); }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return buf_.size(); }

  /// Grows the backing store (never shrinks); rounds up to a power of two.
  void reserve(std::size_t min_capacity) {
    if (min_capacity > buf_.size()) grow_to(round_up_pow2(min_capacity));
  }

  void push_back(T value) {
    if (size_ == buf_.size()) grow_to(next_capacity());
    buf_[wrap(head_ + size_)] = std::move(value);
    ++size_;
  }

  /// O(1) prepend (the NI re-queues the packet it just dequeued when every
  /// local VC is credit-starved).
  void push_front(T value) {
    if (size_ == buf_.size()) grow_to(next_capacity());
    head_ = wrap(head_ + buf_.size() - 1);
    buf_[head_] = std::move(value);
    ++size_;
  }

  T& front() noexcept {
    RLFTNOC_CHECK(size_ > 0, "RingBuffer: front() on empty buffer");
    return buf_[head_];
  }
  const T& front() const noexcept {
    RLFTNOC_CHECK(size_ > 0, "RingBuffer: front() on empty buffer");
    return buf_[head_];
  }
  T& back() noexcept {
    RLFTNOC_CHECK(size_ > 0, "RingBuffer: back() on empty buffer");
    return buf_[wrap(head_ + size_ - 1)];
  }
  const T& back() const noexcept {
    RLFTNOC_CHECK(size_ > 0, "RingBuffer: back() on empty buffer");
    return buf_[wrap(head_ + size_ - 1)];
  }

  /// i-th entry counted from the front (0 = oldest).
  T& operator[](std::size_t i) noexcept {
    RLFTNOC_CHECK(i < size_, "RingBuffer: index %zu past size %zu", i, size_);
    return buf_[wrap(head_ + i)];
  }
  const T& operator[](std::size_t i) const noexcept {
    RLFTNOC_CHECK(i < size_, "RingBuffer: index %zu past size %zu", i, size_);
    return buf_[wrap(head_ + i)];
  }

  void pop_front() noexcept {
    RLFTNOC_CHECK(size_ > 0, "RingBuffer: pop_front() on empty buffer");
    head_ = wrap(head_ + 1);
    --size_;
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  /// Empties the buffer and frees its backing store (capacity() == 0).
  void release() noexcept {
    buf_ = std::vector<T>();
    head_ = 0;
    size_ = 0;
  }

  /// Visits every entry oldest-first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(buf_[wrap(head_ + i)]);
  }

  /// True if any entry satisfies `pred`.
  template <typename Pred>
  bool any_of(Pred&& pred) const {
    for (std::size_t i = 0; i < size_; ++i) {
      if (pred(buf_[wrap(head_ + i)])) return true;
    }
    return false;
  }

  /// Removes every entry satisfying `pred`, keeping the relative order of
  /// survivors (stable, like std::erase_if on a deque). Returns the count.
  template <typename Pred>
  std::size_t remove_if(Pred&& pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      T& v = buf_[wrap(head_ + i)];
      if (pred(std::as_const(v))) continue;
      if (kept != i) buf_[wrap(head_ + kept)] = std::move(v);
      ++kept;
    }
    const std::size_t removed = size_ - kept;
    size_ = kept;
    return removed;
  }

 private:
  static std::size_t round_up_pow2(std::size_t n) noexcept {
    std::size_t cap = kFirstCapacity;
    while (cap < n) cap <<= 1;
    return cap;
  }

  std::size_t next_capacity() const noexcept {
    return buf_.empty() ? kFirstCapacity : buf_.size() * 2;
  }

  // Valid only while buf_ is non-empty (capacity is a power of two); every
  // caller either checked size_ > 0 or grew the buffer first.
  std::size_t wrap(std::size_t i) const noexcept { return i & (buf_.size() - 1); }

  void grow_to(std::size_t cap) {
    std::vector<T> grown(cap);
    for (std::size_t i = 0; i < size_; ++i)
      grown[i] = std::move(buf_[wrap(head_ + i)]);
    buf_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rlftnoc
