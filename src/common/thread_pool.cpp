#include "common/thread_pool.h"

#include <stdexcept>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rlftnoc {

namespace {
/// Probes between two deadline checks: a clock read costs about as much as
/// a few pauses, so the deadline is checked every few microseconds.
constexpr int kProbesPerClockRead = 64;

/// Tells the core this thread is in a spin-wait (frees pipeline resources
/// for a sibling hyperthread and avoids the memory-order flush on exit).
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Packs a block's claim cursor: next index low, end high.
constexpr std::uint64_t cursor_word(std::uint64_t next, std::uint64_t end) {
  return end << 32 | next;
}
}  // namespace

unsigned hardware_threads() noexcept {
  static const unsigned hw = std::thread::hardware_concurrency();
  return hw;
}

PhasePool::PhasePool(unsigned helpers, bool spin)
    : executors_(std::size_t{helpers} + 1),
      cursors_(std::make_unique<Cursor[]>(executors_)),
      spin_(spin) {
  // Workers start from the epoch as of construction, not as of their own
  // (possibly late) first instruction: a phase published before a worker
  // got scheduled must still be seen as new, or a pool whose first run()
  // is its only one — the campaign grid — would run short of helpers.
  const std::uint32_t start = epoch_.load(std::memory_order_relaxed);
  workers_.reserve(helpers);
  for (unsigned i = 0; i < helpers; ++i)
    workers_.emplace_back(
        [this, start, self = std::size_t{i} + 1] { worker_loop(start, self); });
}

PhasePool::~PhasePool() {
  stop_.store(true, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  // std::jthread joins on destruction.
}

void PhasePool::run_impl(std::size_t tasks, TaskFn fn, void* ctx) {
  if (tasks == 0) return;
  if (workers_.empty() || tasks == 1) {
    ++inline_runs_;
    for (std::size_t i = 0; i < tasks; ++i) run_task(fn, ctx, i);
    rethrow_any_error();
    return;
  }
  // Cursor halves and done_ are 32-bit; the headroom above 2^31 absorbs
  // the failed claims that overshoot an exhausted block's end.
  if (tasks >= (std::size_t{1} << 31))
    throw std::length_error("PhasePool::run: 2^31 or more tasks");
  ++dispatches_;

  // Publish the phase: descriptor first, then every block cursor (release),
  // then the epoch (release + wake). A straggler that claims a task through
  // a cursor alone still acquires the descriptor through that cursor. The
  // blocks are an even split: the first (tasks % E) take one extra index.
  fn_.store(fn, std::memory_order_relaxed);
  ctx_.store(ctx, std::memory_order_relaxed);
  tasks_.store(tasks, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  const std::size_t base = tasks / executors_;
  const std::size_t extra = tasks % executors_;
  std::size_t lo = 0;
  for (std::size_t b = 0; b < executors_; ++b) {
    const std::size_t end = lo + base + (b < extra ? 1 : 0);
    cursors_[b].word.store(cursor_word(lo, end), std::memory_order_release);
    lo = end;
  }
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();

  drain_tasks(0);  // the caller is executor 0

  const auto want = static_cast<std::uint32_t>(tasks);
  spin_until([&] { return done_.load(std::memory_order_acquire) == want; });
  for (;;) {
    const std::uint32_t d = done_.load(std::memory_order_acquire);
    if (d == want) break;
    done_.wait(d, std::memory_order_acquire);
  }

  rethrow_any_error();
}

template <typename Ready>
bool PhasePool::spin_until(Ready&& ready) const {
  if (!spin_) return false;
  using SteadyClock = std::chrono::steady_clock;  // rlftnoc-lint: allow(R2) spin deadline is a scheduling bound, never a sim input
  const SteadyClock::time_point deadline = SteadyClock::now() + kSpinBudget;  // rlftnoc-lint: allow(R2) spin deadline only
  for (;;) {
    for (int i = 0; i < kProbesPerClockRead; ++i) {
      if (ready()) return true;
      cpu_pause();
    }
    if (SteadyClock::now() >= deadline) return ready();  // rlftnoc-lint: allow(R2) spin deadline only
  }
}

void PhasePool::rethrow_any_error() {
  if (!has_error_.load(std::memory_order_acquire)) return;
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lk(error_mu_);
    err = std::exchange(first_error_, nullptr);
    has_error_.store(false, std::memory_order_release);
  }
  if (err) std::rethrow_exception(err);
}

void PhasePool::run_task(TaskFn fn, void* ctx, std::size_t index) {
  try {
    fn(ctx, index);
  } catch (...) {
    std::lock_guard<std::mutex> lk(error_mu_);
    if (!first_error_) first_error_ = std::current_exception();
    has_error_.store(true, std::memory_order_release);
  }
}

void PhasePool::drain_tasks(std::size_t self) {
  // Own block first, then the others in ring order.
  for (std::size_t k = 0; k < executors_; ++k) {
    const std::size_t b = self + k < executors_ ? self + k : self + k - executors_;
    std::atomic<std::uint64_t>& cursor = cursors_[b].word;
    // A plain load skips an exhausted block without taking its line for
    // writing. It may be stale only for a straggler, which re-drains after
    // it sees the new epoch; the caller always sees its own resets.
    const std::uint64_t peek = cursor.load(std::memory_order_relaxed);
    if (static_cast<std::uint32_t>(peek) >= (peek >> 32)) continue;
    for (;;) {
      const std::uint64_t w = cursor.fetch_add(1, std::memory_order_acq_rel);
      const auto i = static_cast<std::uint32_t>(w);
      if (i >= (w >> 32)) break;
      // A claimed index pins its phase: that phase cannot complete, and so
      // no later one can be published, until this task is counted done.
      const std::size_t n = tasks_.load(std::memory_order_acquire);
      run_task(fn_.load(std::memory_order_acquire),
               ctx_.load(std::memory_order_acquire), i);
      // The finishing increment wakes the caller; intermediate ones stay
      // syscall-free.
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          static_cast<std::uint32_t>(n))
        done_.notify_all();
    }
  }
}

void PhasePool::worker_loop(std::uint32_t seen, std::size_t self) {
  for (;;) {
    // The stop check must sit between loading `seen` and waiting on it. A
    // worker that loads the destructor's final epoch bump would otherwise
    // park on an epoch nobody will ever advance or notify again.
    // The acquire load that returned the final value synchronizes with the
    // destructor's release increment, so stop_ is guaranteed visible here;
    // and if the bump lands after this check instead, epoch_ no longer
    // equals `seen`, so the wait below returns immediately.
    if (stop_.load(std::memory_order_acquire)) return;
    // A phase published within the spin budget is picked up without a
    // futex round trip; after it, the worker parks until the next epoch.
    if (!spin_until([&] {
          return epoch_.load(std::memory_order_acquire) != seen;
        }))
      epoch_.wait(seen, std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    seen = epoch_.load(std::memory_order_acquire);
    drain_tasks(self);
  }
}

}  // namespace rlftnoc
