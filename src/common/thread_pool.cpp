#include "common/thread_pool.h"

#include <utility>

namespace rlftnoc {

namespace {
// Spinning only ever helps when another core can make progress meanwhile.
bool spin_waits_useful() { return std::thread::hardware_concurrency() > 1; }
constexpr int kSpinIterations = 2048;
}  // namespace

PhasePool::PhasePool(unsigned helpers) {
  // Workers start from the epoch as of construction, not as of their own
  // (possibly late) first instruction: a phase published before a worker
  // got scheduled must still be seen as new, or a pool whose first run()
  // is its only one — the campaign grid — would run short of helpers.
  const std::uint32_t start = epoch_.load(std::memory_order_relaxed);
  workers_.reserve(helpers);
  for (unsigned i = 0; i < helpers; ++i)
    workers_.emplace_back([this, start] { worker_loop(start); });
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
  ++dispatches_;

  // Publish the phase: descriptor first, then the dispenser (release), then
  // the epoch (release + wake). A straggler that claims a task through the
  // dispenser alone still acquires the descriptor through next_.
  fn_.store(fn, std::memory_order_relaxed);
  ctx_.store(ctx, std::memory_order_relaxed);
  tasks_.store(tasks, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  next_.store(0, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();

  drain_tasks();  // the caller is an executor too

  const auto want = static_cast<std::uint32_t>(tasks);
  const bool spin = spin_waits_useful();
  for (;;) {
    std::uint32_t d = done_.load(std::memory_order_acquire);
    if (d == want) break;
    if (spin) {
      for (int s = 0; s < kSpinIterations; ++s) {
        d = done_.load(std::memory_order_acquire);
        if (d == want) break;
      }
      if (d == want) break;
    }
    done_.wait(d, std::memory_order_acquire);
  }

  rethrow_any_error();
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

void PhasePool::drain_tasks() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_acq_rel);
    const std::size_t n = tasks_.load(std::memory_order_acquire);
    if (i >= n) return;
    run_task(fn_.load(std::memory_order_acquire),
             ctx_.load(std::memory_order_acquire), i);
    // The finishing increment wakes the caller; intermediate ones stay
    // syscall-free.
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        static_cast<std::uint32_t>(n))
      done_.notify_all();
  }
}

void PhasePool::worker_loop(std::uint32_t seen) {
  for (;;) {
    // The stop check must sit between loading `seen` and waiting on it. A
    // worker that loads the destructor's final epoch bump would otherwise
    // park on an epoch nobody will ever advance or notify again.
    // The acquire load that returned the final value synchronizes with the
    // destructor's release increment, so stop_ is guaranteed visible here;
    // and if the bump lands after this check instead, epoch_ no longer
    // equals `seen`, so the wait below returns immediately.
    if (stop_.load(std::memory_order_acquire)) return;
    epoch_.wait(seen, std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    seen = epoch_.load(std::memory_order_acquire);
    drain_tasks();
  }
}

}  // namespace rlftnoc
