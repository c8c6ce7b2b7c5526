// Fork/join executor shared by the phase-parallel network stepper and the
// campaign runner, plus the one rule that turns a requested thread count
// into an actual one.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rlftnoc {

/// Resolves a user-facing thread count: 0 means one per hardware thread,
/// and the result is always at least 1.
inline unsigned resolve_thread_count(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

/// Low-latency fork/join executor.
///
/// Persistent workers park on a C++20 atomic wait; each run() publishes a
/// phase by bumping an epoch counter. Tasks are claimed in ascending index
/// order with a fetch_add dispenser and the caller participates, so a phase
/// with T tasks over W+1 threads costs one release-store plus W futex wakes
/// (none when a worker is still spinning) — cheap enough for the network
/// stepper's per-cycle phase barriers, and trivially adequate for the
/// campaign runner's multi-second (benchmark, policy) jobs.
///
/// Contract: run() may only be called from one thread at a time; the
/// callable must tolerate concurrent invocations for distinct indices.
/// run() returns after every index in [0, tasks) has completed; the first
/// exception thrown by any task is rethrown, after the remaining tasks ran.
class PhasePool {
 public:
  /// Spawns `helpers` worker threads (the caller is the +1th executor).
  /// 0 helpers is valid: run() then executes everything inline.
  explicit PhasePool(unsigned helpers);
  ~PhasePool();

  PhasePool(const PhasePool&) = delete;
  PhasePool& operator=(const PhasePool&) = delete;

  /// Runs f(i) for every i in [0, tasks); blocks until all complete.
  template <typename F>
  void run(std::size_t tasks, F&& f) {
    using Fn = std::remove_reference_t<F>;
    run_impl(
        tasks,
        [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); },
        const_cast<std::remove_const_t<Fn>*>(std::addressof(f)));
  }

  /// Worker threads (not counting the caller).
  unsigned helpers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  // -- dispatch cost counters (caller-thread only; run() is single-caller) --
  /// Phases published to the workers (epoch bumps + futex wakes). Inline
  /// phases — zero helpers, a single task, or an empty task set — pay no
  /// publish and are counted separately.
  std::uint64_t dispatches() const noexcept { return dispatches_; }
  /// run() calls executed entirely on the caller's thread.
  std::uint64_t inline_runs() const noexcept { return inline_runs_; }

 private:
  using TaskFn = void (*)(void* ctx, std::size_t index);

  void run_impl(std::size_t tasks, TaskFn fn, void* ctx);
  /// Runs one task, capturing (not propagating) anything it throws.
  void run_task(TaskFn fn, void* ctx, std::size_t index);
  /// Claims and runs tasks until the dispenser is exhausted.
  void drain_tasks();
  /// `seen` is the last epoch this worker has handled.
  void worker_loop(std::uint32_t seen);
  /// Rethrows (and clears) the first captured task exception, if any.
  void rethrow_any_error();

  // Phase descriptor: written by run_impl before the epoch is published;
  // workers read it only after observing the new epoch (or after an
  // acquire-load of next_, for stragglers conscripted mid-phase). Atomics
  // because a straggler from phase N may legally claim a task of phase N+1.
  std::atomic<TaskFn> fn_{nullptr};
  std::atomic<void*> ctx_{nullptr};
  std::atomic<std::size_t> tasks_{0};
  std::atomic<std::size_t> next_{0};  ///< task dispenser
  // The two atomics threads block on are 32-bit so std::atomic::wait takes
  // libstdc++'s direct-futex path: the futex syscall operates on the atomic
  // itself, with the kernel's atomic value-recheck closing the wait/notify
  // race. 64-bit atomics would go through the proxied waiter pool (a hashed
  // shared version counter), adding an indirection we don't need. done_ is
  // bounded by tasks-per-phase; epoch_ wraps harmlessly because a parked
  // worker re-reads it fresh after every wake.
  std::atomic<std::uint32_t> done_{0};   ///< tasks completed this phase
  std::atomic<std::uint32_t> epoch_{0};
  std::uint64_t dispatches_ = 0;   ///< published phases (see dispatches())
  std::uint64_t inline_runs_ = 0;  ///< caller-only run() calls
  std::atomic<bool> stop_{false};
  std::atomic<bool> has_error_{false};  ///< lock-free "is first_error_ set"
  std::mutex error_mu_;
  std::exception_ptr first_error_;
  std::vector<std::jthread> workers_;  ///< last member: joins first
};

}  // namespace rlftnoc
