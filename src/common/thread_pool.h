// Fork/join executor shared by the phase-parallel network stepper and the
// campaign runner, plus the one rule that turns a requested thread count
// into an actual one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rlftnoc {

/// Hardware threads of the machine (0 when unknown), read once: glibc
/// answers std::thread::hardware_concurrency() by reading a sysfs file, a
/// few microseconds per call.
unsigned hardware_threads() noexcept;

/// Resolves a user-facing thread count: 0 means one per hardware thread,
/// and the result is always at least 1.
inline unsigned resolve_thread_count(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = hardware_threads();
  return hw != 0 ? hw : 1;
}

/// Whether pool executors may spin between phases: only when every
/// executor in flight — `total_executors`, jobs x sim_threads in a campaign
/// — has a hardware thread of its own. A spinning executor on a shared
/// core would take time from the sibling it waits for.
constexpr bool spin_fits(std::size_t total_executors,
                         unsigned hardware_threads) noexcept {
  return hardware_threads > 1 && total_executors <= hardware_threads;
}

/// Low-latency fork/join executor.
///
/// Persistent workers park on a C++20 atomic wait; each run() publishes a
/// phase by bumping an epoch counter. There are E = helpers + 1 executors:
/// the caller is executor 0 and helper k is executor k + 1. A phase's task
/// indices are split evenly into E contiguous blocks, block e owned by
/// executor e. Each executor drains its own block first, in ascending
/// order, then steals from blocks e+1, e+2, ... (mod E) through the same
/// per-block cursors. So a task index maps to the same executor — and the
/// same core — from phase to phase whenever the load is even, and a slow or
/// late executor's block is still finished by the others.
///
/// A phase with T tasks costs E cursor stores and one release epoch bump.
/// A spinning pool's helpers, and its caller waiting for the last task,
/// poll with a pause instruction for up to kSpinBudget before they park on
/// a futex, so a phase published within that budget of the previous one
/// pays no wake-up at all — the network stepper's serial window between
/// two cycles' phases is well inside it. A parked helper costs one futex
/// wake. Either way it is trivially adequate for the campaign runner's
/// multi-second (benchmark, policy) jobs.
///
/// Contract: run() may only be called from one thread at a time; the
/// callable must tolerate concurrent invocations for distinct indices.
/// Which executor runs an index is a scheduling choice, never a guarantee.
/// run() returns after every index in [0, tasks) has completed; the first
/// exception thrown by any task is rethrown, after the remaining tasks ran.
class PhasePool {
 public:
  /// How long a spinning executor polls before it parks. It covers the
  /// network stepper's serial window between two dispatches (tens of
  /// microseconds on a 32x32 mesh) with room to spare, and bounds what an
  /// idle pool burns after its last phase.
  static constexpr std::chrono::microseconds kSpinBudget{150};

  /// Spawns `helpers` worker threads (the caller is executor 0, helper k is
  /// executor k + 1). 0 helpers is valid: run() then executes everything
  /// inline. `spin` lets executors poll before they park (see spin_fits).
  PhasePool(unsigned helpers, bool spin);
  /// A pool that is the only one in flight: it spins when its helpers + 1
  /// executors fit the machine.
  explicit PhasePool(unsigned helpers)
      : PhasePool(helpers, spin_fits(std::size_t{helpers} + 1,
                                     hardware_threads())) {}
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
  /// Polls `ready` with a pause between probes for up to kSpinBudget;
  /// returns whether it came true. Returns false at once unless spin_.
  template <typename Ready>
  bool spin_until(Ready&& ready) const;
  /// Claims and runs tasks as executor `self`: its own block first, then
  /// the others', until every block is exhausted.
  void drain_tasks(std::size_t self);
  /// `seen` is the last epoch this worker has handled.
  void worker_loop(std::uint32_t seen, std::size_t self);
  /// Rethrows (and clears) the first captured task exception, if any.
  void rethrow_any_error();

  /// One block's claim cursor: the next unclaimed index in the low 32 bits
  /// and the block's end in the high 32. Claiming is one fetch_add of the
  /// whole word, so a claim reads its index and its bound from the same
  /// phase: an executor still probing a block of phase N after phase N+1
  /// was published either sees N's exhausted word or claims a real N+1
  /// index, never an index of one phase checked against another's bound.
  /// One cache line each, so owners claiming from their own blocks never
  /// share a line.
  struct alignas(64) Cursor {
    std::atomic<std::uint64_t> word{0};
  };

  // Phase descriptor: written by run_impl before the cursors are reset;
  // workers read it only after observing the new epoch or after claiming
  // an index through a cursor (stragglers conscripted mid-phase), both
  // acquire operations that follow the release resets. Atomics because a
  // straggler from phase N may legally claim a task of phase N+1.
  std::atomic<TaskFn> fn_{nullptr};
  std::atomic<void*> ctx_{nullptr};
  std::atomic<std::size_t> tasks_{0};
  std::size_t executors_;  ///< helpers + 1; set before any worker starts
  std::unique_ptr<Cursor[]> cursors_;  ///< one per executor, by block
  /// Executors poll for up to kSpinBudget before they park: only ever
  /// useful when every executor has a core of its own.
  bool spin_;
  // The two atomics threads block on are 32-bit so std::atomic::wait takes
  // libstdc++'s direct-futex path: the futex syscall operates on the atomic
  // itself, with the kernel's atomic value-recheck closing the wait/notify
  // race. 64-bit atomics would go through the proxied waiter pool (a hashed
  // shared version counter), adding an indirection we don't need. done_ is
  // bounded by tasks-per-phase; epoch_ wraps harmlessly because a parked
  // worker re-reads it fresh after every wake. done_ is bumped once per task
  // by every executor, so it gets its own line, away from the descriptor
  // every claim reads.
  alignas(64) std::atomic<std::uint32_t> done_{0};  ///< tasks completed this phase
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
