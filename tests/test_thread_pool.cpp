#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rlftnoc {
namespace {

TEST(ResolveThreadCount, ZeroMeansHardwareThreadsAndNeverLessThanOne) {
  EXPECT_GE(resolve_thread_count(0), 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0) {
    EXPECT_EQ(resolve_thread_count(0), hw);
  }
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
}

TEST(PhasePool, RunsEveryIndexExactlyOnce) {
  PhasePool pool(3);
  EXPECT_EQ(pool.helpers(), 3u);
  constexpr std::size_t kTasks = 257;  // more tasks than threads
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, [&hits](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(PhasePool, EveryIndexOnceForEveryTaskAndHelperCount) {
  // Block claiming must cover [0, tasks) exactly, including fewer tasks
  // than executors (empty blocks) and counts that do not split evenly.
  for (const unsigned helpers : {0u, 1u, 3u, 7u}) {
    PhasePool pool(helpers);
    for (std::size_t tasks = 0; tasks <= 40; ++tasks) {
      SCOPED_TRACE("helpers=" + std::to_string(helpers) +
                   " tasks=" + std::to_string(tasks));
      std::vector<std::atomic<int>> hits(tasks);
      pool.run(tasks, [&hits](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < tasks; ++i) EXPECT_EQ(hits[i].load(), 1);
    }
  }
}

TEST(PhasePool, IdleExecutorsStealFromABlockedOwner) {
  // Task 0 opens the caller's block and will not return until every other
  // task has run, so the rest of block 0 can only be finished by helpers
  // stealing it. A pool that left each block to its owner would time out.
  constexpr std::size_t kTasks = 64;  // 4 executors: block 0 is [0, 16)
  PhasePool pool(3);
  std::atomic<std::size_t> others_done{0};
  std::vector<std::atomic<int>> hits(kTasks);
  bool saw_all = false;
  pool.run(kTasks, [&](std::size_t i) {
    ++hits[i];
    if (i != 0) {
      ++others_done;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others_done.load() < kTasks - 1 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    saw_all = others_done.load() == kTasks - 1;
  });
  EXPECT_TRUE(saw_all);
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(PhasePool, BackToBackPhasesWithChangingTaskCounts) {
  // Straggler safety: an executor still probing phase N's cursors when
  // phase N+1 (with different block bounds) is published must never run an
  // index twice or skip one. Each phase counts into its own slots, checked
  // before the next phase reuses them.
  PhasePool pool(3);
  std::vector<std::atomic<int>> hits(37);
  for (int phase = 0; phase < 10000; ++phase) {
    const std::size_t tasks = 2 + static_cast<std::size_t>(phase * 7 % 36);
    pool.run(tasks, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].exchange(0), i < tasks ? 1 : 0)
          << "phase " << phase << " tasks " << tasks << " index " << i;
    }
  }
}

TEST(PhasePool, FirstRunUsesEveryHelper) {
  // A run() issued right after construction, before the helpers have been
  // scheduled, must still reach all of them: the campaign runner's pool
  // lives for exactly one run(). Each task waits until all four executors
  // hold a task at once, so a helper that missed the phase shows up as a
  // timeout instead of a hang.
  constexpr int kExecutors = 4;
  PhasePool pool(kExecutors - 1);
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  pool.run(kExecutors, [&](std::size_t) {
    ++arrived;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < kExecutors && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    if (arrived.load() == kExecutors) ++met;
  });
  EXPECT_EQ(met.load(), kExecutors);
}

TEST(PhasePool, ZeroHelpersRunsInline) {
  PhasePool pool(0);
  EXPECT_EQ(pool.helpers(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> who(8);
  pool.run(8, [&who, caller](std::size_t i) { who[i] = caller; });
  for (const auto& id : who) EXPECT_EQ(id, caller);
}

TEST(PhasePool, ReusableAcrossManyPhases) {
  // The stepper dispatches three phases per cycle for millions of cycles;
  // each run() must be a complete barrier (no task of phase N+1 may observe
  // phase N unfinished).
  PhasePool pool(4);
  std::vector<std::uint64_t> slots(64, 0);
  for (int phase = 0; phase < 500; ++phase) {
    pool.run(slots.size(), [&slots, phase](std::size_t i) {
      EXPECT_EQ(slots[i], static_cast<std::uint64_t>(phase));
      ++slots[i];
    });
  }
  for (const std::uint64_t v : slots) EXPECT_EQ(v, 500u);
}

TEST(PhasePool, RethrowsFirstTaskException) {
  for (const unsigned helpers : {0u, 2u}) {
    SCOPED_TRACE(helpers);
    PhasePool pool(helpers);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.run(16,
                          [&ran](std::size_t i) {
                            ++ran;
                            if (i == 5) throw std::runtime_error("task 5 failed");
                          }),
                 std::runtime_error);
    // The failure did not cancel the remaining tasks.
    EXPECT_EQ(ran.load(), 16);
    // The error is consumed: the pool is reusable afterwards.
    ran = 0;
    EXPECT_NO_THROW(pool.run(16, [&ran](std::size_t) { ++ran; }));
    EXPECT_EQ(ran.load(), 16);
  }
}

TEST(PhasePool, RunsEveryTaskWhenHelpersOutnumberTasks) {
  // More executors than tasks: the idle helpers must neither run a task
  // twice nor keep run() from returning. Repeated so that helpers left over
  // from one small phase meet the next one.
  PhasePool pool(4);
  for (std::size_t tasks = 2; tasks <= 5; ++tasks) {
    SCOPED_TRACE(tasks);
    std::vector<std::atomic<int>> hits(tasks);
    for (int rep = 0; rep < 50; ++rep)
      pool.run(tasks, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < tasks; ++i) EXPECT_EQ(hits[i].load(), 50);
  }
}

TEST(PhasePool, SlotOutputsAreOrderIndependent) {
  // Each task writes into its own slot; the result must not depend on which
  // executor ran which task or in what order they finished.
  constexpr std::size_t kTasks = 64;
  std::vector<std::size_t> slots(kTasks, 0);
  PhasePool pool(4);
  pool.run(kTasks, [&slots](std::size_t i) {
    // Stagger completion times so finish order != claim order.
    std::this_thread::sleep_for(std::chrono::microseconds((kTasks - i) * 10));
    slots[i] = i * i + 1;
  });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(slots[i], i * i + 1);
}

TEST(SpinFits, OnlyWhenEveryExecutorInFlightHasAHardwareThread) {
  // One 4-thread run on a 4-thread machine spins; four such runs at once
  // (jobs 4 x sim_threads 4) would take cores from each other, so none do.
  EXPECT_TRUE(spin_fits(4, 4));
  EXPECT_TRUE(spin_fits(2, 4));
  EXPECT_FALSE(spin_fits(4 * 4, 4));
  EXPECT_FALSE(spin_fits(5, 4));
  // A single hardware thread (or an unknown count) never spins.
  EXPECT_FALSE(spin_fits(1, 1));
  EXPECT_FALSE(spin_fits(1, 0));
}

TEST(PhasePool, HelpersParkPastTheSpinBudgetAndWakeForTheNextPhase) {
  // The caller idles past the spin budget between phases, so a spinning
  // pool's helpers give up and park on the epoch; each next phase must
  // wake them and still run every index. Helpers are told to spin either
  // way, so the test covers the spin, the park and the wake on any host.
  PhasePool pool(3, /*spin=*/true);
  std::vector<std::uint64_t> slots(8, 0);
  for (int phase = 0; phase < 6; ++phase) {
    pool.run(slots.size(), [&slots](std::size_t i) { ++slots[i]; });
    std::this_thread::sleep_for(PhasePool::kSpinBudget * 3);
  }
  for (const std::uint64_t v : slots) EXPECT_EQ(v, 6u);
  EXPECT_EQ(pool.dispatches(), 6u);
}

TEST(PhasePool, ZeroTasksIsANoOp) {
  PhasePool pool(2);
  EXPECT_NO_THROW(pool.run(0, [](std::size_t) { FAIL() << "ran a task"; }));
}

TEST(PhasePool, EmptyAndSingleTaskRunsPublishNoPhase) {
  // Only a run() with work for more than one executor wakes the helpers.
  PhasePool pool(2);
  pool.run(0, [](std::size_t) {});
  EXPECT_EQ(pool.dispatches(), 0u);
  int ran = 0;
  pool.run(1, [&ran](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(pool.dispatches(), 0u);
  EXPECT_EQ(pool.inline_runs(), 1u);
  std::atomic<int> many{0};
  pool.run(6, [&many](std::size_t) { ++many; });
  EXPECT_EQ(many.load(), 6);
  EXPECT_EQ(pool.dispatches(), 1u);
  EXPECT_EQ(pool.inline_runs(), 1u);
}

TEST(PhasePool, ContentionStress) {
  // TSan target: oversubscribed helpers racing the cursors across many
  // back-to-back phases, mimicking the per-cycle barrier cadence.
  PhasePool pool(8);
  std::vector<std::uint64_t> slots(128, 0);
  std::atomic<std::uint64_t> sum{0};
  for (int phase = 0; phase < 200; ++phase) {
    pool.run(slots.size(), [&slots, &sum](std::size_t i) {
      ++slots[i];
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  for (const std::uint64_t v : slots) EXPECT_EQ(v, 200u);
  EXPECT_EQ(sum.load(), 200u * (127u * 128u / 2));
}

TEST(PhasePool, EightHelperStressWithInterleavedFailure) {
  // TSan target: 8 helpers over shared (the atomic) and slot-private state,
  // with one failing phase in the middle. The failure must not cancel the
  // rest of its phase nor leak into the phases after it.
  constexpr std::size_t kTasks = 400;
  PhasePool pool(8);
  EXPECT_EQ(pool.helpers(), 8u);
  std::vector<std::uint64_t> slots(kTasks, 0);
  std::atomic<std::size_t> ran{0};
  for (int round = 0; round < 3; ++round) {
    auto task = [&slots, &ran, round](std::size_t i) {
      slots[i] += static_cast<std::uint64_t>(i) + 1;
      ++ran;
      if (round == 1 && i == kTasks / 2) throw std::runtime_error("round-1 failure");
    };
    if (round == 1) {
      EXPECT_THROW(pool.run(kTasks, task), std::runtime_error);
    } else {
      EXPECT_NO_THROW(pool.run(kTasks, task));
    }
  }
  EXPECT_EQ(ran.load(), 3 * kTasks);
  for (std::size_t i = 0; i < kTasks; ++i)
    EXPECT_EQ(slots[i], 3u * (static_cast<std::uint64_t>(i) + 1));
}

}  // namespace
}  // namespace rlftnoc
