// Dependency-aware workload replay engine.
//
// WorkloadReplayTraffic is a TrafficGenerator that injects the transfers of
// a Workload (workload/workload.h) in dependency order: a transfer becomes
// eligible only once every id in its `deps` list has *resolved* — completed
// end-to-end, or been abandoned by hard-fault teardown (an abandoned
// dependency releases its dependents rather than deadlocking the replay;
// the `transfers_abandoned` counter records how often that happened).
//
// Resolution events arrive through the PacketResolutionListener interface
// (noc/completion.h). Every notification site is serial — the e2e drain at
// the top of Network::step() and the hard-fault teardown sweeps — and tick()
// is called from the simulator's serial per-cycle loop, so the eligible set
// evolves identically for any --sim-threads value and replay output is
// bit-identical across thread counts.
//
// Timing model: `earliest_cycle` values are relative to the first tick()
// cycle (the injection-window start — warmup in the standard three-phase
// run). A completion observed during the step of cycle t can release a
// dependent no earlier than tick t+1, mirroring exactly when the recorder
// (workload/recorder.h) could have seen it — which is why replaying a
// recorded run reproduces the original injection stream cycle-for-cycle.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "noc/completion.h"
#include "traffic/traffic.h"
#include "workload/workload.h"

namespace rlftnoc {

class WorkloadReplayTraffic final : public TrafficGenerator,
                                    public PacketResolutionListener {
 public:
  /// Validates `wl` against `num_nodes` (throws WorkloadError — see
  /// validate_workload) and prepares the replay schedule. `seed` feeds the
  /// payload RNG only; injection timing is fully determined by the workload.
  WorkloadReplayTraffic(Workload wl, int num_nodes, std::uint64_t seed);

  void tick(Cycle now, std::vector<Packet>& out) override;
  bool exhausted() const override {
    return emitted_count_ == wl_.transfers.size();
  }
  const std::string& name() const override { return name_; }

  // -- PacketResolutionListener (serial contexts only; see noc/completion.h) --
  void on_packet_delivered(Cycle now, NodeId src, PacketId id) override;
  void on_packet_abandoned(Cycle now, PacketId id) override;

  // -- progress counters (telemetry: workload.* metric families) --
  std::uint64_t transfers_total() const noexcept {
    return wl_.transfers.size();
  }
  std::uint64_t transfers_emitted() const noexcept { return emitted_count_; }
  std::uint64_t transfers_retired() const noexcept { return retired_count_; }
  std::uint64_t transfers_abandoned() const noexcept {
    return abandoned_count_;
  }
  /// Transfers currently ineligible because at least one dependency has not
  /// resolved yet (gauge).
  std::uint64_t deps_blocked() const noexcept { return blocked_count_; }

  const Workload& workload() const noexcept { return wl_; }

 private:
  struct Armed {
    Cycle ready;        ///< relative cycle the transfer may inject at
    std::uint32_t idx;  ///< index into wl_.transfers
    /// Min-heap on ready; idx breaks ties so same-cycle transfers emit in
    /// workload order (= recording order for recorded workloads).
    friend bool operator>(const Armed& a, const Armed& b) noexcept {
      return a.ready != b.ready ? a.ready > b.ready : a.idx > b.idx;
    }
  };

  /// Marks transfer `idx` resolved and arms any dependents that became
  /// eligible; `rel_release` is the earliest relative cycle a dependent may
  /// inject at because of this resolution.
  void resolve(std::uint32_t idx, Cycle rel_release, bool delivered);

  Workload wl_;
  Rng rng_;
  std::string name_;

  bool started_ = false;
  Cycle base_ = 0;  ///< absolute cycle of the first tick

  std::vector<std::uint32_t> pending_deps_;  ///< unresolved dep count
  /// Transfers waiting on transfer i: dependents_[dep_begin_[i] ..
  /// dep_begin_[i + 1]), ascending (validate_workload's flat graph).
  std::vector<std::uint32_t> dep_begin_;
  std::vector<std::uint32_t> dependents_;
  std::vector<std::uint8_t> resolved_;
  std::priority_queue<Armed, std::vector<Armed>, std::greater<>> armed_;

  /// emit_order_[pid - 1] = transfer index (packet ids are assigned 1..N in
  /// emission order; foreign ids — e.g. pretrain's 2^32+ space — fall
  /// outside the range and are ignored).
  std::vector<std::uint32_t> emit_order_;

  std::uint64_t emitted_count_ = 0;
  std::uint64_t retired_count_ = 0;
  std::uint64_t abandoned_count_ = 0;
  std::uint64_t blocked_count_ = 0;
};

}  // namespace rlftnoc
