// Run recorder: captures any live simulation into a replayable workload.
//
// WorkloadRecorder wraps the run's TrafficGenerator as a transparent
// decorator — tick/exhausted/name forward to the inner generator and the
// emitted packets pass through untouched, so recording never perturbs the
// run being recorded. Each emitted packet becomes one WorkloadTransfer with
// `earliest_cycle` relative to the first tick (the injection-window start),
// and dependencies are inferred from the packet-resolution feed
// (noc/completion.h):
//
//  * request/response pairing — a packet sourced at node S depends on the
//    most recent completed transfer that was *delivered into* S (the
//    transfer it plausibly responds to);
//  * completion order — it also depends on the most recent completed
//    transfer previously *sourced by* S (program order at the endpoint:
//    S observed that completion before issuing this packet).
//
// Both rules only consider completions observed strictly before the packet's
// tick, so the recorded `earliest_cycle` always satisfies every recorded
// dependency. Replaying the file (workload/replay.h) therefore re-injects
// the exact original packet stream — same cycles, same order — and
// reproduces the original run's SimResult aggregates. Abandoned packets
// never become dependency anchors (nothing at the endpoint can have waited
// on them).
//
// Output is byte-deterministic: transfers are recorded in emission order
// with sequential ids, and write_workload emits a canonical layout.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "noc/completion.h"
#include "traffic/traffic.h"
#include "workload/workload.h"

namespace rlftnoc {

class WorkloadRecorder final : public TrafficGenerator,
                               public PacketResolutionListener {
 public:
  /// Wraps `inner`, which must outlive the recorder.
  explicit WorkloadRecorder(TrafficGenerator& inner);

  void tick(Cycle now, std::vector<Packet>& out) override;
  bool exhausted() const override { return inner_.exhausted(); }
  const std::string& name() const override { return inner_.name(); }

  // -- PacketResolutionListener (serial contexts only; see noc/completion.h) --
  void on_packet_delivered(Cycle now, NodeId src, PacketId id) override;
  void on_packet_abandoned(Cycle now, PacketId id) override;

  /// Snapshot of everything recorded so far as a replayable workload
  /// (named after the inner generator). Callable at any point; the standard
  /// flow takes it once after the run completes.
  Workload finish() const;

  std::size_t transfers_recorded() const noexcept { return wl_.transfers.size(); }

 private:
  void note_packet(Cycle now, const Packet& p);

  TrafficGenerator& inner_;
  bool started_ = false;
  Cycle base_ = 0;  ///< absolute cycle of the first tick

  Workload wl_;  ///< everything recorded so far (named by finish())
  std::vector<std::uint8_t> resolved_;  ///< parallel to wl_.transfers
  /// Lookup-only: live packet id -> transfer id (1-based index).
  std::unordered_map<PacketId, std::uint64_t> pid_to_tid_;
  /// Per-node dependency anchors (0 = none yet): the most recent *completed*
  /// transfer sourced by / delivered into each node.
  std::vector<std::uint64_t> last_completed_from_;
  std::vector<std::uint64_t> last_completed_into_;
};

}  // namespace rlftnoc
