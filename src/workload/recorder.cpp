#include "workload/recorder.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>

#include "common/check.h"
#include "noc/flit.h"

namespace rlftnoc {
namespace {

void grow_anchor(std::vector<std::uint64_t>& v, NodeId node) {
  const std::size_t need = static_cast<std::size_t>(node) + 1;
  if (v.size() < need) v.resize(need, 0);
}

}  // namespace

WorkloadRecorder::WorkloadRecorder(TrafficGenerator& inner) : inner_(inner) {}

void WorkloadRecorder::tick(Cycle now, std::vector<Packet>& out) {
  if (!started_) {
    started_ = true;
    base_ = now;
  }
  const std::size_t before = out.size();
  inner_.tick(now, out);
  for (std::size_t i = before; i < out.size(); ++i) note_packet(now, out[i]);
}

void WorkloadRecorder::note_packet(Cycle now, const Packet& p) {
  RLFTNOC_CHECK(p.src >= 0 && p.dst >= 0, "recorder: packet %llu has invalid endpoints",
                static_cast<unsigned long long>(p.id));
  WorkloadTransfer t;
  t.id = static_cast<std::uint64_t>(wl_.transfers.size()) + 1;
  t.src = p.src;
  t.dst = p.dst;
  t.len = static_cast<int>(p.flits.size());
  t.earliest_cycle = now - base_;
  grow_anchor(last_completed_from_, p.src);
  grow_anchor(last_completed_into_, p.src);
  // Anchors hold completions observed in earlier cycles' serial drains, so
  // every recorded dependency resolved strictly before this tick — replay
  // at earliest_cycle can never be held back by them.
  const std::uint64_t resp_to =
      last_completed_into_[static_cast<std::size_t>(p.src)];
  const std::uint64_t program_order =
      last_completed_from_[static_cast<std::size_t>(p.src)];
  std::array<std::uint64_t, 2> deps{};
  std::size_t ndeps = 0;
  if (resp_to != 0) deps[ndeps++] = resp_to;
  if (program_order != 0 && program_order != resp_to) deps[ndeps++] = program_order;
  std::sort(deps.begin(), deps.begin() + static_cast<std::ptrdiff_t>(ndeps));
  pid_to_tid_.emplace(p.id, t.id);
  wl_.add(t, std::span(deps.data(), ndeps));
  resolved_.push_back(0);
}

void WorkloadRecorder::on_packet_delivered(Cycle /*now*/, NodeId /*src*/,
                                           PacketId id) {
  const auto it = pid_to_tid_.find(id);
  if (it == pid_to_tid_.end()) return;  // foreign id (e.g. pretrain traffic)
  const std::uint64_t tid = it->second;
  std::uint8_t& done = resolved_[static_cast<std::size_t>(tid - 1)];
  if (done != 0) return;
  done = 1;
  const WorkloadTransfer& t = wl_.transfers[static_cast<std::size_t>(tid - 1)];
  grow_anchor(last_completed_from_, t.src);
  grow_anchor(last_completed_into_, t.dst);
  last_completed_from_[static_cast<std::size_t>(t.src)] = tid;
  last_completed_into_[static_cast<std::size_t>(t.dst)] = tid;
}

void WorkloadRecorder::on_packet_abandoned(Cycle /*now*/, PacketId id) {
  const auto it = pid_to_tid_.find(id);
  if (it == pid_to_tid_.end()) return;  // foreign id
  // Mark resolved without updating the anchors: an abandoned transfer never
  // becomes a dependency (no endpoint can have observed its completion).
  resolved_[static_cast<std::size_t>(it->second - 1)] = 1;
}

Workload WorkloadRecorder::finish() const {
  Workload wl = wl_;
  wl.name = inner_.name();
  return wl;
}

}  // namespace rlftnoc
