#include "workload/replay.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "noc/ni.h"

namespace rlftnoc {

WorkloadReplayTraffic::WorkloadReplayTraffic(Workload wl, int num_nodes,
                                             std::uint64_t seed)
    : wl_(std::move(wl)),
      rng_(seed, "workload-payload"),
      name_(wl_.name.empty() ? std::string("workload") : wl_.name) {
  WorkloadDependents graph = validate_workload(wl_, num_nodes);
  const std::size_t n = wl_.transfers.size();
  dep_begin_ = std::move(graph.dep_begin);
  dependents_ = std::move(graph.dependents);
  pending_deps_.resize(n);
  resolved_.assign(n, 0);
  emit_order_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pending_deps_[i] = static_cast<std::uint32_t>(wl_.deps(i).size());
    if (pending_deps_[i] == 0) {
      armed_.push(Armed{wl_.transfers[i].earliest_cycle,
                        static_cast<std::uint32_t>(i)});
    } else {
      ++blocked_count_;
    }
  }
}

void WorkloadReplayTraffic::tick(Cycle now, std::vector<Packet>& out) {
  if (!started_) {
    started_ = true;
    base_ = now;
  }
  const Cycle rel = now - base_;
  while (!armed_.empty() && armed_.top().ready <= rel) {
    const std::uint32_t idx = armed_.top().idx;
    armed_.pop();
    const WorkloadTransfer& t =
        wl_.transfers[static_cast<std::size_t>(idx)];
    const PacketId pid = static_cast<PacketId>(emit_order_.size()) + 1;
    emit_order_.push_back(idx);
    ++emitted_count_;
    out.push_back(make_packet(pid, t.src, t.dst, t.len, now, rng_));
  }
}

void WorkloadReplayTraffic::on_packet_delivered(Cycle now, NodeId /*src*/,
                                                PacketId id) {
  if (id == 0 || id > emit_order_.size()) return;  // not one of ours
  resolve(emit_order_[static_cast<std::size_t>(id - 1)],
          now - base_ + 1, /*delivered=*/true);
}

void WorkloadReplayTraffic::on_packet_abandoned(Cycle now, PacketId id) {
  if (id == 0 || id > emit_order_.size()) return;  // not one of ours
  resolve(emit_order_[static_cast<std::size_t>(id - 1)],
          now - base_ + 1, /*delivered=*/false);
}

void WorkloadReplayTraffic::resolve(std::uint32_t idx, Cycle rel_release,
                                    bool delivered) {
  if (resolved_[idx] != 0) return;  // late duplicate (e.g. retx stragglers)
  resolved_[idx] = 1;
  if (delivered) {
    ++retired_count_;
  } else {
    ++abandoned_count_;
  }
  for (std::uint32_t k = dep_begin_[idx]; k < dep_begin_[idx + 1]; ++k) {
    const std::uint32_t d = dependents_[k];
    RLFTNOC_CHECK(pending_deps_[d] > 0, "workload replay: dependent %u of %u already released",
                  d, idx);
    if (--pending_deps_[d] == 0) {
      --blocked_count_;
      armed_.push(Armed{
          std::max(wl_.transfers[static_cast<std::size_t>(d)].earliest_cycle,
                   rel_release),
          d});
    }
  }
}

}  // namespace rlftnoc
