// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#include "noc/ni.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "coding/crc.h"
#include "common/rng.h"
#include "noc/network.h"
#include "noc/node_hot.h"
#include "noc/topology.h"

namespace rlftnoc {

Packet make_packet(PacketId id, NodeId src, NodeId dst, int len, Cycle now, Rng& rng) {
  if (len < 1 || len > kMaxPacketFlits)
    throw std::invalid_argument("make_packet: len " + std::to_string(len) +
                                " outside [1, " +
                                std::to_string(kMaxPacketFlits) + "]");
  Packet pkt;
  pkt.id = id;
  pkt.src = src;
  pkt.dst = dst;
  pkt.inject_cycle = now;
  pkt.flits.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    Flit f;
    f.packet_id = id;
    f.seq = static_cast<std::uint16_t>(i);
    f.packet_len = static_cast<std::uint16_t>(len);
    f.src = src;
    f.dst = dst;
    f.packet_inject_cycle = now;
    if (len == 1) {
      f.type = FlitType::kHeadTail;
    } else if (i == 0) {
      f.type = FlitType::kHead;
    } else if (i == len - 1) {
      f.type = FlitType::kTail;
    } else {
      f.type = FlitType::kBody;
    }
    f.payload = BitVec128(rng.next_u64(), rng.next_u64());
    f.crc = default_crc32().compute(f.payload);
    pkt.flits.push_back(std::move(f));
  }
  return pkt;
}

NetworkInterface::NetworkInterface(NodeId id, const NocConfig* cfg, Network* net)
    : id_(id), cfg_(cfg), net_(net) {
  local_vcs_.resize(static_cast<std::size_t>(cfg_->vcs_per_port));
  // Credits mirror the router's Local input VC buffers.
  for (auto& vc : local_vcs_) vc.credits = cfg_->vc_depth;
}

bool NetworkInterface::enqueue_packet(Packet pkt) {
  if (static_cast<int>(queue_.size()) >= cfg_->ni_queue_limit) {
    ++counters_.queue_rejects;
    return false;
  }
  ++counters_.packets_enqueued;
  queue_.push_back(std::move(pkt));
  // Serial context (workloads enqueue between cycles): a sleeping network
  // must learn this NI has work again, or lookahead would skip the
  // injection.
  net_->wake_node(id_);
  return true;
}

void NetworkInterface::receive(Cycle now) {
  if (lanes_->b[lane_byte::kEjFlits] == 0) return;
  ChannelPair& ej = *ej_;
  while (auto f = ej.flits.pop(now)) {
    RLFTNOC_CHECK(f->vc >= 0 && f->vc < cfg_->vcs_per_port,
                  "NI %d: ejected flit carries invalid vc %d", id_, f->vc);
    ++counters_.flits_ejected;
    net_->record_power(id_, PowerEvent::kCrcDecode);
    ej.credits.push(now, Credit{f->vc});

    // Generation filtering (hard-fault recovery): a straggler of an already
    // finalized generation, or of an older generation than the one being
    // assembled, must not corrupt the current reassembly. Fault-free runs
    // never take these branches (attempt stays 0 until a re-injection).
    if (const auto fin = finalized_attempt_.find(f->packet_id);
        fin != finalized_attempt_.end() && f->attempt <= fin->second) {
      ++counters_.stale_flit_drops;
      continue;
    }

    Assembly& a = assembling_[f->packet_id];
    if (a.expected != 0 && f->attempt < a.attempt) {
      // Old-generation straggler arriving behind the newer re-injection; its
      // ejection was already counted above, so dropping it is conservation-
      // neutral.
      ++counters_.stale_flit_drops;
      continue;
    }
    if (a.expected == 0 || f->attempt > a.attempt) {
      // Fresh assembly, or a newer generation overtaking a partial old one.
      a = Assembly{};
      a.src = f->src;
      a.expected = f->packet_len;
      a.packet_inject_cycle = f->packet_inject_cycle;
      a.attempt = f->attempt;
    }

    const bool crc_ok = default_crc32().compute(f->payload) == f->crc;
    if (!crc_ok) ++counters_.crc_flit_failures;
    ++a.received;
    a.crc_failed = a.crc_failed || !crc_ok;
    if (a.received >= a.expected) {
      finalize_packet(now, f->packet_id, a);
      assembling_.erase(f->packet_id);
    }
  }
}

void NetworkInterface::finalize_packet(Cycle now, PacketId id, const Assembly& a) {
  // Remember the finalized generation for re-injected packets so stragglers
  // of this generation cannot re-open a ghost assembly later. Bounded by the
  // number of packets that ever needed an end-to-end retransmission.
  if (a.attempt > 0) finalized_attempt_[id] = a.attempt;
  // Runs inside the parallel receive phase: every global-sink mutation —
  // NetworkMetrics counters, the FP latency accumulators, path-latency
  // credits to routers outside this shard, and the e2e response (whose
  // global tie-break seq must be assigned in canonical order) — is staged
  // into the shard buffer and merged after the phase barrier.
  const int hops = net_->topology().distance(id_, a.src);
  const Cycle response_at =
      now + static_cast<Cycle>(cfg_->e2e_ack_fixed_cycles +
                               cfg_->e2e_ack_cycles_per_hop * hops);
  // The control message (ACK or retransmission request) hops back across the
  // network; charge its link energy here in one lump.
  net_->record_power(id_, PowerEvent::kAckFlit, static_cast<std::uint64_t>(hops + 1));

  if (!a.crc_failed) {
    ++counters_.packets_delivered;
    ++fx_->packets_delivered;
    fx_->flits_delivered += a.expected;
    fx_->latency_samples.push_back(
        static_cast<double>(now - a.packet_inject_cycle));
    // Credit the path with the *per-hop* latency: dividing by path length
    // removes the path-length mix from the reward's variance while keeping
    // the congestion / retransmission signal intact. The path is walked
    // here, in the parallel phase: the route LUT only changes in the serial
    // fault window at the top of a step.
    std::vector<NodeId>& path = fx_->path_nodes;
    const auto first = static_cast<std::uint32_t>(path.size());
    net_->topology().for_each_path_node(
        a.src, id_, [&path](NodeId n) { path.push_back(n); });
    fx_->path_credits.push_back(StepEffects::StagedPathCredit{
        first, static_cast<std::uint32_t>(path.size()),
        static_cast<double>(now - a.packet_inject_cycle) / (hops + 1)});
    fx_->e2e.push_back(
        StepEffects::StagedE2e{response_at, a.src, id, /*ok=*/true});
  } else {
    ++counters_.packets_crc_failed;
    ++fx_->crc_packet_failures;
    RLFTNOC_TRACE(trace_, TraceEventKind::kCrcPacketFail, now, id_, -1,
                  static_cast<std::int32_t>(a.expected));
    fx_->e2e.push_back(
        StepEffects::StagedE2e{response_at, a.src, id, /*ok=*/false});
  }
}

void NetworkInterface::deliver_e2e_response(Cycle now, PacketId id, bool ok) {
  const auto it = retained_.find(id);
  if (it == retained_.end()) return;  // already resolved (shouldn't happen)
  if (ok) {
    retained_.erase(it);
    return;
  }
  // Destination CRC failed: retransmit the whole packet from source.
  ++counters_.packets_reinjected;
  NetworkMetrics& m = net_->metrics();
  ++m.packet_e2e_retransmissions;
  m.retx_flits_e2e += it->second.flits.size();
  RLFTNOC_TRACE(net_->tracer(), TraceEventKind::kE2eRetx, now, id_, -1,
                static_cast<std::int32_t>(it->second.flits.size()));
  net_->record_power(id_, PowerEvent::kRetransmission);
  // Bump the injection generation on the retained master copy so the next
  // transmission (and any after it) is distinguishable from stragglers of
  // the failed one. Sideband only: fault-free results are unchanged.
  for (Flit& f : it->second.flits) ++f.attempt;
  reinject_.push_back(it->second);  // pristine copy, original inject_cycle kept
}

// --------------------------------------------------------------------------
// Hard-fault teardown (serial context — called by the Network between steps)
// --------------------------------------------------------------------------

void NetworkInterface::purge_unreachable(
    const Topology& topo, std::vector<std::pair<PacketId, NodeId>>& orphans) {
  PacketResolutionListener* rl = net_->resolution_listener();
  const Cycle now = net_->now();
  const auto lost_dst = [&](NodeId dst) {
    return !topo.router_alive(dst) || !topo.reachable(id_, dst);
  };
  queue_.remove_if([&](const Packet& p) {
    if (!lost_dst(p.dst)) return false;
    ++counters_.packets_abandoned;
    if (rl != nullptr) rl->on_packet_abandoned(now, p.id);
    return true;
  });
  // Reinject copies share identity with their retained master, which is
  // counted below — dropping the copy is not a second abandonment.
  reinject_.remove_if([&](const Packet& p) { return lost_dst(p.dst); });
  // Orphans feed the network's reassembly/e2e repair sweep, so their order
  // must not depend on hash-map traversal: snapshot the doomed ids, sort,
  // then erase in ascending PacketId order.
  std::vector<PacketId> doomed;
  // rlftnoc-lint: allow(R1) key snapshot is sorted below; order cannot escape
  for (const auto& [id, pkt] : retained_) {
    if (lost_dst(pkt.dst)) doomed.push_back(id);
  }
  std::sort(doomed.begin(), doomed.end());
  for (const PacketId id : doomed) {
    const auto it = retained_.find(id);
    orphans.emplace_back(id, it->second.dst);
    ++counters_.packets_abandoned;
    if (rl != nullptr) rl->on_packet_abandoned(now, id);
    retained_.erase(it);
  }
  // An in-progress `sending_` worm is deliberately left alone: its flits are
  // already interleaved with the router pipeline, and the RC unreachable
  // rule drops the complete worm at the first hop. With the retained entry
  // gone there is no path back to a retransmission.
}

void NetworkInterface::purge_for_router_kill(
    std::vector<std::pair<PacketId, NodeId>>& orphans) {
  PacketResolutionListener* rl = net_->resolution_listener();
  const Cycle now = net_->now();
  counters_.packets_abandoned +=
      static_cast<std::uint64_t>(queue_.size() + retained_.size());
  // Same discipline as purge_unreachable: orphans leave this function in
  // sorted PacketId order, never in hash order.
  const std::size_t first_orphan = orphans.size();
  // rlftnoc-lint: allow(R1) snapshot sorted below; order cannot escape
  for (const auto& [id, pkt] : retained_) orphans.emplace_back(id, pkt.dst);
  std::sort(orphans.begin() + static_cast<std::ptrdiff_t>(first_orphan),
            orphans.end());
  if (rl != nullptr) {
    // Queued packets drain in FIFO order, retained ones in the sorted
    // orphan order — both canonical, never hash order.
    queue_.remove_if([&](const Packet& p) {
      rl->on_packet_abandoned(now, p.id);
      return true;
    });
    for (std::size_t i = first_orphan; i < orphans.size(); ++i) {
      rl->on_packet_abandoned(now, orphans[i].first);
    }
  }
  queue_.clear();
  reinject_.clear();
  retained_.clear();
  assembling_.clear();
  finalized_attempt_.clear();
  sending_.reset();
  sending_is_reinject_ = false;
  next_flit_ = 0;
  send_vc_ = kInvalidVc;
  for (auto& vc : local_vcs_) {
    vc.busy = false;
    vc.credits = cfg_->vc_depth;
  }
}

void NetworkInterface::abandon_retained(PacketId id) {
  if (retained_.erase(id) > 0) {
    ++counters_.packets_abandoned;
    PacketResolutionListener* rl = net_->resolution_listener();
    if (rl != nullptr) rl->on_packet_abandoned(net_->now(), id);
  }
  reinject_.remove_if([&](const Packet& p) { return p.id == id; });
}

void NetworkInterface::start_next_packet(Cycle /*now*/) {
  RLFTNOC_CHECK(!sending_, "NI %d: start_next_packet while mid-packet", id_);
  Packet pkt;
  bool fresh = false;
  if (!reinject_.empty()) {
    pkt = std::move(reinject_.front());
    reinject_.pop_front();
  } else if (!queue_.empty()) {
    pkt = std::move(queue_.front());
    queue_.pop_front();
    fresh = true;
  } else {
    return;
  }

  // Pick any local VC with credit headroom; we send one packet at a time so
  // at most one VC is ever busy.
  VcId best = kInvalidVc;
  int best_credits = 0;
  for (VcId v = 0; v < static_cast<VcId>(local_vcs_.size()); ++v) {
    const LocalVc& vc = local_vcs_[static_cast<std::size_t>(v)];
    if (!vc.busy && vc.credits > best_credits) {
      best = v;
      best_credits = vc.credits;
    }
  }
  if (best == kInvalidVc) {
    // All VCs exhausted; retry next cycle.
    if (fresh) {
      queue_.push_front(std::move(pkt));
    } else {
      reinject_.push_front(std::move(pkt));
    }
    return;
  }

  if (fresh) {
    ++counters_.packets_injected;
    ++fx_->packets_injected;  // staged: runs inside the parallel execute phase
    retained_[pkt.id] = pkt;  // keep the pristine copy until the e2e ACK
  }
  send_vc_ = best;
  local_vcs_[static_cast<std::size_t>(best)].busy = true;
  next_flit_ = 0;
  sending_is_reinject_ = !fresh;
  sending_ = std::move(pkt);
}

void NetworkInterface::execute(Cycle now) {
  ChannelPair& inj = *inj_;
  if (lanes_->b[lane_byte::kInjCredits] != 0) {
    while (auto c = inj.credits.pop(now))
      ++local_vcs_[static_cast<std::size_t>(c->vc)].credits;
  }

  if (!sending_) start_next_packet(now);
  if (!sending_) return;

  LocalVc& vc = local_vcs_[static_cast<std::size_t>(send_vc_)];
  if (vc.credits <= 0) return;

  Flit flit = sending_->flits[next_flit_];
  flit.vc = send_vc_;
  --vc.credits;
  net_->record_power(id_, PowerEvent::kCrcEncode);
  inj.flits.push(now, std::move(flit));
  ++counters_.flits_sent;
  if (!sending_is_reinject_) ++counters_.flits_sent_fresh;

  if (++next_flit_ >= sending_->flits.size()) {
    sending_.reset();
    vc.busy = false;
    send_vc_ = kInvalidVc;
  }
}

}  // namespace rlftnoc
