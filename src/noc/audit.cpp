#include "noc/audit.h"

#include <map>
#include <sstream>

#include "noc/network.h"

namespace rlftnoc {

namespace {

/// Longest channel occupancy the router can reserve (mode-3 stretched
/// transfer holds the wire for three cycles).
constexpr Cycle kMaxChannelOccupancy = 3;

AuditViolation make_violation(std::string invariant, Cycle cycle, NodeId node,
                              std::string detail) {
  AuditViolation v;
  v.invariant = std::move(invariant);
  v.cycle = cycle;
  v.node = node;
  v.detail = std::move(detail);
  return v;
}

AuditViolation make_violation(std::string invariant, Cycle cycle, NodeId node,
                              Port port, std::string detail) {
  AuditViolation v = make_violation(std::move(invariant), cycle, node,
                                    std::move(detail));
  v.port = port;
  v.has_port = true;
  return v;
}

/// Entries of a delay line whose value carries a matching VcId.
template <typename T>
int lane_count_for_vc(const DelayLine<T>& lane, VcId vc) {
  int n = 0;
  lane.for_each([&](const T& entry) {
    if (entry.vc == vc) ++n;
  });
  return n;
}

}  // namespace

std::string AuditViolation::to_string() const {
  std::ostringstream os;
  os << "cycle " << cycle;
  if (node != kInvalidNode) os << " router " << node;
  if (has_port) os << " port " << port_name(port);
  os << ": " << invariant << ": " << detail;
  return os.str();
}

AuditError::AuditError(AuditViolation v)
    : std::runtime_error("invariant audit failed: " + v.to_string()),
      violation_(std::move(v)) {}

std::vector<AuditViolation> NetworkAuditor::run(const Network& net) {
  std::vector<AuditViolation> out;
  audit_flit_conservation(net, out);
  audit_credit_balance(net, out);
  audit_vc_bounds(net, out);
  audit_arq_consistency(net, out);
  audit_allocation_structure(net, out);
  audit_ni_state(net, out);
  audit_parallel_staging(net, out);
  audit_mask_consistency(net, out);
  audit_sizing(net, out);
  if (out.empty()) ++clean_passes_;
  return out;
}

void NetworkAuditor::check_or_throw(const Network& net) {
  std::vector<AuditViolation> violations = run(net);
  if (!violations.empty()) throw AuditError(std::move(violations.front()));
}

// ---------------------------------------------------------------------------
// 1. Flit conservation: created == destroyed + alive.
// ---------------------------------------------------------------------------

void NetworkAuditor::audit_flit_conservation(
    const Network& net, std::vector<AuditViolation>& out) const {
  const int n = net.config().num_nodes();
  std::uint64_t injected = 0;       // NI flits_sent (fresh + e2e reinjections)
  std::uint64_t link_copies = 0;    // hop resends + mode-2 duplicates
  std::uint64_t delivered = 0;      // ejected at destination NIs
  std::uint64_t dropped_by_arq = 0; // NACK-rejected + duplicate-discarded
  std::uint64_t fault_drops = 0;    // destroyed by hard-fault teardown
  std::uint64_t alive = 0;          // channels + input VC buffers

  for (NodeId node = 0; node < n; ++node) {
    const NiCounters& nc = net.ni(node).counters();
    injected += nc.flits_sent;
    delivered += nc.flits_ejected;

    const Router& r = net.router(node);
    const RouterCounters& rc = r.counters();
    link_copies += rc.hop_retransmissions + rc.preretx_duplicates;
    dropped_by_arq += rc.dup_discards;
    for (std::size_t p = 0; p < kNumPorts; ++p)
      dropped_by_arq += rc.nacks_sent[p];
    fault_drops += rc.fault_drops;
    alive += static_cast<std::uint64_t>(r.buffered_flits());

    alive += net.inj_[static_cast<std::size_t>(node)].flits.size();
    alive += net.ej_[static_cast<std::size_t>(node)].flits.size();
  }
  for (const auto& ch : net.out_ch_) {
    alive += ch.flits.size();
  }
  // Flits destroyed on dead wires (hard faults) are tracked network-wide.
  fault_drops += net.wire_kill_drops();

  const std::uint64_t created = injected + link_copies;
  const std::uint64_t accounted =
      delivered + dropped_by_arq + fault_drops + alive;
  if (created != accounted) {
    std::ostringstream os;
    os << "flit instances created (" << created << " = " << injected
       << " injected + " << link_copies << " link copies) != accounted ("
       << accounted << " = " << delivered << " delivered + " << dropped_by_arq
       << " ARQ-dropped + " << fault_drops << " fault-dropped + " << alive
       << " in flight)";
    out.push_back(
        make_violation("flit-conservation", net.now(), kInvalidNode, os.str()));
  }
}

// ---------------------------------------------------------------------------
// 2. Credit balance per channel.
// ---------------------------------------------------------------------------

void NetworkAuditor::audit_credit_balance(
    const Network& net, std::vector<AuditViolation>& out) const {
  const NocConfig& cfg = net.config();
  const int n = cfg.num_nodes();
  const auto vcs = static_cast<std::size_t>(cfg.vcs_per_port);

  for (NodeId node = 0; node < n; ++node) {
    const Router& r = net.router(node);
    const NetworkInterface& ni = net.ni(node);

    // Ejection loop (router Local output -> NI): no ARQ, exact every cycle.
    // The NI frees its slot the cycle a flit matures, so occupancy is the
    // flits still travelling the ejection wire.
    const ChannelPair& ej = net.ej_[static_cast<std::size_t>(node)];
    const Router::OutputPort& lop = r.output_[port_index(Port::kLocal)];
    for (std::size_t v = 0; v < vcs; ++v) {
      const auto vc = static_cast<VcId>(v);
      const int credits = lop.vcs[v].credits;
      const int lane = lane_count_for_vc(ej.credits, vc);
      const int wire = lane_count_for_vc(ej.flits, vc);
      if (credits < 0 || credits + lane + wire != cfg.local_vc_depth) {
        std::ostringstream os;
        os << "ejection vc " << v << ": credits " << credits << " + in-flight "
           << lane << " + on-wire " << wire << " != depth "
           << cfg.local_vc_depth;
        out.push_back(make_violation("credit-balance", net.now(), node,
                                     Port::kLocal, os.str()));
      }
    }

    // Injection loop (NI -> router Local input): no ARQ, exact every cycle.
    const ChannelPair& inj = net.inj_[static_cast<std::size_t>(node)];
    for (std::size_t v = 0; v < vcs; ++v) {
      const auto vc = static_cast<VcId>(v);
      const int credits = ni.local_vcs_[v].credits;
      const int lane = lane_count_for_vc(inj.credits, vc);
      const int wire = lane_count_for_vc(inj.flits, vc);
      const int fifo = static_cast<int>(
          r.input_[r.ivc_bit(port_index(Port::kLocal), v)].fifo.size());
      if (credits < 0 || credits + lane + wire + fifo != cfg.vc_depth) {
        std::ostringstream os;
        os << "injection vc " << v << ": credits " << credits << " + in-flight "
           << lane << " + on-wire " << wire << " + buffered " << fifo
           << " != depth " << cfg.vc_depth;
        out.push_back(make_violation("credit-balance", net.now(), node,
                                     Port::kLocal, os.str()));
      }
    }

    // Mesh channels: rejected copies awaiting resend absorb slots that are
    // not visible from either end, so the every-cycle check is the sound
    // upper bound; exact equality is enforced whenever the port is
    // ARQ-quiescent (no wire traffic, no pending ACKs, no retention).
    for (const Port p : {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
      if (!net.out_alive_[net.link_index(node, p)]) continue;
      const ChannelPair* ch = &net.out_ch_[net.link_index(node, p)];
      const NodeId down = net.topology().neighbor(node, p);
      const Router& dr = net.router(down);
      const Router::OutputPort& op = r.output_[port_index(p)];
      const bool quiescent = ch->flits.empty() && ch->acks.empty() &&
                             op.retention.empty() && op.retx_queue.empty() &&
                             op.dup_queue.empty();
      for (std::size_t v = 0; v < vcs; ++v) {
        const auto vc = static_cast<VcId>(v);
        const int credits = op.vcs[v].credits;
        const int lane = lane_count_for_vc(ch->credits, vc);
        const int fifo = static_cast<int>(
            dr.input_[dr.ivc_bit(port_index(opposite(p)), v)].fifo.size());
        const int total = credits + lane + fifo;
        const bool bad_bound = credits < 0 || credits > cfg.vc_depth ||
                               total > cfg.vc_depth;
        const bool bad_exact = quiescent && total != cfg.vc_depth;
        if (bad_bound || bad_exact) {
          std::ostringstream os;
          os << "vc " << v << ": credits " << credits << " + in-flight " << lane
             << " + downstream occupancy " << fifo
             << (bad_bound ? " exceeds depth " : " != depth (quiescent) ")
             << cfg.vc_depth;
          out.push_back(
              make_violation("credit-balance", net.now(), node, p, os.str()));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. VC depth bounds.
// ---------------------------------------------------------------------------

void NetworkAuditor::audit_vc_bounds(const Network& net,
                                     std::vector<AuditViolation>& out) const {
  const NocConfig& cfg = net.config();
  for (NodeId node = 0; node < cfg.num_nodes(); ++node) {
    const Router& r = net.router(node);
    for (const Port p : kAllPorts) {
      for (std::size_t v = 0; v < static_cast<std::size_t>(cfg.vcs_per_port);
           ++v) {
        const Router::InputVc& iv = r.input_[r.ivc_bit(port_index(p), v)];
        const auto depth = static_cast<std::size_t>(cfg.vc_depth);
        if (iv.fifo.size() > depth) {
          std::ostringstream os;
          os << "input vc " << v << " holds " << iv.fifo.size()
             << " flits, depth " << depth;
          out.push_back(
              make_violation("vc-depth", net.now(), node, p, os.str()));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 4. ARQ retransmission bookkeeping.
// ---------------------------------------------------------------------------

void NetworkAuditor::audit_arq_consistency(
    const Network& net, std::vector<AuditViolation>& out) const {
  const NocConfig& cfg = net.config();
  for (NodeId node = 0; node < cfg.num_nodes(); ++node) {
    const Router& r = net.router(node);
    for (const Port p : {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
      if (!net.out_alive_[net.link_index(node, p)]) continue;
      const Router::OutputPort& op = r.output_[port_index(p)];
      const auto fail = [&](const std::string& detail) {
        out.push_back(
            make_violation("arq-consistency", net.now(), node, p, detail));
      };

      if (static_cast<int>(op.retention.size()) > cfg.retention_depth) {
        std::ostringstream os;
        os << "retention holds " << op.retention.size() << " entries, depth "
           << cfg.retention_depth;
        fail(os.str());
      }
      if (op.busy_until > net.now() + kMaxChannelOccupancy) {
        std::ostringstream os;
        os << "busy_until " << op.busy_until << " is more than "
           << kMaxChannelOccupancy << " cycles past now " << net.now();
        fail(os.str());
      }

      // Ordered map: which inconsistency gets reported first must not
      // depend on hash traversal order (the audit aborts on the first one).
      std::map<FlitId, const ArqRetention*> retained;
      const ArqRetention* prev = nullptr;
      op.retention.for_each([&](FlitId key, const ArqRetention& ret) {
        // Entries are appended at first transmission, so the ring holds them
        // in ascending lsn; lookups and go-back-N resolution rely on it.
        if (prev != nullptr && ret.clean.lsn <= prev->clean.lsn) {
          std::ostringstream os;
          os << "retention out of send order: flit " << key << " lsn "
             << ret.clean.lsn << " follows lsn " << prev->clean.lsn;
          fail(os.str());
        }
        prev = &ret;
        if (!retained.emplace(key, &ret).second) {
          std::ostringstream os;
          os << "duplicate retention entry for flit " << key;
          fail(os.str());
        }
        if (ret.unresolved < 0) {
          std::ostringstream os;
          os << "retention entry for flit " << key
             << " has negative unresolved count " << ret.unresolved;
          fail(os.str());
        }
      });

      std::map<FlitId, int> queued;
      op.retx_queue.for_each([&](const FlitId id) { ++queued[id]; });
      for (const auto& [id, count] : queued) {
        const auto it = retained.find(id);
        if (count != 1 || it == retained.end() || !it->second->resend_queued) {
          std::ostringstream os;
          os << "retx queue entry for flit " << id << " (x" << count
             << ") lacks a matching retention entry with resend_queued set";
          fail(os.str());
        }
      }
      for (const auto& [id, ret] : retained) {
        if (ret->resend_queued && queued.find(id) == queued.end()) {
          std::ostringstream os;
          os << "retention entry for flit " << id
             << " claims resend_queued but is not in the retx queue";
          fail(os.str());
        }
      }
      op.dup_queue.for_each([&](const Router::OutputPort::PendingDup& dup) {
        if (retained.find(dup.id) == retained.end()) {
          std::ostringstream os;
          os << "pending duplicate of flit " << dup.id
             << " has no retention entry";
          fail(os.str());
        }
      });

      // Link sequence numbers: nothing on the wire or expected downstream
      // may run ahead of the sender's stamp counter.
      const ChannelPair* ch = &net.out_ch_[net.link_index(node, p)];
      bool lsn_ok = true;
      ch->flits.for_each([&](const Flit& f) {
        if (f.lsn >= op.next_lsn) lsn_ok = false;
      });
      if (!lsn_ok) {
        std::ostringstream os;
        os << "flit on the wire carries lsn >= sender next_lsn "
           << op.next_lsn;
        fail(os.str());
      }
      const NodeId down = net.topology().neighbor(node, p);
      const std::uint64_t expected =
          net.router(down).input_arq_[port_index(opposite(p))].expected_lsn;
      if (expected > op.next_lsn) {
        std::ostringstream os;
        os << "receiver expects lsn " << expected
           << " beyond sender next_lsn " << op.next_lsn;
        fail(os.str());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 5. Switch-allocation structure.
// ---------------------------------------------------------------------------

void NetworkAuditor::audit_allocation_structure(
    const Network& net, std::vector<AuditViolation>& out) const {
  const NocConfig& cfg = net.config();
  const auto vcs = static_cast<std::size_t>(cfg.vcs_per_port);
  for (NodeId node = 0; node < cfg.num_nodes(); ++node) {
    const Router& r = net.router(node);
    std::array<std::vector<int>, kNumPorts> claims;
    for (auto& c : claims) c.assign(vcs, 0);
    for (std::size_t in_pi = 0; in_pi < kNumPorts; ++in_pi) {
      for (std::size_t v = 0; v < vcs; ++v) {
        const Router::InputVc& iv = r.input_[r.ivc_bit(in_pi, v)];
        if (iv.state != Router::InputVc::State::kActive) continue;
        if (iv.out_vc < 0 || iv.out_vc >= cfg.vcs_per_port) {
          std::ostringstream os;
          os << "active input vc on port " << in_pi
             << " holds invalid output vc " << iv.out_vc;
          out.push_back(make_violation("sa-structure", net.now(), node,
                                       static_cast<Port>(in_pi), os.str()));
          continue;
        }
        ++claims[port_index(iv.out_port)][static_cast<std::size_t>(iv.out_vc)];
      }
    }
    for (const Port p : kAllPorts) {
      const Router::OutputPort& op = r.output_[port_index(p)];
      for (std::size_t v = 0; v < vcs; ++v) {
        const int c = claims[port_index(p)][v];
        if (c > 1 || op.vcs[v].allocated != (c == 1)) {
          std::ostringstream os;
          os << "output vc " << v << " allocated=" << op.vcs[v].allocated
             << " but claimed by " << c << " input VCs";
          out.push_back(
              make_violation("sa-structure", net.now(), node, p, os.str()));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 6. NI injection / reassembly state.
// ---------------------------------------------------------------------------

void NetworkAuditor::audit_ni_state(const Network& net,
                                    std::vector<AuditViolation>& out) const {
  const NocConfig& cfg = net.config();
  for (NodeId node = 0; node < cfg.num_nodes(); ++node) {
    const NetworkInterface& ni = net.ni(node);
    const auto fail = [&](const std::string& detail) {
      out.push_back(make_violation("ni-state", net.now(), node, Port::kLocal,
                                   detail));
    };

    int busy = 0;
    for (std::size_t v = 0; v < ni.local_vcs_.size(); ++v) {
      const NetworkInterface::LocalVc& vc = ni.local_vcs_[v];
      if (vc.credits < 0 || vc.credits > cfg.vc_depth) {
        std::ostringstream os;
        os << "local vc " << v << " credits " << vc.credits
           << " outside [0, " << cfg.vc_depth << "]";
        fail(os.str());
      }
      if (vc.busy) ++busy;
      const bool should_be_busy =
          ni.sending_.has_value() && ni.send_vc_ == static_cast<VcId>(v);
      if (vc.busy != should_be_busy) {
        std::ostringstream os;
        os << "local vc " << v << " busy=" << vc.busy
           << " inconsistent with sending state";
        fail(os.str());
      }
    }
    if (busy > 1) {
      std::ostringstream os;
      os << busy << " local VCs busy; the NI sends one packet at a time";
      fail(os.str());
    }
    if (ni.sending_ && ni.next_flit_ >= ni.sending_->flits.size()) {
      std::ostringstream os;
      os << "sending flit index " << ni.next_flit_ << " past packet length "
         << ni.sending_->flits.size();
      fail(os.str());
    }
    for (const auto& [pkt, a] : ni.assembling_) {
      if (a.expected == 0 || a.received == 0 || a.received >= a.expected) {
        std::ostringstream os;
        os << "packet " << pkt << " reassembly has received " << a.received
           << " of " << a.expected << " flits (complete packets must be"
           << " finalized immediately)";
        fail(os.str());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 6. Parallel staging: shard partition + sink binding + drained buffers.
// ---------------------------------------------------------------------------
void NetworkAuditor::audit_parallel_staging(
    const Network& net, std::vector<AuditViolation>& out) const {
  const auto fail = [&](NodeId node, const std::string& detail) {
    out.push_back(make_violation("parallel-staging", net.now(), node, detail));
  };

  const NodeId n = net.config().num_nodes();
  if (net.shards_.empty()) {
    fail(kInvalidNode, "shard partition is empty");
    return;
  }
  if (net.fx_.size() != net.shards_.size()) {
    std::ostringstream os;
    os << net.fx_.size() << " staging buffers for " << net.shards_.size()
       << " shards";
    fail(kInvalidNode, os.str());
    return;
  }

  NodeId expect_lo = 0;
  for (std::size_t s = 0; s < net.shards_.size(); ++s) {
    const auto& shard = net.shards_[s];
    if (shard.lo != expect_lo || shard.hi <= shard.lo) {
      std::ostringstream os;
      os << "shard " << s << " spans [" << shard.lo << ", " << shard.hi
         << ") but must start at " << expect_lo << " and be non-empty";
      fail(kInvalidNode, os.str());
      return;
    }
    expect_lo = shard.hi;
  }
  if (expect_lo != n) {
    std::ostringstream os;
    os << "shard partition covers [0, " << expect_lo << ") of [0, " << n << ")";
    fail(kInvalidNode, os.str());
    return;
  }

  const bool tracing = net.tracer_ != nullptr;
  for (std::size_t s = 0; s < net.shards_.size(); ++s) {
    const StepEffects& fx = net.fx_[s];
    if (!fx.empty()) {
      std::ostringstream os;
      os << "shard " << s << " staging buffer not drained between steps";
      fail(kInvalidNode, os.str());
    }
    for (NodeId node = net.shards_[s].lo; node < net.shards_[s].hi; ++node) {
      const Router& router = net.router(node);
      const NetworkInterface& ni = net.ni(node);
      if (!router.pending_acks_.empty()) {
        std::ostringstream os;
        os << router.pending_acks_.size()
           << " link responses produced by receive were never pushed by"
           << " execute";
        fail(node, os.str());
      }
      if (router.fx_ != &fx || ni.fx_ != &fx) {
        std::ostringstream os;
        os << "effect sink not bound to owning shard " << s;
        fail(node, os.str());
      }
      const TraceStage* want_rt = tracing ? &fx.router_trace : nullptr;
      const TraceStage* want_nt = tracing ? &fx.ni_trace : nullptr;
      if (router.trace_ != want_rt || ni.trace_ != want_nt) {
        std::ostringstream os;
        os << "trace stage binding inconsistent with tracer state (shard "
           << s << ")";
        fail(node, os.str());
      }
    }
  }

  // Cross-cycle lookahead soundness: a wake stamp in the future means the
  // stepper will skip the whole cycle. That elision is only the same
  // bit-exact skip the visit lists perform if no node has work — so audit
  // exactly that predicate here, between steps, where the network state is
  // settled.
  if (net.wake_ > net.now()) {
    for (NodeId node = 0; node < n; ++node) {
      if (net.router_has_work(node) || net.ni_has_work(node)) {
        std::ostringstream os;
        os << "network sleeps until "
           << (net.wake_ == Network::kWakeNever ? std::string("never")
                                                : std::to_string(net.wake_))
           << " but node " << node << " has pending work at cycle "
           << net.now();
        fail(node, os.str());
      }
    }
  }

  // Lane occupancy bytes and bound endpoints, re-derived from the channel
  // arrays: every live lane is bound to its consumer's byte and the byte
  // equals the lane's non-emptiness; the byte of an absent or dead lane is
  // 0; every router and NI holds exactly the live channels of its ports, so
  // a killed link is null on both sides.
  const auto fail_at = [&](NodeId node, Port p, const std::string& detail) {
    out.push_back(
        make_violation("parallel-staging", net.now(), node, p, detail));
  };
  const auto live_out = [&](NodeId node, Port p) -> const ChannelPair* {
    const std::size_t idx = net.link_index(node, p);
    return net.out_alive_[idx] ? &net.out_ch_[idx] : nullptr;
  };
  const auto live_in = [&](NodeId node, Port p) -> const ChannelPair* {
    const NodeId nb = net.topology().neighbor(node, p);
    return nb == kInvalidNode ? nullptr : live_out(nb, opposite(p));
  };
  for (NodeId node = 0; node < n; ++node) {
    const auto i = static_cast<std::size_t>(node);
    const LaneBytes& bytes = net.lanes_[i];
    const auto check_lane = [&](std::size_t k, Port p, const auto* lane) {
      const unsigned got = bytes.b[k];
      std::ostringstream os;
      if (lane == nullptr) {
        if (got == 0) return;
        os << "lane byte " << k << " is " << got << " but no live lane feeds it";
      } else if (lane->occupancy_byte() != &bytes.b[k]) {
        os << "lane for byte " << k << " is bound elsewhere";
      } else if (got != (lane->empty() ? 0u : 1u)) {
        os << "lane byte " << k << " is " << got << " but the lane holds "
           << lane->size() << " entries";
      } else {
        return;
      }
      fail_at(node, p, os.str());
    };
    const ChannelPair& inj = net.inj_[i];
    const ChannelPair& ej = net.ej_[i];
    const Router& router = net.router(node);
    for (const Port p : kMeshPorts) {
      const std::size_t pi = port_index(p);
      const ChannelPair* in = live_in(node, p);
      const ChannelPair* outc = live_out(node, p);
      check_lane(lane_byte::kInFlits + pi, p, in ? &in->flits : nullptr);
      check_lane(lane_byte::kOutCredits + pi, p, outc ? &outc->credits : nullptr);
      check_lane(lane_byte::kOutAcks + pi, p, outc ? &outc->acks : nullptr);
      if (router.in_ch_[pi] != in || router.out_ch_[pi] != outc)
        fail_at(node, p, "bound endpoint differs from the live channel");
    }
    check_lane(lane_byte::kInjFlits, Port::kLocal, &inj.flits);
    check_lane(lane_byte::kEjCredits, Port::kLocal, &ej.credits);
    check_lane(lane_byte::kEjFlits, Port::kLocal, &ej.flits);
    check_lane(lane_byte::kInjCredits, Port::kLocal, &inj.credits);
    const std::size_t local = port_index(Port::kLocal);
    const NetworkInterface& ni = net.ni(node);
    if (router.in_ch_[local] != &inj || router.out_ch_[local] != &ej ||
        ni.inj_ != &inj || ni.ej_ != &ej)
      fail_at(node, Port::kLocal,
              "bound endpoint differs from the injection/ejection channel");
    if (router.lanes_ != &bytes || ni.lanes_ != &bytes)
      fail(node, "lane byte block bound to another node");
  }
  for (std::size_t idx = 0; idx < net.out_ch_.size(); ++idx) {
    const ChannelPair& ch = net.out_ch_[idx];
    if (net.out_alive_[idx] != 0) continue;
    if (ch.flits.occupancy_byte() != nullptr ||
        ch.credits.occupancy_byte() != nullptr ||
        ch.acks.occupancy_byte() != nullptr) {
      fail_at(static_cast<NodeId>(idx / kNumPorts),
              static_cast<Port>(idx % kNumPorts),
              "absent or dead channel still bound to a lane byte");
    }
  }
}

// ---------------------------------------------------------------------------
// 7. Bitmask datapath: packed words re-derive from live router state.
// ---------------------------------------------------------------------------
void NetworkAuditor::audit_mask_consistency(
    const Network& net, std::vector<AuditViolation>& out) const {
  const NocConfig& cfg = net.config();
  const auto vcs = static_cast<std::size_t>(cfg.vcs_per_port);
  for (NodeId node = 0; node < cfg.num_nodes(); ++node) {
    const Router& r = net.router(node);
    const auto fail = [&](Port p, const std::string& detail) {
      out.push_back(make_violation("mask-consistency", net.now(), node, p,
                                   detail));
    };
    const auto word_mismatch = [&](Port p, const char* what,
                                   std::uint64_t want, std::uint64_t got) {
      std::ostringstream os;
      os << what << " word drifted: derived 0x" << std::hex << want
         << " cached 0x" << got;
      fail(p, os.str());
    };

    // Re-derive the input-VC words and buffered count from scratch.
    std::uint64_t occ = 0;
    std::uint64_t active = 0;
    std::uint64_t waitvc = 0;
    std::array<std::uint64_t, kNumPorts> active_to{};
    int buffered = 0;
    for (std::size_t in_pi = 0; in_pi < kNumPorts; ++in_pi) {
      for (std::size_t v = 0; v < vcs; ++v) {
        const Router::InputVc& iv = r.input_[r.ivc_bit(in_pi, v)];
        const std::uint64_t m = Router::bit64(r.ivc_bit(in_pi, v));
        buffered += static_cast<int>(iv.fifo.size());
        if (!iv.fifo.empty()) occ |= m;
        switch (iv.state) {
          case Router::InputVc::State::kActive:
            active |= m;
            active_to[port_index(iv.out_port)] |= m;
            break;
          case Router::InputVc::State::kWaitVc:
            waitvc |= m;
            break;
          case Router::InputVc::State::kRouting: {
            std::ostringstream os;
            os << "input vc " << v << " port " << in_pi
               << " in transient kRouting state between steps";
            fail(static_cast<Port>(in_pi), os.str());
            break;
          }
          case Router::InputVc::State::kIdle:
            break;
        }
      }
    }
    if (occ != r.occ_mask_)
      word_mismatch(Port::kLocal, "occupancy", occ, r.occ_mask_);
    if (active != r.active_mask_)
      word_mismatch(Port::kLocal, "active-state", active, r.active_mask_);
    if (waitvc != r.waitvc_mask_)
      word_mismatch(Port::kLocal, "waitvc-state", waitvc, r.waitvc_mask_);
    if (buffered != r.buffered_) {
      std::ostringstream os;
      os << "buffered-flit counter drifted: derived " << buffered
         << " cached " << r.buffered_;
      fail(Port::kLocal, os.str());
    }

    // Per-output-port words: SA request routing, credit and allocation.
    for (const Port p : kAllPorts) {
      const std::size_t pi = port_index(p);
      if (active_to[pi] != r.active_to_[pi])
        word_mismatch(p, "active-to", active_to[pi], r.active_to_[pi]);
      std::uint64_t credit = 0;
      std::uint64_t free = 0;
      for (std::size_t v = 0; v < vcs; ++v) {
        const Router::OutputVc& ovc = r.output_[pi].vcs[v];
        if (ovc.credits > 0) credit |= Router::bit64(static_cast<unsigned>(v));
        if (!ovc.allocated) free |= Router::bit64(static_cast<unsigned>(v));
      }
      if (credit != r.credit_mask_[pi])
        word_mismatch(p, "credit-available", credit, r.credit_mask_[pi]);
      if (free != r.free_vc_mask_[pi])
        word_mismatch(p, "free-vc", free, r.free_vc_mask_[pi]);
    }

    // ARQ port words: retention non-empty, resend or duplicate queued.
    std::uint64_t retained = 0;
    std::uint64_t resend = 0;
    for (std::size_t pi = 0; pi < kNumPorts; ++pi) {
      const Router::OutputPort& op = r.output_[pi];
      if (!op.retention.empty()) retained |= Router::bit64(static_cast<unsigned>(pi));
      if (!op.retx_queue.empty() || !op.dup_queue.empty())
        resend |= Router::bit64(static_cast<unsigned>(pi));
    }
    if (retained != r.retained_ports_)
      word_mismatch(Port::kLocal, "arq retained-ports", retained,
                    r.retained_ports_);
    if (resend != r.resend_ports_)
      word_mismatch(Port::kLocal, "arq resend-ports", resend, r.resend_ports_);
  }
}

// ---------------------------------------------------------------------------
// 8. Sizing: lanes within their in-flight bound, ARQ memory only where a
//    live protected link can use it.
// ---------------------------------------------------------------------------
void NetworkAuditor::audit_sizing(const Network& net,
                                  std::vector<AuditViolation>& out) const {
  const NocConfig& cfg = net.config();
  const auto fail = [&](NodeId node, Port p, const std::string& detail) {
    out.push_back(make_violation("sizing", net.now(), node, p, detail));
  };
  const auto check_lane = [&](NodeId node, Port p, const char* what,
                              const DelayLine<Flit>& lane) {
    if (lane.size() <= kMaxFlitsInFlight) return;
    std::ostringstream os;
    os << what << " flit lane holds " << lane.size() << " entries, bound "
       << kMaxFlitsInFlight;
    fail(node, p, os.str());
  };
  for (NodeId node = 0; node < cfg.num_nodes(); ++node) {
    const auto i = static_cast<std::size_t>(node);
    check_lane(node, Port::kLocal, "injection", net.inj_[i].flits);
    check_lane(node, Port::kLocal, "ejection", net.ej_[i].flits);
    const Router& r = net.router(node);
    for (const Port p : kAllPorts) {
      const std::size_t idx = net.link_index(node, p);
      const bool live = p != Port::kLocal && net.out_alive_[idx] != 0;
      if (live) check_lane(node, p, "outgoing", net.out_ch_[idx].flits);
      const Router::OutputPort& op = r.output_[port_index(p)];
      const std::size_t want =
          live ? static_cast<std::size_t>(cfg.retention_depth) : 0;
      if (op.retention.capacity() != want) {
        std::ostringstream os;
        os << "retention ring sized for " << op.retention.capacity()
           << " entries, want " << want
           << (live ? " (live mesh link)" : " (no live protected link)");
        fail(node, p, os.str());
      }
      if (!live && (op.retx_queue.capacity() != 0 || op.dup_queue.capacity() != 0)) {
        std::ostringstream os;
        os << "resend/duplicate queues hold " << op.retx_queue.capacity()
           << "/" << op.dup_queue.capacity()
           << " slots on a port with no live protected link";
        fail(node, p, os.str());
      }
    }
  }
}

}  // namespace rlftnoc
