// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#include "noc/network.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace rlftnoc {

namespace {
/// Minimum busy router+NI visits in a cycle before the pooled path pays for
/// its dispatch overhead; below it the phases run inline on the caller.
/// Purely a performance knob — both paths produce identical staging.
constexpr std::uint64_t kMinBusyVisitsForPool = 8;
/// Minimum mesh size before the flags phase itself is worth pooling.
constexpr std::size_t kMinNodesForPooledFlags = 256;
}  // namespace

Network::Network(const NocConfig& cfg, std::uint64_t seed, VariusParams varius,
                 PowerParams power)
    : cfg_(cfg),
      topo_(cfg),
      varius_(varius),
      power_(cfg.num_nodes(), power),
      payload_rng_(seed, "payload") {
  cfg_.validate();
  const int n = cfg_.num_nodes();
  latency_window_.resize(static_cast<std::size_t>(n));

  // By-value channel arrays: every slot exists (default-empty); out_alive_
  // marks which carry a live link. The flag scan reads lane emptiness
  // straight out of these contiguous arrays — absent/killed slots stay
  // empty forever, so emptiness checks need no aliveness branch.
  out_ch_ = std::vector<ChannelPair>(static_cast<std::size_t>(n) * kNumPorts);
  out_alive_.assign(static_cast<std::size_t>(n) * kNumPorts, 0);
  link_prob_.resize(static_cast<std::size_t>(n) * kNumPorts);
  link_gate_.resize(static_cast<std::size_t>(n) * kNumPorts);
  injectors_.resize(static_cast<std::size_t>(n) * kNumPorts);

  for (NodeId node = 0; node < n; ++node) {
    for (const Port p : kAllPorts) {
      if (p == Port::kLocal) continue;
      if (topo_.neighbor(node, p) == kInvalidNode) continue;
      const std::size_t idx = link_index(node, p);
      out_alive_[idx] = 1;
      injectors_[idx] = std::make_unique<LinkFaultInjector>(
          &varius_, seed, "link:" + std::to_string(node) + ":" + port_name(p));
    }
  }

  inj_ = std::vector<ChannelPair>(static_cast<std::size_t>(n));
  ej_ = std::vector<ChannelPair>(static_cast<std::size_t>(n));
  routers_.reserve(static_cast<std::size_t>(n));
  nis_.reserve(static_cast<std::size_t>(n));
  for (NodeId node = 0; node < n; ++node) {
    routers_.push_back(std::make_unique<Router>(node, &cfg_, this));
    nis_.push_back(std::make_unique<NetworkInterface>(node, &cfg_, this));
  }
  skip_router_.assign(static_cast<std::size_t>(n), 0);
  skip_ni_.assign(static_cast<std::size_t>(n), 0);

  // Precompute each input port's feeding lane index; absent neighbours
  // alias the node's own Local slot, which never carries a channel and is
  // therefore permanently empty.
  in_lane_idx_.assign(static_cast<std::size_t>(n) * kMeshPorts.size(), 0);
  for (NodeId node = 0; node < n; ++node) {
    for (std::size_t pi = 0; pi < kMeshPorts.size(); ++pi) {
      const Port p = kMeshPorts[pi];
      const NodeId nb = topo_.neighbor(node, p);
      in_lane_idx_[static_cast<std::size_t>(node) * kMeshPorts.size() + pi] =
          static_cast<std::uint32_t>(
              nb != kInvalidNode ? link_index(nb, opposite(p))
                                 : link_index(node, Port::kLocal));
    }
  }

  node_hot_.assign(static_cast<std::size_t>(n), 0);
  build_shards(1);
  refresh_all_node_hot();
}

void Network::refresh_node_hot(NodeId node) noexcept {
  const auto i = static_cast<std::size_t>(node);
  std::uint8_t h = 0;
  if (routers_[i]->quiescent()) h |= node_hot::kRouterQuiescent;
  if (nis_[i]->injection_idle()) h |= node_hot::kNiInjectionIdle;
  if (inj_[i].flits.empty()) h |= node_hot::kInjFlitsEmpty;
  if (inj_[i].credits.empty()) h |= node_hot::kInjCreditsEmpty;
  if (ej_[i].flits.empty()) h |= node_hot::kEjFlitsEmpty;
  if (ej_[i].credits.empty()) h |= node_hot::kEjCreditsEmpty;
  node_hot_[i] = h;
}

void Network::refresh_all_node_hot() noexcept {
  for (NodeId node = 0; node < static_cast<NodeId>(routers_.size()); ++node)
    refresh_node_hot(node);
}

void Network::set_sim_threads(unsigned threads) {
  threads = resolve_thread_count(threads);
  sim_threads_ = threads;
  const auto n = routers_.size();
  const std::size_t shards = std::min<std::size_t>(threads, n ? n : 1);
  build_shards(shards);
  if (shards > 1) {
    pool_ = std::make_unique<PhasePool>(threads - 1);
  } else {
    pool_.reset();
  }
}

void Network::build_shards(std::size_t shards) {
  const auto n = static_cast<NodeId>(routers_.size());
  if (shards == 0) shards = 1;
  shards_.clear();
  // Even split; the first (n % shards) shards take one extra node, so the
  // ranges are contiguous, ascending, and cover [0, n) exactly.
  const NodeId base = n / static_cast<NodeId>(shards);
  const NodeId extra = n % static_cast<NodeId>(shards);
  NodeId lo = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const NodeId len = base + (static_cast<NodeId>(s) < extra ? 1 : 0);
    shards_.push_back(Shard{lo, lo + len});
    lo += len;
  }
  RLFTNOC_CHECK(lo == n, "shard partition covers %d of %d nodes", lo, n);
  fx_ = std::vector<StepEffects>(shards_.size());

  // Lookahead bookkeeping follows the partition: node->shard map, per-shard
  // wake stamps (everyone awake now), busy scratch, and the halo sets (the
  // shards owning structural neighbours of each shard's nodes, self
  // included — halos only ever need to grow less precise as links die, so
  // computing them once per partition is conservative and exact).
  node_shard_.assign(static_cast<std::size_t>(n), 0);
  for (std::size_t s = 0; s < shards_.size(); ++s)
    for (NodeId node = shards_[s].lo; node < shards_[s].hi; ++node)
      node_shard_[static_cast<std::size_t>(node)] =
          static_cast<std::uint32_t>(s);
  wake_.assign(shards_.size(), now_);
  shard_busy_.assign(shards_.size(), 0);
  halo_.assign(shards_.size(), {});
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::vector<std::uint32_t>& h = halo_[s];
    h.push_back(static_cast<std::uint32_t>(s));
    for (NodeId node = shards_[s].lo; node < shards_[s].hi; ++node) {
      for (const Port p : kMeshPorts) {
        const NodeId nb = topo_.neighbor(node, p);
        if (nb == kInvalidNode) continue;
        h.push_back(node_shard_[static_cast<std::size_t>(nb)]);
      }
    }
    std::sort(h.begin(), h.end());
    h.erase(std::unique(h.begin(), h.end()), h.end());
  }

  bind_effect_sinks();
}

void Network::bind_effect_sinks() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    StepEffects* fx = &fx_[s];
    for (NodeId node = shards_[s].lo; node < shards_[s].hi; ++node) {
      routers_[static_cast<std::size_t>(node)]->set_effect_sinks(
          fx, tracer_ != nullptr ? &fx->router_trace : nullptr);
      nis_[static_cast<std::size_t>(node)]->set_effect_sinks(
          fx, tracer_ != nullptr ? &fx->ni_trace : nullptr);
    }
  }
}

ChannelPair* Network::out_channel(NodeId node, Port p) {
  if (p == Port::kLocal) return nullptr;
  const std::size_t idx = link_index(node, p);
  return out_alive_[idx] ? &out_ch_[idx] : nullptr;
}

ChannelPair* Network::in_channel(NodeId node, Port p) {
  if (p == Port::kLocal) return nullptr;
  const NodeId nb = topo_.neighbor(node, p);
  if (nb == kInvalidNode) return nullptr;
  const std::size_t idx = link_index(nb, opposite(p));
  return out_alive_[idx] ? &out_ch_[idx] : nullptr;
}

void Network::set_link_error_prob(NodeId node, Port p, LinkErrorProb prob) {
  const std::size_t idx = link_index(node, p);
  RLFTNOC_CHECK(idx < link_prob_.size(),
                "set_link_error_prob(%d, %s): out of range", node, port_name(p));
  link_prob_[idx] = prob;
  // Compile the probabilities into integer Bernoulli gates here, once per
  // control-layer refresh, so the per-flit path never touches the doubles.
  link_gate_[idx] = LinkGate{Rng::bernoulli_gate(prob.normal),
                             Rng::bernoulli_gate(prob.relaxed)};
}

LinkErrorProb Network::link_error_prob(NodeId node, Port p) const {
  const std::size_t idx = link_index(node, p);
  RLFTNOC_CHECK(idx < link_prob_.size(), "link_error_prob(%d, %s): out of range",
                node, port_name(p));
  return link_prob_[idx];
}

void Network::corrupt_on_wire(NodeId node, Port p, Flit& flit, bool relaxed,
                              TraceStage* stage) {
  if (p == Port::kLocal) return;
  const std::size_t idx = link_index(node, p);
  RLFTNOC_CHECK(idx < injectors_.size(), "corrupt_on_wire(%d, %s): out of range",
                node, port_name(p));
  LinkFaultInjector* inj = injectors_[idx].get();
  if (inj == nullptr) return;
  const LinkGate& g = link_gate_[idx];
  const std::uint64_t gate = relaxed ? g.relaxed : g.normal;
  // Draw-free fast path for cold links: a zero probability never reached the
  // injector before either (no draws, no droop-state advance), so skipping
  // here is bit-identical — fault-free runs never pay for the machinery.
  if (gate == Rng::kGateNever) return;
  const LinkErrorProb& prob = link_prob_[idx];
  const double pe = relaxed ? prob.relaxed : prob.normal;
  const InjectionResult res = inj->inject_gated(
      flit.payload, flit.ecc_valid ? &flit.ecc : nullptr, pe, gate);
  if (res.error_event) {
    if (stage != nullptr) {
      RLFTNOC_TRACE(stage, TraceEventKind::kFaultInjected, now_, node,
                    static_cast<std::int8_t>(port_index(p)), res.bits_flipped);
    } else {
      RLFTNOC_TRACE(tracer_, TraceEventKind::kFaultInjected, now_, node,
                    static_cast<std::int8_t>(port_index(p)), res.bits_flipped);
    }
  }
}

void Network::add_path_latency(NodeId src, NodeId dst, double latency_cycles) {
  // Walk the active routing policy's committed path and credit every
  // traversed router. Each hop is one LUT load plus an add; the hop bound
  // keeps a (transiently) inconsistent post-fault LUT from hanging the walk.
  NodeId cur = src;
  latency_window_[static_cast<std::size_t>(cur)].add(latency_cycles);
  int hops = 0;
  const int max_hops = cfg_.num_nodes();
  while (cur != dst && hops++ < max_hops) {
    const std::uint8_t r = topo_.route_raw(cur, dst);
    if (r == Topology::kUnreachable || static_cast<Port>(r) == Port::kLocal)
      return;
    cur = topo_.neighbor(cur, static_cast<Port>(r));
    if (cur == kInvalidNode) return;
    latency_window_[static_cast<std::size_t>(cur)].add(latency_cycles);
  }
}

void Network::schedule_e2e_response(Cycle at, NodeId src, PacketId id, bool ok) {
  e2e_events_.push(E2eEvent{at, src, id, ok, e2e_seq_++});
}

// --------------------------------------------------------------------------
// Hard faults (serial context — applied between steps, never inside a phase)
// --------------------------------------------------------------------------

void Network::schedule_hard_faults(const std::vector<HardFault>& faults) {
  if (faults.empty()) return;
  if (cfg_.routing == RoutingAlgorithm::kWestFirst)
    throw std::invalid_argument(
        "hard faults: westfirst routing does not support hard faults (its "
        "turn model cannot route around dead links deadlock-free); use xy, "
        "yx or adaptive");
  for (const HardFault& f : faults) {
    if (!valid_node(f.node))
      throw std::invalid_argument("hard fault: node " +
                                  std::to_string(f.node) + " out of range");
    if (f.kind == HardFault::Kind::kLink) {
      if (f.port == Port::kLocal)
        throw std::invalid_argument(
            "hard fault: the Local port cannot be killed (use router:NODE)");
      if (topo_.neighbor(f.node, f.port) == kInvalidNode)
        throw std::invalid_argument(
            "hard fault: node " + std::to_string(f.node) + " has no " +
            port_name(f.port) + " link");
    }
    pending_faults_.push_back(f);
  }
  // Keep the unapplied tail sorted by strike cycle (stable: ties fire in
  // registration order).
  std::stable_sort(
      pending_faults_.begin() + static_cast<std::ptrdiff_t>(next_fault_),
      pending_faults_.end(), [](const HardFault& a, const HardFault& b) {
        return a.at_cycle < b.at_cycle;
      });
  apply_due_hard_faults();
}

void Network::apply_due_hard_faults() {
  std::vector<LostFlit> lost;
  bool any = false;
  while (next_fault_ < pending_faults_.size() &&
         pending_faults_[next_fault_].at_cycle <= now_) {
    const HardFault f = pending_faults_[next_fault_++];
    if (f.kind == HardFault::Kind::kRouter) {
      kill_router_internal(f.node, lost);
    } else {
      kill_link_internal(f.node, f.port, lost);
    }
    ++faults_applied_;
    any = true;
  }
  if (any) finish_fault_application(lost);
}

void Network::kill_link_internal(NodeId node, Port p,
                                 std::vector<LostFlit>& lost) {
  const NodeId nb = topo_.neighbor(node, p);
  if (nb == kInvalidNode || !topo_.link_alive(node, p)) return;  // no-op
  topo_.kill_link(node, p);
  RLFTNOC_TRACE(tracer_, TraceEventKind::kLinkKilled, now_, node,
                static_cast<std::int8_t>(port_index(p)),
                static_cast<std::int32_t>(nb));

  // 1. Destroy both wire directions first, so every later teardown step that
  //    tries to push credits toward the dead link hits a null channel.
  const std::array<std::pair<NodeId, Port>, 2> dirs = {
      std::pair<NodeId, Port>{node, p}, std::pair<NodeId, Port>{nb, opposite(p)}};
  for (const auto& [up, out] : dirs) {
    const std::size_t idx = link_index(up, out);
    if (out_alive_[idx]) {
      ChannelPair& ch = out_ch_[idx];
      ch.flits.for_each([&](const Flit& f) {
        lost.push_back(LostFlit{f.packet_id, f.src, f.dst});
      });
      wire_kill_drops_ += ch.flits.clear();
      ch.credits.clear();
      ch.acks.clear();
    }
    out_alive_[idx] = 0;  // slot stays permanently empty from here on
    injectors_[idx].reset();
    link_prob_[idx] = LinkErrorProb{};
    link_gate_[idx] = LinkGate{};
  }

  // 2. Sender-side teardown on each alive endpoint.
  for (const auto& [up, out] : dirs) {
    if (topo_.router_alive(up))
      routers_[static_cast<std::size_t>(up)]->purge_dead_output(now_, out, lost);
  }

  // 3. Receiver-side teardown, chasing worms severed mid-body downstream.
  std::vector<Router::SeveredWorm> severed;
  for (const auto& [up, out] : dirs) {
    const NodeId down = topo_.neighbor(up, out);
    if (!topo_.router_alive(down)) continue;
    severed.clear();
    routers_[static_cast<std::size_t>(down)]->purge_dead_input(opposite(out),
                                                              lost, severed);
    for (const Router::SeveredWorm& w : severed)
      purge_worm_chain(now_, down, w, lost);
  }
}

void Network::purge_worm_chain(Cycle now, NodeId from, Router::SeveredWorm worm,
                               std::vector<LostFlit>& lost) {
  NodeId cur = from;
  Port out = worm.out_port;
  VcId v = worm.out_vc;
  int steps = 0;
  const int max_steps = cfg_.num_nodes() + 1;  // paths never revisit a node
  while (steps++ < max_steps) {
    const NodeId next = topo_.neighbor(cur, out);
    if (next == kInvalidNode || !topo_.router_alive(next)) return;
    const Router::ChainNext cn =
        routers_[static_cast<std::size_t>(next)]->purge_worm_of_packet(
            now, opposite(out), v, worm.packet, lost);
    if (!cn.walk) return;
    cur = next;
    out = cn.out_port;
    v = cn.out_vc;
  }
}

void Network::kill_router_internal(NodeId node, std::vector<LostFlit>& lost) {
  if (!topo_.router_alive(node)) return;  // already dead
  // Sever every live link first (with full neighbour-side teardown), then
  // mark the router dead and wipe its own state.
  for (const Port p : kAllPorts) {
    if (p == Port::kLocal) continue;
    if (topo_.link_alive(node, p)) kill_link_internal(node, p, lost);
  }
  topo_.kill_router(node);
  RLFTNOC_TRACE(tracer_, TraceEventKind::kRouterKilled, now_, node, -1, 0);

  const auto i = static_cast<std::size_t>(node);
  routers_[i]->purge_for_router_kill(lost);

  // The NI wiring dies with the router.
  const auto collect = [&](ChannelPair& ch) {
    ch.flits.for_each([&](const Flit& f) {
      lost.push_back(LostFlit{f.packet_id, f.src, f.dst});
    });
    wire_kill_drops_ += ch.flits.clear();
    ch.credits.clear();
    ch.acks.clear();
  };
  collect(inj_[i]);
  collect(ej_[i]);

  std::vector<std::pair<PacketId, NodeId>> orphans;
  nis_[i]->purge_for_router_kill(orphans);
  for (const auto& [id, dst] : orphans) {
    if (valid_node(dst) && topo_.router_alive(dst))
      nis_[static_cast<std::size_t>(dst)]->abandon_assembly(id);
  }
}

void Network::finish_fault_application(std::vector<LostFlit>& lost) {
  topo_.rebuild_routes();

  // Packet-level repair: decide once per damaged packet. A source that still
  // holds the pristine copy and can reach a live destination retransmits
  // end-to-end; otherwise both endpoints give the packet up.
  std::sort(lost.begin(), lost.end(),
            [](const LostFlit& a, const LostFlit& b) { return a.packet < b.packet; });
  const LostFlit* prev = nullptr;
  for (const LostFlit& lf : lost) {
    if (prev != nullptr && prev->packet == lf.packet) continue;
    prev = &lf;
    const bool src_ok = valid_node(lf.src) && topo_.router_alive(lf.src);
    const bool dst_ok = valid_node(lf.dst) && topo_.router_alive(lf.dst);
    if (src_ok && nis_[static_cast<std::size_t>(lf.src)]->has_retained(lf.packet)) {
      if (dst_ok && topo_.reachable(lf.src, lf.dst)) {
        schedule_e2e_response(
            now_ + static_cast<Cycle>(cfg_.e2e_ack_fixed_cycles), lf.src,
            lf.packet, /*ok=*/false);
      } else {
        nis_[static_cast<std::size_t>(lf.src)]->abandon_retained(lf.packet);
        if (dst_ok) nis_[static_cast<std::size_t>(lf.dst)]->abandon_assembly(lf.packet);
      }
    } else if (dst_ok) {
      nis_[static_cast<std::size_t>(lf.dst)]->abandon_assembly(lf.packet);
    }
  }

  // Every live source gives up on packets whose destination died or became
  // unreachable, including queued ones that never left.
  std::vector<std::pair<PacketId, NodeId>> orphans;
  for (NodeId nid = 0; nid < static_cast<NodeId>(nis_.size()); ++nid) {
    if (!topo_.router_alive(nid)) continue;
    nis_[static_cast<std::size_t>(nid)]->purge_unreachable(topo_, orphans);
  }
  for (const auto& [id, dst] : orphans) {
    if (valid_node(dst) && topo_.router_alive(dst))
      nis_[static_cast<std::size_t>(dst)]->abandon_assembly(id);
  }

  // Teardown touched routers, NIs and lanes well outside the fault site
  // (worm chains, orphan abandonment, credit returns): refresh every hot
  // byte and wake every shard so the next flag scan sees it all.
  refresh_all_node_hot();
  wake_all();
}

bool Network::router_has_work(NodeId node) const {
  const auto i = static_cast<std::size_t>(node);
  // Node-local half of the predicate from the packed hot byte: router
  // quiescence, injection-flit lane, ejection-credit lane (see
  // noc/node_hot.h for the freshness argument).
  if ((node_hot_[i] & node_hot::kRouterSideIdle) != node_hot::kRouterSideIdle)
    return true;
  // Anything sitting on an incoming lane, mature or not: flits arriving on
  // mesh links, credits/ACKs returning on outgoing links. Maturity is
  // ignored on purpose — an immature entry just keeps the node un-skipped a
  // cycle or two early, which is conservative. Absent/killed lanes are
  // permanently empty, so no aliveness branch is needed.
  const std::size_t in_base = i * kMeshPorts.size();
  for (std::size_t pi = 0; pi < kMeshPorts.size(); ++pi) {
    if (!out_ch_[in_lane_idx_[in_base + pi]].flits.empty()) return true;
    const std::size_t out = link_index(node, kMeshPorts[pi]);
    if (!out_ch_[out].credits.empty() || !out_ch_[out].acks.empty())
      return true;
  }
  return false;
}

bool Network::ni_has_work(NodeId node) const {
  // Injection idleness + ejection-flit and injection-credit lane emptiness,
  // all cached in the packed hot byte.
  return (node_hot_[static_cast<std::size_t>(node)] & node_hot::kNiSideIdle) !=
         node_hot::kNiSideIdle;
}

template <typename F>
void Network::for_each_shard(bool pooled, F&& f) {
  ++phase_dispatches_;
  if (pooled && pool_ != nullptr && shards_.size() > 1) {
    ++pooled_phase_dispatches_;
    pool_->run(shards_.size(), f);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) f(s);
  }
}

void Network::merge_effects(Cycle now) {
  // Canonical single merge for the fused cycle. The pre-fusion stepper
  // merged after the receive phase and again after the execute phase; the
  // equivalent emission order with one merge is, per effect kind,
  //
  //   [shard 0 rx][shard 1 rx]...[shard S rx][shard 0 ex]...[shard S ex]
  //
  // using the receive/execute split marks each shard task recorded
  // (StepEffects::mark_receive_end). The kinds write disjoint global
  // structures, so only the intra-kind order matters. Per kind:
  //  * trace — router streams before NI streams within each phase half,
  //    because the serial stepper runs all routers before all NIs,
  //  * ACKs — replayed pushes with the same `now` stamp they would have had
  //    inline; they mature at now+1 either way, and each ack lane has a
  //    single producer, so per-lane order is the producer's staging order,
  //  * e2e events — `e2e_seq_` is assigned here, so the tie-break stream is
  //    the canonical order for any shard count,
  //  * latency samples / path credits — replayed through the global
  //    accumulators in delivery order (FP addition order preserved),
  //  * counters — plain sums (order-free, merged in one pass).
  // Kinds with nothing staged anywhere skip their shard sweep entirely —
  // the common near-quiescent case pays a few emptiness checks only.
  bool any_acks = false, any_e2e = false, any_path = false, any_lat = false;
  bool any_rt = false, any_nt = false, any_counters = false;
  for (const StepEffects& fx : fx_) {
    any_acks |= !fx.acks.empty();
    any_e2e |= !fx.e2e.empty();
    any_path |= !fx.path_credits.empty();
    any_lat |= !fx.latency_samples.empty();
    any_rt |= !fx.router_trace.empty();
    any_nt |= !fx.ni_trace.empty();
    any_counters = any_counters ||
                   (fx.packets_injected | fx.packets_delivered |
                    fx.flits_delivered | fx.retx_flits_hop | fx.dup_flits |
                    fx.crc_packet_failures) != 0;
  }

  if (any_rt || any_nt) {
    for (StepEffects& fx : fx_)
      fx.router_trace.drain_range_into(tracer_, 0, fx.split.router_trace);
    for (StepEffects& fx : fx_)
      fx.ni_trace.drain_range_into(tracer_, 0, fx.split.ni_trace);
    for (StepEffects& fx : fx_) {
      staged_effects_merged_ += fx.router_trace.size();
      fx.router_trace.drain_range_into(tracer_, fx.split.router_trace,
                                       fx.router_trace.size());
      fx.router_trace.clear();
    }
    for (StepEffects& fx : fx_) {
      staged_effects_merged_ += fx.ni_trace.size();
      fx.ni_trace.drain_range_into(tracer_, fx.split.ni_trace,
                                   fx.ni_trace.size());
      fx.ni_trace.clear();
    }
  }

  if (any_acks) {
    for (const StepEffects& fx : fx_)
      for (std::size_t k = 0; k < fx.split.acks; ++k)
        fx.acks[k].lane->push(now, fx.acks[k].msg);
    for (const StepEffects& fx : fx_)
      for (std::size_t k = fx.split.acks; k < fx.acks.size(); ++k)
        fx.acks[k].lane->push(now, fx.acks[k].msg);
  }
  if (any_e2e) {
    for (const StepEffects& fx : fx_)
      for (std::size_t k = 0; k < fx.split.e2e; ++k)
        e2e_events_.push(E2eEvent{fx.e2e[k].at, fx.e2e[k].src, fx.e2e[k].id,
                                  fx.e2e[k].ok, e2e_seq_++});
    for (const StepEffects& fx : fx_)
      for (std::size_t k = fx.split.e2e; k < fx.e2e.size(); ++k)
        e2e_events_.push(E2eEvent{fx.e2e[k].at, fx.e2e[k].src, fx.e2e[k].id,
                                  fx.e2e[k].ok, e2e_seq_++});
  }
  if (any_path) {
    for (const StepEffects& fx : fx_)
      for (std::size_t k = 0; k < fx.split.path_credits; ++k)
        add_path_latency(fx.path_credits[k].src, fx.path_credits[k].dst,
                         fx.path_credits[k].latency);
    for (const StepEffects& fx : fx_)
      for (std::size_t k = fx.split.path_credits; k < fx.path_credits.size();
           ++k)
        add_path_latency(fx.path_credits[k].src, fx.path_credits[k].dst,
                         fx.path_credits[k].latency);
  }
  if (any_lat) {
    for (const StepEffects& fx : fx_)
      for (std::size_t k = 0; k < fx.split.latency_samples; ++k) {
        metrics_.packet_latency.add(fx.latency_samples[k]);
        metrics_.latency_hist.add(fx.latency_samples[k]);
      }
    for (const StepEffects& fx : fx_)
      for (std::size_t k = fx.split.latency_samples;
           k < fx.latency_samples.size(); ++k) {
        metrics_.packet_latency.add(fx.latency_samples[k]);
        metrics_.latency_hist.add(fx.latency_samples[k]);
      }
    metrics_.last_delivery_cycle = now;
  }
  // Final pass runs unconditionally: clear_posts() must reset every shard's
  // split marks even on a trace-only merge, or a later merge could replay a
  // stale [0, split) range of an emptied vector.
  (void)any_counters;
  for (StepEffects& fx : fx_) {
    staged_effects_merged_ +=
        fx.acks.size() + fx.e2e.size() + fx.path_credits.size();
    metrics_.packets_injected += fx.packets_injected;
    metrics_.packets_delivered += fx.packets_delivered;
    metrics_.flits_delivered += fx.flits_delivered;
    metrics_.retx_flits_hop += fx.retx_flits_hop;
    metrics_.dup_flits += fx.dup_flits;
    metrics_.crc_packet_failures += fx.crc_packet_failures;
    fx.clear_posts();
  }
}

void Network::step() {
  using SteadyClock = std::chrono::steady_clock;  // rlftnoc-lint: allow(R2) optional phase timing is a bench metric, never a sim input
  const bool timed = time_phases_;
  SteadyClock::time_point t0{};
  if (timed) t0 = SteadyClock::now();  // rlftnoc-lint: allow(R2) wall-clock measured only, never fed back

  // Hard faults strike at the top of their cycle, in the serial window
  // before any phase runs — identical for every sim_threads value. This
  // check runs even when every shard sleeps, so a --kill-link landing
  // inside a lookahead-skipped window still fires at its exact cycle (the
  // teardown then wakes everyone).
  if (next_fault_ < pending_faults_.size() &&
      pending_faults_[next_fault_].at_cycle <= now_) {
    apply_due_hard_faults();
  }

  const Cycle t = now_;
  // End-to-end responses drain serially before the phases: delivery may
  // refill an NI (reinject queue), which the skip flags must observe. This
  // path keeps the direct metric/trace sinks — it never runs inside a
  // parallel phase. Delivery also wakes the source NI's shard: the e2e heap
  // is exactly the "earliest maturity" bound a fully-drained shard is
  // waiting on, so the wake is what lets shards sleep through ACK gaps
  // without missing the delivery cycle.
  while (!e2e_events_.empty() && e2e_events_.top().at <= t) {
    const E2eEvent ev = e2e_events_.top();
    e2e_events_.pop();
    ni(ev.src).deliver_e2e_response(t, ev.id, ev.ok);
    wake_node(ev.src);
    // The positive ACK is the canonical completion signal the workload
    // layer gates on; it fires here, in the serial drain, so consumers see
    // one thread-count-independent order (see noc/completion.h).
    if (ev.ok && resolution_listener_ != nullptr) {
      resolution_listener_->on_packet_delivered(t, ev.src, ev.id);
    }
  }

  // Cross-cycle quiescence lookahead: a shard whose every node was flagged
  // idle has no internal work and no occupied lane anywhere a visit would
  // look (non-empty lanes — mature or not — keep their reader busy, so
  // "all idle" implies "all feeding lanes empty"). Nothing can change such
  // a shard's state except an external event, and every such event lowers
  // the shard's wake stamp in serial context: packet enqueue
  // (NI::enqueue_packet -> wake_node), e2e delivery (the drain above),
  // hard-fault teardown (wake_all), and cross-shard pushes from awake
  // neighbours (the halo wake below). Until one fires, skipping the shard's
  // visits wholesale is the same bit-exact elision the per-node flags
  // perform — the skip counters are credited identically — so results are
  // unchanged for any sim_threads value.
  bool any_awake = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (wake_[s] <= t) {
      any_awake = true;
    } else {
      const auto len = static_cast<std::uint64_t>(shards_[s].hi - shards_[s].lo);
      router_steps_skipped_ += len;
      ni_steps_skipped_ += len;
      ++lookahead_shard_sleeps_;
    }
  }
  if (!any_awake) {
    ++lookahead_cycles_slept_;
    ++now_;
    if (timed)
      phase_timings_.serial_seconds +=
          std::chrono::duration<double>(SteadyClock::now() - t0).count();  // rlftnoc-lint: allow(R2) wall-clock measured only, never fed back
    return;
  }

  // Fused dispatch A — per awake shard: idle-skip flags for the shard's
  // nodes, then the receive phase (routers before NIs, ascending). Fusing
  // is sound because the flag scan reads only state the receive phase
  // leaves untouched across shards: receive pops are single-consumer on the
  // popping node's own lanes, ACKs are staged (not pushed), and the only
  // receive-side push (the NI's ejection credit) is node-local and ordered
  // after its own shard's flags. So every flag computes the same value it
  // would have under the old dedicated flags phase with a barrier.
  //
  // Idle-skip itself: a node whose internal state is quiescent and whose
  // incoming lanes are all empty cannot change any state this cycle —
  // receive() would pop nothing and every execute() stage scans empty/idle
  // structures, with no RNG draws, counter updates or power events on those
  // paths. Skipping the visit is therefore observationally equivalent
  // (bit-identical), not an approximation. All cross-node signals travel
  // through delay lines with latency >= 1, so nothing pushed during this
  // cycle's phases could have made a skipped node busy at t.
  //
  // Pooling for A is decided before the flags exist, from the previous
  // cycle's (deterministic, thread-count-invariant) busy count — a pure
  // scheduling choice that cannot affect staging.
  const std::size_t n = routers_.size();
  const bool pooled_a = n >= kMinNodesForPooledFlags ||
                        prev_busy_ >= kMinBusyVisitsForPool;
  SteadyClock::time_point t1{};
  if (timed) {
    t1 = SteadyClock::now();  // rlftnoc-lint: allow(R2) wall-clock measured only, never fed back
    phase_timings_.serial_seconds +=
        std::chrono::duration<double>(t1 - t0).count();
  }

  for_each_shard(pooled_a, [&](std::size_t s) {
    if (wake_[s] > t) return;  // sleeping shard: no flags, no visits
    StepEffects& fx = fx_[s];
    for (NodeId node = shards_[s].lo; node < shards_[s].hi; ++node) {
      const auto i = static_cast<std::size_t>(node);
      skip_router_[i] = router_has_work(node) ? 0 : 1;
      skip_ni_[i] = ni_has_work(node) ? 0 : 1;
      fx.router_skipped += skip_router_[i];
      fx.ni_skipped += skip_ni_[i];
      fx.busy_visits += (2u - skip_router_[i]) - skip_ni_[i];
    }
    for (NodeId node = shards_[s].lo; node < shards_[s].hi; ++node) {
      const auto i = static_cast<std::size_t>(node);
      if (!skip_router_[i]) routers_[i]->receive(t);
    }
    for (NodeId node = shards_[s].lo; node < shards_[s].hi; ++node) {
      const auto i = static_cast<std::size_t>(node);
      if (!skip_ni_[i]) nis_[i]->receive(t);
    }
    fx.mark_receive_end();
  });

  std::uint64_t busy = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    StepEffects& fx = fx_[s];
    router_steps_skipped_ += fx.router_skipped;
    ni_steps_skipped_ += fx.ni_skipped;
    shard_busy_[s] = static_cast<std::uint32_t>(fx.busy_visits);
    busy += fx.busy_visits;
    fx.router_skipped = 0;
    fx.ni_skipped = 0;
    fx.busy_visits = 0;
  }
  prev_busy_ = busy;

  SteadyClock::time_point t2{};
  if (timed) {
    t2 = SteadyClock::now();  // rlftnoc-lint: allow(R2) wall-clock measured only, never fed back
    phase_timings_.receive_seconds +=
        std::chrono::duration<double>(t2 - t1).count();
  }

  // Dispatch B — the execute phase over the same skip flags, then a refresh
  // of every visited node's packed hot byte (a visit is the only thing that
  // can change the node-local half of the flag predicate mid-run; serial
  // mutators refresh explicitly). Whether it runs pooled or inline depends
  // only on the deterministic busy count, never on timing. Nothing busy
  // means nothing to execute and nothing staged — skip the dispatch.
  if (busy > 0) {
    const bool pooled = busy >= kMinBusyVisitsForPool;
    for_each_shard(pooled, [&](std::size_t s) {
      if (wake_[s] > t) return;
      for (NodeId node = shards_[s].lo; node < shards_[s].hi; ++node) {
        const auto i = static_cast<std::size_t>(node);
        if (!skip_router_[i]) routers_[i]->execute(t);
      }
      for (NodeId node = shards_[s].lo; node < shards_[s].hi; ++node) {
        const auto i = static_cast<std::size_t>(node);
        if (!skip_ni_[i]) nis_[i]->execute(t);
      }
      for (NodeId node = shards_[s].lo; node < shards_[s].hi; ++node) {
        const auto i = static_cast<std::size_t>(node);
        if (!skip_router_[i] || !skip_ni_[i]) refresh_node_hot(node);
      }
    });
  }

  SteadyClock::time_point t3{};
  if (timed) {
    t3 = SteadyClock::now();  // rlftnoc-lint: allow(R2) wall-clock measured only, never fed back
    phase_timings_.execute_seconds +=
        std::chrono::duration<double>(t3 - t2).count();
  }

  // Single canonical merge (was two) — skipped outright on staging-free
  // cycles.
  bool any_staged = false;
  for (const StepEffects& fx : fx_) {
    if (!fx.empty()) {
      any_staged = true;
      break;
    }
  }
  if (any_staged) {
    ++merges_run_;
    merge_effects(t);
  }

  // Sleep/wake bookkeeping. An awake shard with zero busy visits goes to
  // sleep (its wake stamp can hold nothing earlier: stamps <= t were
  // consumed this cycle, and future stamps would mean it was not awake).
  // Then every shard that executed busy nodes wakes its halo — the shards
  // owning structural neighbours of its nodes, itself included — for t+1,
  // covering all cross-shard pushes of this cycle: flit/credit pushes in
  // execute and ACK pushes at the merge all target structural neighbours.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (wake_[s] <= t && shard_busy_[s] == 0) wake_[s] = kWakeNever;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (wake_[s] <= t && shard_busy_[s] != 0) {
      for (const std::uint32_t h : halo_[s]) {
        if (wake_[h] > t + 1) wake_[h] = t + 1;
      }
    }
  }

  ++now_;
  if (timed)
    phase_timings_.merge_seconds +=
        std::chrono::duration<double>(SteadyClock::now() - t3).count();  // rlftnoc-lint: allow(R2) wall-clock measured only, never fed back
}

bool Network::drained() const {
  for (const auto& n : nis_) {
    if (!n->idle()) return false;
  }
  for (const auto& r : routers_) {
    if (r->buffered_flits() != 0 || r->pending_link_work() != 0) return false;
  }
  for (const auto& ch : out_ch_) {
    if (!ch.flits.empty()) return false;
  }
  for (const auto& ch : inj_) {
    if (!ch.flits.empty()) return false;
  }
  for (const auto& ch : ej_) {
    if (!ch.flits.empty()) return false;
  }
  return e2e_events_.empty();
}

}  // namespace rlftnoc
