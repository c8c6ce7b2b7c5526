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
/// Stepped cycles between two recuts of the band boundaries. Purely a
/// performance knob — results are identical for any partition.
constexpr Cycle kRebalancePeriod = 64;

/// Flits `r` has accepted and transmitted, over all ports, since it was
/// built (the counters only grow).
std::uint64_t flits_moved(const Router& r) noexcept {
  const RouterCounters& c = r.counters();
  std::uint64_t n = 0;
  for (std::size_t p = 0; p < kNumPorts; ++p) n += c.flits_in[p] + c.flits_out[p];
  return n;
}
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
  // marks which carry a live link. Absent/killed slots stay empty and
  // unbound forever.
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
  visit_router_.assign(static_cast<std::size_t>(n), 0);
  visit_ni_.assign(static_cast<std::size_t>(n), 0);
  band_work_.assign(static_cast<std::size_t>(n), 0);
  flits_seen_.assign(static_cast<std::size_t>(n), 0);

  lanes_ = std::vector<LaneBytes>(static_cast<std::size_t>(n));
  bind_lane_bytes();
  for (NodeId node = 0; node < n; ++node) bind_node_links(node);

  node_hot_.assign(static_cast<std::size_t>(n), 0);
  build_shards(1);
  refresh_all_node_hot();
}

void Network::bind_lane_bytes() {
  for (NodeId node = 0; node < static_cast<NodeId>(routers_.size()); ++node) {
    const auto i = static_cast<std::size_t>(node);
    std::uint8_t* own = lanes_[i].b.data();
    for (const Port p : kMeshPorts) {
      ChannelPair* out = out_channel(node, p);
      if (out == nullptr) continue;
      const std::size_t pi = port_index(p);
      // The flit lane is consumed downstream, at the neighbour's input port
      // facing back here; credits and ACKs come back to this node.
      const NodeId nb = topo_.neighbor(node, p);
      out->flits.bind_occupancy(
          &lanes_[static_cast<std::size_t>(nb)]
               .b[lane_byte::kInFlits + port_index(opposite(p))]);
      out->credits.bind_occupancy(own + lane_byte::kOutCredits + pi);
      out->acks.bind_occupancy(own + lane_byte::kOutAcks + pi);
    }
    inj_[i].flits.bind_occupancy(own + lane_byte::kInjFlits);
    ej_[i].credits.bind_occupancy(own + lane_byte::kEjCredits);
    ej_[i].flits.bind_occupancy(own + lane_byte::kEjFlits);
    inj_[i].credits.bind_occupancy(own + lane_byte::kInjCredits);
  }
}

void Network::bind_node_links(NodeId node) {
  const auto i = static_cast<std::size_t>(node);
  std::array<ChannelPair*, kNumPorts> in{};
  std::array<ChannelPair*, kNumPorts> out{};
  for (const Port p : kMeshPorts) {
    in[port_index(p)] = in_channel(node, p);
    out[port_index(p)] = out_channel(node, p);
  }
  in[port_index(Port::kLocal)] = &inj_[i];
  out[port_index(Port::kLocal)] = &ej_[i];
  routers_[i]->bind_links(in, out, &lanes_[i]);
  nis_[i]->bind_links(&inj_[i], &ej_[i], &lanes_[i]);
}

void Network::refresh_node_hot(NodeId node) noexcept {
  const auto i = static_cast<std::size_t>(node);
  set_hot_bit(i, node_hot::kRouterQuiescent, routers_[i]->quiescent());
  set_hot_bit(i, node_hot::kNiInjectionIdle, nis_[i]->injection_idle());
}

void Network::refresh_all_node_hot() noexcept {
  for (NodeId node = 0; node < static_cast<NodeId>(routers_.size()); ++node)
    refresh_node_hot(node);
}

void Network::set_sim_threads(unsigned threads, unsigned runs_in_flight) {
  threads = resolve_thread_count(threads);
  sim_threads_ = threads;
  // One band per executor: the caller runs a band too, and a thread beyond
  // the node count would have no band.
  const std::size_t n = std::max<std::size_t>(routers_.size(), 1);
  const std::size_t bands = std::min<std::size_t>(n, threads);
  build_shards(bands);
  if (bands > 1) {
    const std::size_t in_flight = bands * resolve_thread_count(runs_in_flight);
    pool_ = std::make_unique<PhasePool>(static_cast<unsigned>(bands - 1),
                                        spin_fits(in_flight, hardware_threads()));
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
  bind_effect_sinks();
  // Work counts restart with the partition; the first recut is a period
  // away.
  std::fill(band_work_.begin(), band_work_.end(), 0);
  for (NodeId node = 0; node < n; ++node)
    flits_seen_[static_cast<std::size_t>(node)] =
        flits_moved(*routers_[static_cast<std::size_t>(node)]);
  next_rebalance_ = now_ + kRebalancePeriod;
}

void Network::set_bands(const std::vector<NodeId>& cuts) {
  RLFTNOC_CHECK(cuts.size() == shards_.size() + 1 && cuts.front() == 0 &&
                    cuts.back() == static_cast<NodeId>(routers_.size()),
                "set_bands: %zu cuts for %zu bands", cuts.size(), shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard old = shards_[s];
    const Shard band{cuts[s], cuts[s + 1]};
    RLFTNOC_CHECK(band.lo < band.hi, "set_bands: band %zu is empty", s);
    shards_[s] = band;
    // Only nodes that joined this band need their sinks re-pointed: the
    // part of the new range below the old one and the part above it.
    bind_effect_sinks(s, band.lo, std::min(band.hi, old.lo));
    bind_effect_sinks(s, std::max(band.lo, old.hi), band.hi);
  }
}

void Network::rebalance_bands() {
  // Work per node since the last cut: its router and NI visits plus the
  // flits its router moved. Both are simulated state, so the cut is a pure
  // function of the run (never of timing) — though no result depends on it.
  const std::size_t n = routers_.size();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t moved = flits_moved(*routers_[i]);
    band_work_[i] += moved - flits_seen_[i];
    flits_seen_[i] = moved;
    total += band_work_[i];
  }
  if (total == 0) return;  // nothing ran: keep the bands

  // Cut at equal quantiles of the work: band b ends at the first node where
  // the running sum reaches b/E of the total. Every band keeps one node at
  // least.
  const std::size_t bands = shards_.size();
  std::vector<NodeId>& cuts = band_cuts_;
  cuts.assign(bands + 1, static_cast<NodeId>(n));
  cuts[0] = 0;
  std::uint64_t sum = 0;
  std::size_t b = 1;
  for (std::size_t i = 0; i < n; ++i) {
    sum += band_work_[i];
    band_work_[i] = 0;
    while (b < bands && sum * bands >= total * b) cuts[b++] = static_cast<NodeId>(i + 1);
  }
  for (b = 1; b < bands; ++b) cuts[b] = std::max(cuts[b], cuts[b - 1] + 1);
  for (b = bands - 1; b >= 1; --b) cuts[b] = std::min(cuts[b], cuts[b + 1] - 1);
  set_bands(cuts);
}

void Network::bind_effect_sinks() {
  for (std::size_t s = 0; s < shards_.size(); ++s)
    bind_effect_sinks(s, shards_[s].lo, shards_[s].hi);
}

void Network::bind_effect_sinks(std::size_t shard, NodeId lo, NodeId hi) {
  StepEffects* fx = &fx_[shard];
  for (NodeId node = lo; node < hi; ++node) {
    routers_[static_cast<std::size_t>(node)]->set_effect_sinks(
        fx, tracer_ != nullptr ? &fx->router_trace : nullptr);
    nis_[static_cast<std::size_t>(node)]->set_effect_sinks(
        fx, tracer_ != nullptr ? &fx->ni_trace : nullptr);
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

  // 1. Destroy both wire directions first, and rebind both endpoints, so
  //    every later teardown step that tries to push credits toward the dead
  //    link hits a null channel. Clearing zeroes the lanes' occupancy bytes;
  //    unbinding keeps them zero.
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
      ch.flits.bind_occupancy(nullptr);
      ch.credits.bind_occupancy(nullptr);
      ch.acks.bind_occupancy(nullptr);
    }
    out_alive_[idx] = 0;  // slot stays permanently empty from here on
    injectors_[idx].reset();
    link_prob_[idx] = LinkErrorProb{};
    link_gate_[idx] = LinkGate{};
  }
  bind_node_links(node);
  bind_node_links(nb);

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
  // byte and wake the network so the next flag scan sees it all.
  refresh_all_node_hot();
  wake_all();
}

bool Network::router_has_work(NodeId node) const {
  const auto i = static_cast<std::size_t>(node);
  // Router not quiescent (noc/node_hot.h for the freshness argument), or
  // anything sitting on a lane it reads, mature or not: flits arriving on
  // mesh links and from the NI, credits/ACKs returning on its outgoing
  // links, ejection credits. Maturity is ignored on purpose — an immature
  // entry just keeps the node un-skipped a cycle or two early, which is
  // conservative. Absent/killed lanes are unbound, so their bytes stay 0.
  // Non-short-circuit `|` keeps the visit-list scan free of branches.
  return ((node_hot_[i] & node_hot::kRouterQuiescent) == 0) |
         lanes_[i].router_busy();
}

bool Network::ni_has_work(NodeId node) const {
  // Injection side busy, or ejection flits / injection credits waiting.
  const auto i = static_cast<std::size_t>(node);
  return ((node_hot_[i] & node_hot::kNiInjectionIdle) == 0) |
         lanes_[i].ni_busy();
}

template <typename F>
void Network::for_each_shard(bool pooled, F&& f) {
  ++phase_dispatches_;
  if (pooled && pool_ != nullptr && shards_.size() > 1) {
    pool_->run(shards_.size(), f);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) f(s);
  }
}

void Network::merge_effects(Cycle now) {
  // Canonical single merge for the fused cycle. Shards are contiguous
  // ascending node ranges, so concatenating per-shard streams in shard order
  // reproduces the serial emission order of each kind. The kinds write
  // disjoint global structures, so only the intra-kind order matters:
  //  * trace — the serial stepper runs all routers before all NIs within a
  //    phase, and routers stage in both phases while NIs stage only in
  //    receive, so the order is [router rx][NI][router ex], the router
  //    stream cut at the mark each shard task recorded
  //    (StepEffects::mark_receive_end),
  //  * e2e events — `e2e_seq_` is assigned here, so the tie-break stream is
  //    the canonical order for any shard count,
  //  * latency samples / path credits — replayed through the global
  //    accumulators in delivery order (FP addition order preserved); the
  //    NI already walked each credit's path, so this is adds only,
  //  * counters — plain sums (order-free, merged in one pass).
  // Every kind but the router trace is staged in receive only, so one pass
  // per kind suffices (see StepEffects::router_trace_split). Kinds with
  // nothing staged anywhere skip their shard sweep entirely — the common
  // near-quiescent case pays a few emptiness checks only.
  bool any_e2e = false, any_path = false, any_lat = false, any_trace = false;
  for (const StepEffects& fx : fx_) {
    any_e2e |= !fx.e2e.empty();
    any_path |= !fx.path_credits.empty();
    any_lat |= !fx.latency_samples.empty();
    any_trace |= !fx.router_trace.empty() || !fx.ni_trace.empty();
  }

  if (any_trace) {
    for (StepEffects& fx : fx_)
      fx.router_trace.drain_range_into(tracer_, 0, fx.router_trace_split);
    for (StepEffects& fx : fx_) {
      staged_effects_merged_ += fx.ni_trace.size();
      fx.ni_trace.drain_into(tracer_);
    }
    for (StepEffects& fx : fx_) {
      staged_effects_merged_ += fx.router_trace.size();
      fx.router_trace.drain_range_into(tracer_, fx.router_trace_split,
                                       fx.router_trace.size());
      fx.router_trace.clear();
    }
  }

  if (any_e2e) {
    for (const StepEffects& fx : fx_)
      for (const StepEffects::StagedE2e& e : fx.e2e)
        e2e_events_.push(E2eEvent{e.at, e.src, e.id, e.ok, e2e_seq_++});
  }
  if (any_path) {
    for (const StepEffects& fx : fx_)
      for (const StepEffects::StagedPathCredit& c : fx.path_credits)
        for (std::uint32_t j = c.first; j < c.last; ++j)
          latency_window_[static_cast<std::size_t>(fx.path_nodes[j])].add(
              c.latency);
  }
  if (any_lat) {
    for (const StepEffects& fx : fx_)
      for (const double sample : fx.latency_samples) {
        metrics_.packet_latency.add(sample);
        metrics_.latency_hist.add(sample);
      }
    metrics_.last_delivery_cycle = now;
  }
  // Final pass runs unconditionally: clear_posts() must reset every shard's
  // router-trace mark even on a merge that staged no trace, or a later merge
  // could replay a stale [0, mark) range of an emptied stage.
  for (StepEffects& fx : fx_) {
    staged_effects_merged_ += fx.e2e.size() + fx.path_credits.size();
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
  // check runs even when the network sleeps, so a --kill-link landing
  // inside a lookahead-skipped window still fires at its exact cycle (the
  // teardown then wakes the network).
  if (next_fault_ < pending_faults_.size() &&
      pending_faults_[next_fault_].at_cycle <= now_) {
    apply_due_hard_faults();
  }

  const Cycle t = now_;
  // End-to-end responses drain serially before the phases: delivery may
  // refill an NI (reinject queue), which the visit lists must observe. This
  // path keeps the direct metric/trace sinks — it never runs inside a
  // parallel phase. Delivery also wakes the network: the e2e heap is
  // exactly the "earliest maturity" bound a fully-drained network is
  // waiting on, so the wake is what lets it sleep through ACK gaps without
  // missing the delivery cycle.
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

  // Cross-cycle quiescence lookahead: a cycle in which no node was busy
  // leaves no internal work and no occupied lane anywhere a visit would look
  // (non-empty lanes — mature or not — keep their reader busy, so "all idle"
  // implies "all lanes empty"). Nothing can change that state except an
  // external event, and every such event lowers the wake stamp in serial
  // context: packet enqueue (NI::enqueue_packet -> wake_node), e2e delivery
  // (the drain above) and hard-fault teardown (wake_all). Until one fires,
  // skipping the cycle wholesale is the same bit-exact elision the visit
  // lists perform — the skip counters are credited identically — so results
  // are unchanged for any sim_threads value.
  const std::size_t n = routers_.size();
  if (wake_ > t) {
    router_steps_skipped_ += n;
    ni_steps_skipped_ += n;
    ++lookahead_cycles_slept_;
    ++now_;
    if (timed)
      phase_timings_.serial_seconds +=
          std::chrono::duration<double>(SteadyClock::now() - t0).count();  // rlftnoc-lint: allow(R2) wall-clock measured only, never fed back
    return;
  }

  // Fused dispatch A — per shard: one scan over the shard's nodes that
  // builds its visit lists, then the receive phase over them
  // (routers before NIs, ascending). Fusing is sound because the scan reads
  // only state the receive phase leaves untouched across shards: receive
  // pops are single-consumer on the popping node's own lanes, ACK responses
  // wait in their router until its execute, and the only receive-side push
  // (the NI's ejection credit) is node-local and ordered after its own
  // shard's scan. So every list holds exactly the nodes a separate scan
  // phase behind a barrier would have listed.
  //
  // Idle-skip itself: a node whose internal state is quiescent and whose
  // incoming lanes are all empty cannot change any state this cycle —
  // receive() would pop nothing and every execute() stage scans empty/idle
  // structures, with no RNG draws, counter updates or power events on those
  // paths. Leaving it off the lists is therefore observationally equivalent
  // (bit-identical), not an approximation. All cross-node signals travel
  // through delay lines with latency >= 1, so nothing pushed during this
  // cycle's phases could have made a skipped node busy at t.
  //
  // The scan is branch-free: each node is written at its list's end, and
  // the end advances only when the node is busy, so a list is its shard's
  // busy nodes in ascending node order. Since the end never passes the
  // node being written, a shard writes only its own slice [lo, hi) of each
  // list.
  //
  // Pooling for A is decided before the lists exist, from the previous
  // cycle's (deterministic, thread-count-invariant) busy count — a pure
  // scheduling choice that cannot affect staging.
  const bool pooled_a = n >= kMinNodesForPooledFlags ||
                        prev_busy_ >= kMinBusyVisitsForPool;
  // Band boundaries follow the work (rebalance_bands): recut them here, in
  // serial context with every staging buffer drained.
  const bool banded = shards_.size() > 1;
  if (banded && t >= next_rebalance_) {
    rebalance_bands();
    next_rebalance_ = t + kRebalancePeriod;
  }
  SteadyClock::time_point t1{};
  if (timed) {
    t1 = SteadyClock::now();  // rlftnoc-lint: allow(R2) wall-clock measured only, never fed back
    phase_timings_.serial_seconds +=
        std::chrono::duration<double>(t1 - t0).count();
  }

  for_each_shard(pooled_a, [&](std::size_t s) {
    StepEffects& fx = fx_[s];
    const NodeId lo = shards_[s].lo;
    const NodeId hi = shards_[s].hi;
    NodeId* const vr = visit_router_.data() + lo;
    NodeId* const vn = visit_ni_.data() + lo;
    std::uint32_t nr = 0;
    std::uint32_t nn = 0;
    for (NodeId node = lo; node < hi; ++node) {
      vr[nr] = node;
      nr += router_has_work(node) ? 1 : 0;
      vn[nn] = node;
      nn += ni_has_work(node) ? 1 : 0;
    }
    fx.busy_routers = nr;
    fx.busy_nis = nn;
    if (banded) {
      for (std::uint32_t k = 0; k < nr; ++k) ++band_work_[static_cast<std::size_t>(vr[k])];
      for (std::uint32_t k = 0; k < nn; ++k) ++band_work_[static_cast<std::size_t>(vn[k])];
    }
    for (std::uint32_t k = 0; k < nr; ++k)
      routers_[static_cast<std::size_t>(vr[k])]->receive(t);
    for (std::uint32_t k = 0; k < nn; ++k)
      nis_[static_cast<std::size_t>(vn[k])]->receive(t);
    fx.mark_receive_end();
  });

  // Skip counters: every node not on a list.
  std::uint64_t busy_routers = 0;
  std::uint64_t busy_nis = 0;
  for (const StepEffects& fx : fx_) {
    busy_routers += fx.busy_routers;
    busy_nis += fx.busy_nis;
  }
  router_steps_skipped_ += n - busy_routers;
  ni_steps_skipped_ += n - busy_nis;
  const std::uint64_t busy = busy_routers + busy_nis;
  prev_busy_ = busy;

  SteadyClock::time_point t2{};
  if (timed) {
    t2 = SteadyClock::now();  // rlftnoc-lint: allow(R2) wall-clock measured only, never fed back
    phase_timings_.receive_seconds +=
        std::chrono::duration<double>(t2 - t1).count();
  }

  // Dispatch B — the execute phase over the same visit lists. Each visited
  // router and NI republishes its hot bit right after its own execute, while
  // it is still in cache: a node's visits are the only thing that can change
  // its router's quiescence or its NI's injection idleness mid-run (other
  // nodes' visits only push onto its lanes), and serial mutators refresh
  // explicitly. Whether it runs pooled or inline depends only on the
  // deterministic busy count, never on timing. Nothing busy means nothing to
  // execute and nothing staged — skip the dispatch.
  if (busy > 0) {
    const bool pooled = busy >= kMinBusyVisitsForPool;
    for_each_shard(pooled, [&](std::size_t s) {
      const NodeId lo = shards_[s].lo;
      const NodeId* const vr = visit_router_.data() + lo;
      const NodeId* const vn = visit_ni_.data() + lo;
      const std::uint32_t nr = fx_[s].busy_routers;
      const std::uint32_t nn = fx_[s].busy_nis;
      for (std::uint32_t k = 0; k < nr; ++k) {
        const auto i = static_cast<std::size_t>(vr[k]);
        Router& r = *routers_[i];
        r.execute(t);
        set_hot_bit(i, node_hot::kRouterQuiescent, r.quiescent());
      }
      for (std::uint32_t k = 0; k < nn; ++k) {
        const auto i = static_cast<std::size_t>(vn[k]);
        NetworkInterface& ni = *nis_[i];
        ni.execute(t);
        set_hot_bit(i, node_hot::kNiInjectionIdle, ni.injection_idle());
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

  // A cycle with no busy node sleeps the network until an external event
  // wakes it; otherwise the next cycle steps, covering every push of this
  // one (flits, credits and ACKs, all pushed in execute).
  wake_ = busy == 0 ? kWakeNever : t + 1;

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
