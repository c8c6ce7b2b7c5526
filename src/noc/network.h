// Top-level NoC: routers, network interfaces, channels, fault injection and
// power hooks, advanced one cycle at a time.
//
// Update discipline: within one `step()` every router and NI first *receives*
// (popping only signals that matured on the delay-line channels), then every
// router and NI *executes* (pushing signals that mature next cycle). The
// visible state of a cycle is therefore independent of iteration order —
// which is what licenses running each phase data-parallel across contiguous
// node shards (`set_sim_threads`). All cross-shard mutations are staged in
// per-shard StepEffects buffers and merged after the phase barrier in
// canonical node order, so results are bit-identical for any thread count
// (see DESIGN.md, "Parallel stepping & deterministic merge").
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "fault/hard_faults.h"
#include "fault/injector.h"
#include "fault/varius.h"
#include "noc/channel.h"
#include "noc/completion.h"
#include "noc/ni.h"
#include "noc/node_hot.h"
#include "noc/noc_config.h"
#include "noc/router.h"
#include "noc/step_effects.h"
#include "noc/topology.h"
#include "power/orion_lite.h"
#include "telemetry/telemetry.h"

namespace rlftnoc {

/// Network-wide roll-up metrics for one simulation phase.
struct NetworkMetrics {
  StatAccumulator packet_latency;  ///< end-to-end cycles, successful packets
  /// Latency distribution for tail percentiles (bucketed 0..20K cycles;
  /// beyond that the overflow bucket still keeps quantiles monotone).
  Histogram latency_hist{0.0, 20000.0, 2000};
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packet_e2e_retransmissions = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t retx_flits_e2e = 0;   ///< flits re-sent source->dest (CRC path)
  std::uint64_t retx_flits_hop = 0;   ///< link-level NACK-triggered re-sends
  std::uint64_t dup_flits = 0;        ///< mode-2 proactive duplicates
  std::uint64_t crc_packet_failures = 0;
  Cycle last_delivery_cycle = 0;

  /// The paper's "retransmission traffic": every flit transmission beyond
  /// the first copy, whatever mechanism caused it.
  std::uint64_t total_retransmitted_flits() const noexcept {
    return retx_flits_e2e + retx_flits_hop + dup_flits;
  }

  void reset() { *this = NetworkMetrics{}; }
};

/// Per-link timing-error probabilities, refreshed by the control layer each
/// time-step from the thermal + VARIUS models.
struct LinkErrorProb {
  double normal = 0.0;   ///< single-cycle transfer (modes 0-2)
  double relaxed = 0.0;  ///< stretched mode-3 transfer
};

class Network {
 public:
  Network(const NocConfig& cfg, std::uint64_t seed, VariusParams varius = {},
          PowerParams power = {});

  // Non-copyable: routers/NIs hold back-pointers.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Advances the whole network by one cycle.
  void step();

  Cycle now() const noexcept { return now_; }
  const NocConfig& config() const noexcept { return cfg_; }
  const MeshTopology& topology() const noexcept { return topo_; }

  Router& router(NodeId n) {
    RLFTNOC_CHECK(valid_node(n), "router(%d): out of range", n);
    return *routers_[static_cast<std::size_t>(n)];
  }
  const Router& router(NodeId n) const {
    RLFTNOC_CHECK(valid_node(n), "router(%d): out of range", n);
    return *routers_[static_cast<std::size_t>(n)];
  }
  NetworkInterface& ni(NodeId n) {
    RLFTNOC_CHECK(valid_node(n), "ni(%d): out of range", n);
    return *nis_[static_cast<std::size_t>(n)];
  }
  const NetworkInterface& ni(NodeId n) const {
    RLFTNOC_CHECK(valid_node(n), "ni(%d): out of range", n);
    return *nis_[static_cast<std::size_t>(n)];
  }

  PowerModel& power() noexcept { return power_; }
  const PowerModel& power() const noexcept { return power_; }
  NetworkMetrics& metrics() noexcept { return metrics_; }
  const NetworkMetrics& metrics() const noexcept { return metrics_; }
  const VariusModel& varius() const noexcept { return varius_; }

  /// Outgoing inter-router channel of `node` through mesh port `p`;
  /// nullptr at a mesh edge, for a dead link or for the Local port. The
  /// step datapath never calls this: routers use the endpoints bound from
  /// it (Router::bind_links); tests use it directly.
  ChannelPair* out_channel(NodeId node, Port p);
  /// Incoming inter-router channel at `node`'s input port `p` (the
  /// neighbour's outgoing channel); nullptr at a mesh edge, for a dead link
  /// or for Local.
  ChannelPair* in_channel(NodeId node, Port p);
  /// NI -> router injection channel of `node`.
  ChannelPair& inj_channel(NodeId node) {
    RLFTNOC_CHECK(valid_node(node), "inj_channel(%d): out of range", node);
    return inj_[static_cast<std::size_t>(node)];
  }
  /// Router -> NI ejection channel of `node`.
  ChannelPair& ej_channel(NodeId node) {
    RLFTNOC_CHECK(valid_node(node), "ej_channel(%d): out of range", node);
    return ej_[static_cast<std::size_t>(node)];
  }

  /// Sets the error probabilities of the link leaving `node` through `p`.
  void set_link_error_prob(NodeId node, Port p, LinkErrorProb prob);
  LinkErrorProb link_error_prob(NodeId node, Port p) const;

  /// Applies transient faults to a flit entering the wire at (`node`, `p`).
  /// No-op on Local links (NI wiring is short and assumed robust).
  /// `stage` is the caller's shard-local trace sink (routers transmitting
  /// inside a parallel phase); null falls back to the global tracer, which
  /// is only safe from serial context.
  void corrupt_on_wire(NodeId node, Port p, Flit& flit, bool relaxed,
                       TraceStage* stage = nullptr);

  /// Records a power event at `node`'s router.
  void record_power(NodeId node, PowerEvent e, std::uint64_t n = 1) {
    power_.record(node, e, n);
  }

  /// Schedules delivery of an end-to-end ACK / retransmission request back
  /// to the source NI of `packet` at cycle `at`.
  void schedule_e2e_response(Cycle at, NodeId src, PacketId id, bool ok);

  /// True when no packet, flit, credit, ACK or timer is in flight anywhere.
  bool drained() const;

  /// Registers hard faults (dead links / routers), validating nodes and
  /// ports against the structural topology. Faults with at_cycle <= now are
  /// applied immediately; later ones fire at the top of their step().
  /// Throws std::invalid_argument for out-of-range nodes, Local/edge-port
  /// links, or a westfirst configuration (its turn model cannot route
  /// around faults deadlock-free — see noc/routing.h).
  void schedule_hard_faults(const std::vector<HardFault>& faults);

  /// True when any hard fault was scheduled (applied or still pending).
  bool has_hard_faults() const noexcept { return !pending_faults_.empty(); }
  std::size_t hard_faults_applied() const noexcept { return faults_applied_; }
  /// Flits destroyed on dead wires / dead-router NI lanes (the conservation
  /// audit counts these alongside the routers' fault_drops).
  std::uint64_t wire_kill_drops() const noexcept { return wire_kill_drops_; }

  /// Transient-fault injector of the link leaving `node` through `p`;
  /// nullptr for absent or killed links. Tests inspect droop bookkeeping.
  const LinkFaultInjector* link_injector(NodeId node, Port p) const {
    if (p == Port::kLocal) return nullptr;
    return injectors_[link_index(node, p)].get();
  }

  /// Idle-skip diagnostics: how many per-node phase visits step() elided
  /// because the node was provably quiescent (see step() for the argument).
  std::uint64_t router_steps_skipped() const noexcept { return router_steps_skipped_; }
  std::uint64_t ni_steps_skipped() const noexcept { return ni_steps_skipped_; }

  /// RNG stream for payload generation (shared by make_packet callers that
  /// don't carry their own stream).
  Rng& payload_rng() noexcept { return payload_rng_; }

  /// Optional event tracer (telemetry). Null when tracing is off; every
  /// instrumentation site goes through RLFTNOC_TRACE, which null-checks (and
  /// compiles away entirely under RLFTNOC_TELEMETRY_DISABLED). Routers and
  /// NIs trace through per-shard staging sinks instead, re-bound here.
  EventTracer* tracer() const noexcept { return tracer_; }
  void set_tracer(EventTracer* t) noexcept {
    tracer_ = t;
    bind_effect_sinks();
  }

  /// Optional packet-resolution feed (see noc/completion.h). Null when no
  /// consumer is attached. All notification sites are serial — the e2e drain
  /// at the top of step() and the hard-fault teardown sweeps — so listeners
  /// observe one canonical order for any sim_threads value.
  PacketResolutionListener* resolution_listener() const noexcept {
    return resolution_listener_;
  }
  void set_resolution_listener(PacketResolutionListener* l) noexcept {
    resolution_listener_ = l;
  }

  /// Window accumulator of the per-hop latencies credited to `node` by the
  /// packets delivered along paths through it (the paper's per-router
  /// "E2E_Latency(i)" reward term; reset each control time-step by the
  /// fault-tolerant controller).
  StatAccumulator& router_latency_window(NodeId node) {
    RLFTNOC_CHECK(valid_node(node), "router_latency_window(%d): out of range",
                  node);
    return latency_window_[static_cast<std::size_t>(node)];
  }

  /// Configures deterministic intra-run parallelism for step(): the mesh is
  /// partitioned into min(nodes, threads) contiguous node bands ("shards"),
  /// one per executor (the caller and threads - 1 helpers). The bands start
  /// as an even split, and every 64 stepped cycles their boundaries are
  /// recut at equal quantiles of each node's simulated work (visits plus
  /// flits moved). Each phase runs data-parallel across the bands, with
  /// cross-band effects staged and merged in canonical node order — results
  /// are bit-identical for any value and any cut. `threads` <= 1 steps
  /// serially on the calling thread with one band (still through the same
  /// staged path); 0 means one thread per hardware thread.
  /// Composes with campaign-level `jobs`: `runs_in_flight` is how many runs
  /// step at once (0: one per hardware thread). The pool's executors spin
  /// between phases only while bands x runs_in_flight fit the machine's
  /// hardware threads (spin_fits).
  void set_sim_threads(unsigned threads, unsigned runs_in_flight = 1);
  unsigned sim_threads() const noexcept { return sim_threads_; }
  /// Bands the mesh is currently partitioned into (1 when serial).
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Helper threads of the phase pool (0 when serial): executors - 1.
  unsigned helper_threads() const noexcept {
    return pool_ != nullptr ? pool_->helpers() : 0;
  }

  /// Total staged effects merged. Deterministic — staging happens
  /// identically on the pooled and inline paths.
  std::uint64_t staged_effects_merged() const noexcept {
    return staged_effects_merged_;
  }

  /// Fused-stepper diagnostics. phase_dispatches / merges_run /
  /// lookahead_cycles_slept are thread-count-invariant (functions of the
  /// simulated traffic alone — see DESIGN.md §5) and exported as net.*
  /// telemetry. Per cycle the fused stepper issues at most 2 phase
  /// dispatches (receive+flags, execute) and 1 merge; slept cycles issue
  /// none.
  std::uint64_t phase_dispatches() const noexcept { return phase_dispatches_; }
  std::uint64_t merges_run() const noexcept { return merges_run_; }
  /// Cycles the network slept whole (quiescence lookahead).
  std::uint64_t lookahead_cycles_slept() const noexcept {
    return lookahead_cycles_slept_;
  }

  /// Refreshes `node`'s hot byte and wakes the network for the current
  /// cycle. Serial context only — called whenever state a sleeping network
  /// would otherwise never re-inspect is mutated from outside the node's own
  /// phase visits (packet enqueue, e2e response delivery, test-level pokes).
  void wake_node(NodeId node) noexcept {
    if (!valid_node(node)) return;
    wake_all();
    refresh_node_hot(node);
  }
  /// Wakes the network for the current cycle (hard-fault teardown).
  void wake_all() noexcept {
    if (wake_ > now_) wake_ = now_;
  }

  /// Optional per-phase wall-time breakdown (bench_scaling's v2 schema).
  /// Costs two clock reads per dispatch when enabled; off by default and
  /// never a simulation input.
  struct PhaseTimings {
    double serial_seconds = 0.0;   ///< faults + e2e drain + sleep test
    double receive_seconds = 0.0;  ///< fused flags+receive dispatch
    double execute_seconds = 0.0;  ///< execute dispatch (incl. hot bits)
    double merge_seconds = 0.0;    ///< single canonical merge
  };
  void set_phase_timing(bool on) noexcept { time_phases_ = on; }
  const PhaseTimings& phase_timings() const noexcept { return phase_timings_; }

 private:
  /// The invariant auditor walks every channel delay line (see noc/audit.h).
  friend class NetworkAuditor;
  /// Tests cut the bands at will (tests/network_test_peer.h).
  friend struct NetworkTestPeer;

  struct E2eEvent {
    Cycle at;
    NodeId src;
    PacketId id;
    bool ok;
    /// Min-heap on `at`; seq breaks ties so delivery order is deterministic.
    std::uint64_t seq;
    friend bool operator>(const E2eEvent& a, const E2eEvent& b) noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  std::size_t link_index(NodeId node, Port p) const noexcept {
    return static_cast<std::size_t>(node) * kNumPorts + port_index(p);
  }

  bool valid_node(NodeId n) const noexcept {
    return n >= 0 && static_cast<std::size_t>(n) < routers_.size();
  }

  bool router_has_work(NodeId node) const;
  bool ni_has_work(NodeId node) const;

  /// Contiguous node range [lo, hi) owned by one shard.
  struct Shard {
    NodeId lo = 0;
    NodeId hi = 0;
  };

  /// (Re)partitions the mesh into `shards` even contiguous node ranges,
  /// binds every router/NI to its shard's StepEffects + trace stage and
  /// restarts the work counts.
  void build_shards(std::size_t shards);
  /// Moves the band boundaries: band s becomes [cuts[s], cuts[s+1]). Needs
  /// shard_count() + 1 ascending cuts from 0 to the node count, every band
  /// non-empty. Serial context, between steps (staging buffers drained).
  void set_bands(const std::vector<NodeId>& cuts);
  /// Recuts the bands at equal quantiles of the work counted since the
  /// last cut (band_work_ plus flit deltas); keeps them if nothing ran.
  void rebalance_bands();
  /// Re-binds the per-node trace sinks (after set_tracer / build_shards).
  void bind_effect_sinks();
  /// Binds nodes [lo, hi) to shard `shard`'s staging buffer and trace stage.
  void bind_effect_sinks(std::size_t shard, NodeId lo, NodeId hi);

  /// Runs f(shard_index) for every shard — pooled when `pooled`, else
  /// inline in ascending shard order. The choice cannot affect results:
  /// both orders produce the same per-shard staging buffers.
  template <typename F>
  void for_each_shard(bool pooled, F&& f);

  /// Applies every shard's staged effects in canonical order (shard-major =
  /// ascending node order, matching the serial stepper). See step().
  void merge_effects(Cycle now);

  // -- hard-fault application (serial, between steps; see DESIGN.md) --
  void apply_due_hard_faults();
  void kill_link_internal(NodeId node, Port p, std::vector<LostFlit>& lost);
  void kill_router_internal(NodeId node, std::vector<LostFlit>& lost);
  /// Chases a severed worm's downstream allocation chain starting at the
  /// router that reported it, purging one input VC per hop.
  void purge_worm_chain(Cycle now, NodeId from, Router::SeveredWorm worm,
                        std::vector<LostFlit>& lost);
  /// Rebuilds routes and runs packet-level repair over the lost-flit list.
  void finish_fault_application(std::vector<LostFlit>& lost);

  /// Binds every live lane's DelayLine to its consumer's byte in lanes_
  /// (construction only; a killed lane is unbound in kill_link_internal).
  void bind_lane_bytes();
  /// (Re)binds `node`'s router and NI endpoints from in_channel /
  /// out_channel (construction, link kills).
  void bind_node_links(NodeId node);

  NocConfig cfg_;
  MeshTopology topo_;
  Cycle now_ = 0;

  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<NetworkInterface>> nis_;
  /// out_ch_[node*5+port]: inter-router channels, by value. Slots at mesh
  /// edges / Local / killed links stay empty and unbound forever (out_alive_
  /// gates the accessors); a killed link's lanes are cleared on kill.
  std::vector<ChannelPair> out_ch_;
  std::vector<std::uint8_t> out_alive_;  ///< per link_index: channel exists
  std::vector<ChannelPair> inj_;
  std::vector<ChannelPair> ej_;

  VariusModel varius_;
  PowerModel power_;
  NetworkMetrics metrics_;

  std::vector<LinkErrorProb> link_prob_;
  /// Precompiled Bernoulli gates mirroring link_prob_ (normal / relaxed),
  /// refreshed by set_link_error_prob so the per-flit error decision in
  /// corrupt_on_wire is one integer compare (Rng::bernoulli_gate). A zero
  /// probability compiles to kGateNever, which short-circuits draw-free.
  struct LinkGate {
    std::uint64_t normal = Rng::kGateNever;
    std::uint64_t relaxed = Rng::kGateNever;
  };
  std::vector<LinkGate> link_gate_;
  std::vector<std::unique_ptr<LinkFaultInjector>> injectors_;

  std::priority_queue<E2eEvent, std::vector<E2eEvent>, std::greater<>> e2e_events_;
  std::uint64_t e2e_seq_ = 0;

  /// Scheduled hard faults, sorted by at_cycle from next_fault_ on;
  /// [0, next_fault_) have been applied.
  std::vector<HardFault> pending_faults_;
  std::size_t next_fault_ = 0;
  std::size_t faults_applied_ = 0;
  std::uint64_t wire_kill_drops_ = 0;

  std::vector<StatAccumulator> latency_window_;

  EventTracer* tracer_ = nullptr;
  PacketResolutionListener* resolution_listener_ = nullptr;

  /// Per-cycle visit lists, n-sized and allocated once: a band [lo, hi)
  /// writes its busy routers, ascending, to visit_router_[lo, lo + nr) and
  /// its busy NIs to visit_ni_[lo, lo + nn) (counts in its StepEffects), and
  /// receive and execute walk only those. No band touches another's slice.
  std::vector<NodeId> visit_router_;
  std::vector<NodeId> visit_ni_;
  std::uint64_t router_steps_skipped_ = 0;
  std::uint64_t ni_steps_skipped_ = 0;

  // -- parallel stepping (see step() and DESIGN.md) --
  unsigned sim_threads_ = 1;
  std::vector<Shard> shards_;        ///< contiguous, ascending, cover [0, n)
  std::vector<StepEffects> fx_;      ///< one staging buffer per shard
  std::unique_ptr<PhasePool> pool_;  ///< null when sim_threads_ <= 1
  std::uint64_t staged_effects_merged_ = 0;
  std::uint64_t phase_dispatches_ = 0;
  std::uint64_t merges_run_ = 0;
  /// Per node: router + NI visits since the last cut (counted by the band
  /// that owns the node, so never shared), plus flit deltas at the cut.
  std::vector<std::uint64_t> band_work_;
  /// Per node: flits_moved() of its router at the last cut.
  std::vector<std::uint64_t> flits_seen_;
  std::vector<NodeId> band_cuts_;  ///< rebalance_bands scratch
  Cycle next_rebalance_ = 0;       ///< first stepped cycle of the next recut

  // -- SoA hot state + cross-cycle quiescence lookahead (see step()) --
  /// Sentinel wake stamp for a network with no scheduled wake-up.
  static constexpr Cycle kWakeNever = ~Cycle{0};
  /// Per-node packed hot byte: router quiescent, NI injection idle (see
  /// noc/node_hot.h).
  std::vector<std::uint8_t> node_hot_;
  /// Per-node lane occupancy bytes, laid out by consumer (noc/node_hot.h).
  /// Each byte has one producer, which only sets it (a push, in execute —
  /// or, for ej credits, the node's own NI receive), and one consumer, the
  /// node itself, which clears it in the pop that empties the lane. The
  /// inj-credit byte is set by the node's router and cleared by its NI, both
  /// run by the same shard task. Distinct bytes are distinct memory
  /// locations, so no atomics are needed (DESIGN.md §5).
  std::vector<LaneBytes> lanes_;
  /// wake_ <= now_ means the network must be stepped this cycle;
  /// kWakeNever means it sleeps until an external event lowers the stamp.
  Cycle wake_ = 0;
  std::uint64_t lookahead_cycles_slept_ = 0;
  /// Previous cycle's total busy visits — decides whether dispatch A runs
  /// pooled before this cycle's flags exist. Deterministic (derived only
  /// from simulation state), so the pooling choice is too.
  std::uint64_t prev_busy_ = 0;

  /// Refreshes node_hot_[node] from the node's current settled state.
  void refresh_node_hot(NodeId node) noexcept;
  void set_hot_bit(std::size_t i, std::uint8_t bit, bool on) noexcept {
    node_hot_[i] = static_cast<std::uint8_t>(on ? node_hot_[i] | bit
                                                : node_hot_[i] & ~bit);
  }
  void refresh_all_node_hot() noexcept;

  bool time_phases_ = false;
  PhaseTimings phase_timings_;

  Rng payload_rng_;
};

}  // namespace rlftnoc
