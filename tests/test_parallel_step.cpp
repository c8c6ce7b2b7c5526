// Determinism contract of the phase-parallel network stepper: any
// SimOptions::sim_threads value must produce bit-identical results. Shards
// are contiguous node ranges, receive/execute run data-parallel, and every
// cross-shard effect is staged per shard and merged in canonical node order
// after each phase barrier, so the FP accumulation order, the e2e tie-break
// sequence stream and the trace ring content never depend on thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "noc/audit.h"
#include "network_test_peer.h"
#include "noc/network.h"
#include "router_test_peer.h"
#include "sim/options_io.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

NocConfig small_mesh() {
  NocConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// Shard partition structure
// ---------------------------------------------------------------------------

/// The band rule: one contiguous band per executor, min(nodes, t) bands in
/// all (serial stepping keeps one), and one executor per band — the caller
/// plus bands - 1 helpers.
std::size_t expected_bands(unsigned t, std::size_t nodes) {
  return t <= 1 ? 1 : std::min<std::size_t>(nodes, t);
}
unsigned expected_helpers(unsigned t, std::size_t nodes) {
  return static_cast<unsigned>(expected_bands(t, nodes) - 1);
}

TEST(ParallelStep, ShardPartitionFollowsThreadCount) {
  Network net(small_mesh(), /*seed=*/3);
  EXPECT_EQ(net.sim_threads(), 1u);
  EXPECT_EQ(net.shard_count(), 1u);
  EXPECT_EQ(net.helper_threads(), 0u);

  // One band per thread: 2 threads -> 2 bands, 3 -> 3 uneven bands (16
  // nodes, an even split to start with), 4 -> 4.
  for (const unsigned t : {2u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    net.set_sim_threads(t);
    EXPECT_EQ(net.sim_threads(), t);
    EXPECT_EQ(net.shard_count(), std::size_t{t});
    EXPECT_EQ(net.helper_threads(), t - 1);
  }
  net.set_sim_threads(3);
  EXPECT_EQ(NetworkTestPeer::bands(net), (std::vector<NodeId>{0, 6, 11, 16}));

  // More threads than nodes: one band per node at most, and no helper
  // beyond the band count (a helper without a band never runs a task).
  net.set_sim_threads(64);
  EXPECT_EQ(net.shard_count(), 16u);
  EXPECT_EQ(net.helper_threads(), 15u);

  // 0 = one per hardware thread, never less than one shard.
  net.set_sim_threads(0);
  EXPECT_GE(net.sim_threads(), 1u);
  EXPECT_EQ(net.shard_count(), expected_bands(net.sim_threads(), 16));
  EXPECT_EQ(net.helper_threads(), expected_helpers(net.sim_threads(), 16));

  net.set_sim_threads(1);
  EXPECT_EQ(net.shard_count(), 1u);
  EXPECT_EQ(net.helper_threads(), 0u);
}

TEST(ParallelStep, RebindingThreadsMidRunKeepsAuditClean) {
  const NocConfig cfg = small_mesh();
  Network net(cfg, /*seed=*/3);
  NetworkAuditor auditor;
  for (const unsigned t : {1u, 3u, 4u, 8u, 1u}) {
    net.set_sim_threads(t);
    EXPECT_TRUE(auditor.run(net).empty()) << "threads=" << t;
  }
}

// ---------------------------------------------------------------------------
// Network-level bit-identity: identical traffic, different shard counts
// ---------------------------------------------------------------------------

/// Drives one fault-heavy mode-2 run to drain and returns the network for
/// inspection. Everything (traffic, faults, seeds) is a pure function of
/// `seed`, so two calls differing only in `sim_threads` must agree exactly.
std::unique_ptr<Network> run_fault_heavy(unsigned sim_threads,
                                         std::uint64_t seed,
                                         EventTracer* tracer = nullptr) {
  const NocConfig cfg = small_mesh();
  auto net = std::make_unique<Network>(cfg, seed);
  net->set_sim_threads(sim_threads);
  if (tracer != nullptr) net->set_tracer(tracer);

  // Mode 2 exercises the whole staged-effect surface: ECC retention, NACK
  // resends (staged ack pushes), proactive duplicates, CRC packet failures
  // (staged e2e responses) and deliveries (staged FP latency samples).
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    net->router(n).set_mode(OpMode::kMode2);
    for (const Port p : {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
      if (net->out_channel(n, p) != nullptr)
        net->set_link_error_prob(n, p, LinkErrorProb{0.12, 0.004});
    }
  }

  Rng traffic_rng(seed, "parallel-step-traffic");
  PacketId next_id = 1;
  for (int i = 0; i < 400; ++i) {
    const auto src = static_cast<NodeId>(
        traffic_rng.next_u64() % static_cast<std::uint64_t>(cfg.num_nodes()));
    const auto dst = static_cast<NodeId>(
        traffic_rng.next_u64() % static_cast<std::uint64_t>(cfg.num_nodes()));
    if (src == dst) continue;
    net->ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                            cfg.flits_per_packet, 0,
                                            net->payload_rng()));
  }

  for (Cycle c = 0; c < 20000 && !net->drained(); ++c) net->step();
  return net;
}

void expect_networks_identical(const Network& a, const Network& b) {
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.drained(), b.drained());

  const NetworkMetrics& ma = a.metrics();
  const NetworkMetrics& mb = b.metrics();
  EXPECT_EQ(ma.packets_injected, mb.packets_injected);
  EXPECT_EQ(ma.packets_delivered, mb.packets_delivered);
  EXPECT_EQ(ma.flits_delivered, mb.flits_delivered);
  EXPECT_EQ(ma.retx_flits_e2e, mb.retx_flits_e2e);
  EXPECT_EQ(ma.retx_flits_hop, mb.retx_flits_hop);
  EXPECT_EQ(ma.dup_flits, mb.dup_flits);
  EXPECT_EQ(ma.crc_packet_failures, mb.crc_packet_failures);
  EXPECT_EQ(ma.packet_e2e_retransmissions, mb.packet_e2e_retransmissions);
  EXPECT_EQ(ma.last_delivery_cycle, mb.last_delivery_cycle);
  // Bit-exact FP: the merge replays latency samples in the serial order, so
  // the accumulator state must match to the last ulp, not approximately.
  EXPECT_EQ(ma.packet_latency.count(), mb.packet_latency.count());
  EXPECT_EQ(ma.packet_latency.sum(), mb.packet_latency.sum());
  EXPECT_EQ(ma.packet_latency.mean(), mb.packet_latency.mean());
  EXPECT_EQ(ma.packet_latency.variance(), mb.packet_latency.variance());

  const int n = a.config().num_nodes();
  for (NodeId r = 0; r < n; ++r) {
    SCOPED_TRACE("router " + std::to_string(r));
    const RouterCounters& ra = a.router(r).counters();
    const RouterCounters& rb = b.router(r).counters();
    for (std::size_t p = 0; p < kNumPorts; ++p) {
      EXPECT_EQ(ra.flits_in[p], rb.flits_in[p]);
      EXPECT_EQ(ra.flits_out[p], rb.flits_out[p]);
      EXPECT_EQ(ra.nacks_sent[p], rb.nacks_sent[p]);
      EXPECT_EQ(ra.acks_received[p], rb.acks_received[p]);
    }
    EXPECT_EQ(ra.hop_retransmissions, rb.hop_retransmissions);
    EXPECT_EQ(ra.preretx_duplicates, rb.preretx_duplicates);
    EXPECT_EQ(ra.dup_discards, rb.dup_discards);
    EXPECT_EQ(ra.ecc_corrections, rb.ecc_corrections);
    EXPECT_EQ(ra.ecc_uncorrectable, rb.ecc_uncorrectable);

    const NiCounters& na = a.ni(r).counters();
    const NiCounters& nb = b.ni(r).counters();
    EXPECT_EQ(na.packets_injected, nb.packets_injected);
    EXPECT_EQ(na.packets_delivered, nb.packets_delivered);
    EXPECT_EQ(na.packets_reinjected, nb.packets_reinjected);
    EXPECT_EQ(na.flits_sent, nb.flits_sent);
    EXPECT_EQ(na.flits_ejected, nb.flits_ejected);
    EXPECT_EQ(na.crc_flit_failures, nb.crc_flit_failures);
  }

  // Idle-skip decisions and merged-effect counts are functions of the
  // simulated traffic alone, so they too must be thread-count-invariant.
  EXPECT_EQ(a.router_steps_skipped(), b.router_steps_skipped());
  EXPECT_EQ(a.ni_steps_skipped(), b.ni_steps_skipped());
  EXPECT_EQ(a.staged_effects_merged(), b.staged_effects_merged());
  // Fused-stepper counters: dispatch A runs iff the network is awake, B iff
  // any node is busy, the merge iff anything was staged, and a cycle sleeps
  // iff no node was busy at t-1 and no event fired at t — all properties of
  // network state, so all thread-count-invariant.
  EXPECT_EQ(a.phase_dispatches(), b.phase_dispatches());
  EXPECT_EQ(a.merges_run(), b.merges_run());
  EXPECT_EQ(a.lookahead_cycles_slept(), b.lookahead_cycles_slept());
}

TEST(ParallelStep, NetworkStepBitIdenticalAcrossShardCounts) {
  const auto serial = run_fault_heavy(/*sim_threads=*/1, /*seed=*/23);
  ASSERT_TRUE(serial->drained());
  ASSERT_GT(serial->metrics().packets_delivered, 0u);
  // The run must exercise the staged ARQ paths to mean anything.
  ASSERT_GT(serial->metrics().retx_flits_hop, 0u);
  ASSERT_GT(serial->metrics().dup_flits, 0u);

  for (const unsigned t : {2u, 4u, 8u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    const auto threaded = run_fault_heavy(t, /*seed=*/23);
    expect_networks_identical(*serial, *threaded);
  }
}

TEST(ParallelStep, TraceStreamIdenticalAcrossShardCounts) {
  // The per-shard trace stages must merge back into the exact serial event
  // order (all routers node-ascending, then all NIs node-ascending, per
  // phase) — including the ring's drop accounting.
  EventTracer serial_tracer(4096);
  const auto serial = run_fault_heavy(1, /*seed=*/29, &serial_tracer);
#ifdef RLFTNOC_TELEMETRY_DISABLED
  // Compiled-out hooks record nothing: every stream below is equally empty.
  ASSERT_EQ(serial_tracer.size(), 0u);
#else
  ASSERT_GT(serial_tracer.size(), 0u);
#endif

  for (const unsigned t : {2u, 4u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    EventTracer tracer(4096);
    const auto threaded = run_fault_heavy(t, /*seed=*/29, &tracer);
    expect_networks_identical(*serial, *threaded);
    ASSERT_EQ(tracer.size(), serial_tracer.size());
    EXPECT_EQ(tracer.dropped(), serial_tracer.dropped());
    for (std::size_t i = 0; i < tracer.size(); ++i) {
      const TraceEvent& ea = serial_tracer.at(i);
      const TraceEvent& eb = tracer.at(i);
      EXPECT_EQ(ea.kind, eb.kind) << "event " << i;
      EXPECT_EQ(ea.cycle, eb.cycle) << "event " << i;
      EXPECT_EQ(ea.node, eb.node) << "event " << i;
      EXPECT_EQ(ea.port, eb.port) << "event " << i;
      EXPECT_EQ(ea.arg, eb.arg) << "event " << i;
      EXPECT_EQ(ea.value, eb.value) << "event " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Fused-cycle budget: at most 2 dispatches + 1 merge per stepped cycle
// ---------------------------------------------------------------------------

TEST(ParallelStep, CycleBudgetAtMostTwoDispatchesOneMerge) {
  // The pre-fusion stepper paid 3 dispatches (flags, receive, execute) and
  // 2 merges per cycle unconditionally. The fused stepper's budget is at
  // most 2 dispatches (fused flags+receive, execute) and 1 merge per
  // actually-stepped cycle — slept cycles pay none of the three.
  const auto net = run_fault_heavy(/*sim_threads=*/4, /*seed=*/23);
  ASSERT_TRUE(net->drained());
  const std::uint64_t stepped = net->now() - net->lookahead_cycles_slept();
  ASSERT_GT(stepped, 0u);
  EXPECT_GT(net->phase_dispatches(), 0u);
  EXPECT_GT(net->merges_run(), 0u);
  EXPECT_LE(net->phase_dispatches(), 2 * stepped);
  EXPECT_LE(net->merges_run(), stepped);
  // The run ends with a drain: its tail must have slept at least once.
  EXPECT_GT(net->lookahead_cycles_slept(), 0u);
}

// ---------------------------------------------------------------------------
// Cross-cycle quiescence lookahead: engineered idle windows + in-window kill
// ---------------------------------------------------------------------------

/// Two traffic bursts separated by a long full-mesh-idle gap, with a
/// --kill-link-equivalent hard fault scheduled to land INSIDE the gap (a
/// window the lookahead otherwise sleeps straight through). Adaptive routing
/// so the post-fault burst still drains.
std::unique_ptr<Network> run_lookahead_engineered(unsigned sim_threads,
                                                  Cycle* fault_dead_at) {
  NocConfig cfg = small_mesh();
  cfg.routing = RoutingAlgorithm::kAdaptive;
  constexpr std::uint64_t kSeed = 41;
  constexpr Cycle kKillCycle = 2600;
  auto net = std::make_unique<Network>(cfg, kSeed);
  net->set_sim_threads(sim_threads);

  HardFault f;
  f.kind = HardFault::Kind::kLink;
  f.node = 5;
  f.port = Port::kEast;
  f.at_cycle = kKillCycle;
  net->schedule_hard_faults({f});

  Rng traffic_rng(kSeed, "lookahead-traffic");
  PacketId next_id = 1;
  const auto burst = [&](int packets) {
    for (int i = 0; i < packets; ++i) {
      const auto src = static_cast<NodeId>(
          traffic_rng.next_u64() % static_cast<std::uint64_t>(cfg.num_nodes()));
      const auto dst = static_cast<NodeId>(
          traffic_rng.next_u64() % static_cast<std::uint64_t>(cfg.num_nodes()));
      if (src == dst) continue;
      net->ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                              cfg.flits_per_packet, 0,
                                              net->payload_rng()));
    }
  };

  // Burst 1 drains within ~a few hundred cycles; the remainder of the
  // [0, kKillCycle) window is fully idle, so the network sleeps through it.
  burst(60);
  while (net->now() < kKillCycle && !(net->drained() && net->now() > 500))
    net->step();
  const Cycle drained_at = net->now();
  // Step up to (but not into) the kill cycle, then across it, recording the
  // exact cycle the link died. The fault must fire at kKillCycle even
  // though the network was asleep — the serial fault window runs
  // unconditionally, before the sleep decision.
  while (net->now() < kKillCycle) net->step();
  const bool alive_before = net->out_channel(f.node, f.port) != nullptr;
  net->step();  // processes cycle kKillCycle
  const bool dead_after = net->out_channel(f.node, f.port) == nullptr;
  if (fault_dead_at != nullptr)
    *fault_dead_at = (alive_before && dead_after) ? kKillCycle : kInvalidCycle;
  // More idle sleeping after the kill, then a burst that must route around
  // the dead link.
  while (net->now() < kKillCycle + 800) net->step();
  burst(60);
  for (Cycle c = 0; c < 20000 && !net->drained(); ++c) net->step();

  // The engineered gaps must actually have been slept through, or this test
  // exercises nothing: the idle window alone is > 1500 cycles.
  EXPECT_GT(net->lookahead_cycles_slept(), 1000u)
      << "idle gap was not slept (drained at " << drained_at << ")";
  return net;
}

TEST(ParallelStep, LookaheadSleepsIdleWindowsAndInWindowKillFiresExactly) {
  Cycle serial_dead_at = kInvalidCycle;
  const auto serial = run_lookahead_engineered(1, &serial_dead_at);
  ASSERT_TRUE(serial->drained());
  ASSERT_EQ(serial_dead_at, 2600u)
      << "hard fault did not fire at its exact scheduled cycle";
  ASSERT_EQ(serial->hard_faults_applied(), 1u);
  ASSERT_GT(serial->metrics().packets_delivered, 0u);

  for (const unsigned t : {2u, 4u, 8u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    Cycle dead_at = kInvalidCycle;
    const auto threaded = run_lookahead_engineered(t, &dead_at);
    EXPECT_EQ(dead_at, serial_dead_at);
    expect_networks_identical(*serial, *threaded);
  }
}

TEST(ParallelStep, TorusRunBitIdenticalAcrossShardCounts) {
  // Wrap links make every edge band a neighbour of the opposite edge's — the
  // structural case where cross-band staging would diverge first.
  const auto run_torus = [](unsigned sim_threads) {
    NocConfig cfg = small_mesh();
    cfg.topology = TopologyKind::kTorus;
    auto net = std::make_unique<Network>(cfg, /*seed=*/47);
    net->set_sim_threads(sim_threads);
    Rng traffic_rng(47, "torus-traffic");
    PacketId next_id = 1;
    for (int i = 0; i < 200; ++i) {
      const auto src = static_cast<NodeId>(
          traffic_rng.next_u64() %
          static_cast<std::uint64_t>(cfg.num_nodes()));
      const auto dst = static_cast<NodeId>(
          traffic_rng.next_u64() %
          static_cast<std::uint64_t>(cfg.num_nodes()));
      if (src == dst) continue;
      net->ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                              cfg.flits_per_packet, 0,
                                              net->payload_rng()));
    }
    for (Cycle c = 0; c < 20000 && !net->drained(); ++c) net->step();
    return net;
  };

  const auto serial = run_torus(1);
  ASSERT_TRUE(serial->drained());
  ASSERT_GT(serial->metrics().packets_delivered, 0u);
  for (const unsigned t : {2u, 4u, 8u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    const auto threaded = run_torus(t);
    expect_networks_identical(*serial, *threaded);
  }
}

TEST(ParallelStep, PathLatencyWindowsBitIdenticalOnAdaptiveTorusWithMidRunKill) {
  // The per-hop latency credits of the RL reward are walked by the
  // delivering NI inside the parallel receive phase and replayed into the
  // routers' windows at the merge. Every router's Welford sequence must
  // match the serial one exactly — before and after a link dies mid-run and
  // the route LUT is rebuilt around it.
  const auto run = [](unsigned sim_threads) {
    NocConfig cfg;
    cfg.mesh_width = 12;
    cfg.mesh_height = 12;
    cfg.topology = TopologyKind::kTorus;
    cfg.routing = RoutingAlgorithm::kAdaptive;
    auto net = std::make_unique<Network>(cfg, /*seed=*/61);
    net->set_sim_threads(sim_threads);
    HardFault f;
    f.kind = HardFault::Kind::kLink;
    f.node = 65;
    f.port = Port::kEast;
    f.at_cycle = 150;
    net->schedule_hard_faults({f});
    Rng traffic_rng(61, "path-credit-traffic");
    PacketId next_id = 1;
    for (int i = 0; i < 1500; ++i) {
      const auto src = static_cast<NodeId>(
          traffic_rng.next_u64() %
          static_cast<std::uint64_t>(cfg.num_nodes()));
      const auto dst = static_cast<NodeId>(
          traffic_rng.next_u64() %
          static_cast<std::uint64_t>(cfg.num_nodes()));
      if (src == dst) continue;
      net->ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                              cfg.flits_per_packet, 0,
                                              net->payload_rng()));
    }
    for (Cycle c = 0; c < 20000 && !net->drained(); ++c) net->step();
    return net;
  };

  const auto serial = run(1);
  ASSERT_EQ(serial->hard_faults_applied(), 1u);
  ASSERT_GT(serial->metrics().packets_delivered, 1000u);
  for (const unsigned t : {3u, 4u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    const auto threaded = run(t);
    expect_networks_identical(*serial, *threaded);
    for (NodeId n = 0; n < serial->config().num_nodes(); ++n) {
      SCOPED_TRACE("router " + std::to_string(n));
      const StatAccumulator& a = serial->router_latency_window(n);
      const StatAccumulator& b = threaded->router_latency_window(n);
      ASSERT_EQ(a.count(), b.count());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean()),
                std::bit_cast<std::uint64_t>(b.mean()));
    }
  }
}

// ---------------------------------------------------------------------------
// Per-cycle audit under threaded fault-heavy stepping
// ---------------------------------------------------------------------------

TEST(ParallelStep, FaultHeavyMode2AuditsCleanEveryCycleThreaded) {
  const NocConfig cfg = small_mesh();
  Network net(cfg, /*seed=*/31);
  net.set_sim_threads(4);

  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    net.router(n).set_mode(OpMode::kMode2);
    for (const Port p : {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
      if (net.out_channel(n, p) != nullptr)
        net.set_link_error_prob(n, p, LinkErrorProb{0.08, 0.004});
    }
  }

  Rng traffic_rng(31, "parallel-audit-traffic");
  PacketId next_id = 1;
  for (int i = 0; i < 60; ++i) {
    const auto src = static_cast<NodeId>(
        traffic_rng.next_u64() % static_cast<std::uint64_t>(cfg.num_nodes()));
    const auto dst = static_cast<NodeId>(
        traffic_rng.next_u64() % static_cast<std::uint64_t>(cfg.num_nodes()));
    if (src == dst) continue;
    net.ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                           cfg.flits_per_packet, 0,
                                           net.payload_rng()));
  }

  NetworkAuditor auditor;
  for (Cycle c = 0; c < 20000 && !net.drained(); ++c) {
    net.step();
    for (const AuditViolation& v : auditor.run(net))
      ADD_FAILURE() << v.to_string();
  }
  EXPECT_TRUE(net.drained());
  EXPECT_GT(auditor.clean_passes(), 0u);
}

/// A link killed mid-run, while flits, credits and ACKs are crossing it:
/// from the strike cycle on, both endpoint routers hold null for the port
/// and every lane byte of the dead link is 0. Audited every cycle, so the
/// rebinding and the lane bytes are re-derived from scratch throughout.
/// Runs to a fixed horizon, not to drain: this kill strands one packet the
/// fault repair never recovers (see ROADMAP, hard-fault repair).
std::unique_ptr<Network> run_midrun_kill_audited(unsigned sim_threads) {
  NocConfig cfg;
  cfg.mesh_width = 6;
  cfg.mesh_height = 6;
  cfg.routing = RoutingAlgorithm::kAdaptive;
  constexpr std::uint64_t kSeed = 53;
  constexpr Cycle kKillCycle = 60;
  constexpr NodeId kUp = 14;  // link 14:E <-> 15:W
  constexpr NodeId kDown = 15;
  auto net = std::make_unique<Network>(cfg, kSeed);
  net->set_sim_threads(sim_threads);
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    net->router(n).set_mode(OpMode::kMode2);
    for (const Port p : kMeshPorts) {
      if (net->out_channel(n, p) != nullptr)
        net->set_link_error_prob(n, p, LinkErrorProb{0.08, 0.004});
    }
  }
  HardFault f;
  f.kind = HardFault::Kind::kLink;
  f.node = kUp;
  f.port = Port::kEast;
  f.at_cycle = kKillCycle;
  net->schedule_hard_faults({f});

  Rng traffic_rng(kSeed, "midrun-kill-traffic");
  PacketId next_id = 1;
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<NodeId>(
        traffic_rng.next_u64() % static_cast<std::uint64_t>(cfg.num_nodes()));
    const auto dst = static_cast<NodeId>(
        traffic_rng.next_u64() % static_cast<std::uint64_t>(cfg.num_nodes()));
    if (src == dst) continue;
    net->ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                            cfg.flits_per_packet, 0,
                                            net->payload_rng()));
  }

  const auto dead_link_unbound = [&] {
    Router& up = net->router(kUp);
    Router& down = net->router(kDown);
    const std::size_t e = port_index(Port::kEast);
    const std::size_t w = port_index(Port::kWest);
    const std::uint8_t* ub = RouterTestPeer::lane_bytes(up);
    const std::uint8_t* db = RouterTestPeer::lane_bytes(down);
    return RouterTestPeer::out_link(up, Port::kEast) == nullptr &&
           RouterTestPeer::in_link(up, Port::kEast) == nullptr &&
           RouterTestPeer::out_link(down, Port::kWest) == nullptr &&
           RouterTestPeer::in_link(down, Port::kWest) == nullptr &&
           ub[lane_byte::kInFlits + e] == 0 && ub[lane_byte::kOutCredits + e] == 0 &&
           ub[lane_byte::kOutAcks + e] == 0 && db[lane_byte::kInFlits + w] == 0 &&
           db[lane_byte::kOutCredits + w] == 0 && db[lane_byte::kOutAcks + w] == 0;
  };

  NetworkAuditor auditor;
  bool busy_at_strike = false;
  for (Cycle c = 0; c < 1500 && !net->drained(); ++c) {
    if (net->now() == kKillCycle) {
      // The link carries live traffic when it dies.
      busy_at_strike = RouterTestPeer::lane_bytes(net->router(kDown))
                           [lane_byte::kInFlits + port_index(Port::kWest)] != 0 ||
                       net->router(kUp).pending_link_work() != 0;
      EXPECT_FALSE(dead_link_unbound());
    }
    net->step();
    for (const AuditViolation& v : auditor.run(*net))
      ADD_FAILURE() << v.to_string();
    if (net->now() > kKillCycle) {
      EXPECT_TRUE(dead_link_unbound()) << "cycle " << net->now();
    }
  }
  EXPECT_TRUE(busy_at_strike);
  EXPECT_GT(net->metrics().packets_delivered, 250u);
  EXPECT_EQ(net->hard_faults_applied(), 1u);
  return net;
}

TEST(ParallelStep, MidRunKillUnbindsEndpointsAuditedAcrossThreads) {
  const auto serial = run_midrun_kill_audited(1);
  for (const unsigned t : {3u, 4u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    const auto threaded = run_midrun_kill_audited(t);
    expect_networks_identical(*serial, *threaded);
  }
}

TEST(ParallelStep, AuditedFaultHeavySweepHoldsInvariant6WithSingleMerge) {
  // Invariant 6 (staging discipline: buffers drained between steps, sinks
  // bound to owning shards, a sleeping network genuinely workless) must hold
  // every cycle even though the fused stepper merges at most once per cycle
  // — and the audited runs must still be bit-identical across thread
  // counts, with mid-run hard faults landing while audited.
  const auto run_audited = [](unsigned sim_threads) {
    NocConfig cfg = small_mesh();
    cfg.routing = RoutingAlgorithm::kAdaptive;
    auto net = std::make_unique<Network>(cfg, /*seed=*/53);
    net->set_sim_threads(sim_threads);

    HardFault f1;
    f1.kind = HardFault::Kind::kLink;
    f1.node = 9;
    f1.port = Port::kNorth;
    f1.at_cycle = 120;
    HardFault f2;
    f2.kind = HardFault::Kind::kRouter;
    f2.node = 6;
    f2.at_cycle = 300;
    net->schedule_hard_faults({f1, f2});

    for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
      net->router(n).set_mode(OpMode::kMode2);
      for (const Port p :
           {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
        if (net->out_channel(n, p) != nullptr)
          net->set_link_error_prob(n, p, LinkErrorProb{0.08, 0.004});
      }
    }

    Rng traffic_rng(53, "audited-sweep-traffic");
    PacketId next_id = 1;
    for (int i = 0; i < 120; ++i) {
      const auto src = static_cast<NodeId>(
          traffic_rng.next_u64() %
          static_cast<std::uint64_t>(cfg.num_nodes()));
      const auto dst = static_cast<NodeId>(
          traffic_rng.next_u64() %
          static_cast<std::uint64_t>(cfg.num_nodes()));
      if (src == dst) continue;
      net->ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                              cfg.flits_per_packet, 0,
                                              net->payload_rng()));
    }

    NetworkAuditor auditor;
    // Step at least past both scheduled faults (the mesh may drain first —
    // the router kill must then land inside an audited idle/slept window).
    for (Cycle c = 0;
         c < 20000 && (!net->drained() || net->now() <= f2.at_cycle + 20);
         ++c) {
      net->step();
      for (const AuditViolation& v : auditor.run(*net))
        ADD_FAILURE() << "sim_threads=" << sim_threads << ": "
                      << v.to_string();
    }
    EXPECT_GT(auditor.clean_passes(), 0u);
    return net;
  };

  const auto serial = run_audited(1);
  ASSERT_EQ(serial->hard_faults_applied(), 2u);
  ASSERT_GT(serial->metrics().packets_delivered, 0u);
  for (const unsigned t : {2u, 4u, 8u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    const auto threaded = run_audited(t);
    expect_networks_identical(*serial, *threaded);
  }
}

// ---------------------------------------------------------------------------
// Simulator-level bit-identity (full pipeline: controller, RL, telemetry)
// ---------------------------------------------------------------------------

SimOptions sim_base(unsigned sim_threads) {
  SimOptions opt;
  opt.seed = 13;
  opt.noc = small_mesh();
  opt.policy = PolicyKind::kRl;  // adaptive: modes actually change mid-run
  opt.sim_threads = sim_threads;
  opt.pretrain_cycles = 3000;
  opt.warmup_cycles = 1000;
  opt.error_scale = 3.0;  // fault-heavy so every ARQ/CRC path fires
  return opt;
}

SyntheticTraffic::Options sim_traffic() {
  SyntheticTraffic::Options t;
  t.total_packets = 400;
  t.injection_rate = 0.08;
  return t;
}

TEST(ParallelStep, SimulatorResultsBitIdenticalAcrossThreadCounts) {
  SimResult serial;
  {
    Simulator sim(sim_base(1));
    SyntheticTraffic gen(MeshTopology(small_mesh()), sim_traffic(), 13);
    serial = sim.run(gen);
  }
  EXPECT_TRUE(serial.drained);
  EXPECT_GT(serial.packets_delivered, 0u);
  EXPECT_GT(serial.retransmitted_flits, 0u);

  // 3 and 5 threads leave the bands uneven.
  for (const unsigned t : {2u, 3u, 4u, 5u, 8u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    Simulator sim(sim_base(t));
    EXPECT_EQ(sim.network().shard_count(), expected_bands(t, 16));
    EXPECT_EQ(sim.network().helper_threads(), expected_helpers(t, 16));
    SyntheticTraffic gen(MeshTopology(small_mesh()), sim_traffic(), 13);
    const SimResult threaded = sim.run(gen);
    EXPECT_EQ(serial, threaded);
  }
}

TEST(ParallelStep, VisitCountersBitIdenticalOnUnevenTilesWithMidRunKill) {
  // A lightly loaded 12x12 adaptive torus: at 3, 5 and 7 threads the 144
  // nodes split into 3, 5 and 7 bands, the last two uneven and all of them
  // recut by work as the run goes; the network
  // sleeps whole in gaps between packets and is woken by enqueues and e2e
  // deliveries, and a link dies mid-run. Every thread count must elide exactly the serial
  // run's visits, sleep exactly its cycles and stage exactly its effects.
  const auto run = [](unsigned sim_threads) {
    SimOptions opt;
    opt.seed = 29;
    opt.noc.mesh_width = 12;
    opt.noc.mesh_height = 12;
    opt.noc.topology = TopologyKind::kTorus;
    opt.noc.routing = RoutingAlgorithm::kAdaptive;
    opt.policy = PolicyKind::kStaticArqEcc;
    opt.sim_threads = sim_threads;
    opt.pretrain_cycles = 0;
    opt.warmup_cycles = 500;
    opt.error_scale = 4.0;
    HardFault kill;
    kill.kind = HardFault::Kind::kLink;
    kill.node = 65;
    kill.port = Port::kEast;
    kill.at_cycle = 1200;
    opt.hard_faults = {kill};
    SyntheticTraffic::Options traffic;
    traffic.total_packets = 800;
    traffic.injection_rate = 0.01;
    auto sim = std::make_unique<Simulator>(opt);
    SyntheticTraffic gen(MeshTopology(opt.noc), traffic, opt.seed);
    return std::make_pair(sim->run(gen), std::move(sim));
  };

  const auto [serial, serial_sim] = run(1);
  ASSERT_TRUE(serial.drained);
  ASSERT_EQ(serial_sim->network().hard_faults_applied(), 1u);
  const Network& a = serial_sim->network();
  ASSERT_GT(a.router_steps_skipped(), 0u);
  ASSERT_GT(a.ni_steps_skipped(), 0u);
  ASSERT_GT(a.lookahead_cycles_slept(), 0u);
  for (const unsigned t : {3u, 5u, 7u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    const auto [threaded, threaded_sim] = run(t);
    const Network& b = threaded_sim->network();
    EXPECT_EQ(b.shard_count(), expected_bands(t, 144));
    EXPECT_EQ(a.lookahead_cycles_slept(), b.lookahead_cycles_slept());
    EXPECT_EQ(a.phase_dispatches(), b.phase_dispatches());
    EXPECT_EQ(a.router_steps_skipped(), b.router_steps_skipped());
    EXPECT_EQ(a.ni_steps_skipped(), b.ni_steps_skipped());
    EXPECT_EQ(a.staged_effects_merged(), b.staged_effects_merged());
    EXPECT_EQ(serial, threaded);
  }
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(ParallelStep, TelemetryExportBytesIdenticalAcrossThreadCounts) {
  // The acceptance-criterion form: the complete exported file set (trace
  // JSON, metrics TSV, heatmaps, manifest) is byte-identical for any
  // sim_threads value.
  const auto run_traced = [](unsigned threads, const std::filesystem::path& d) {
    SimOptions opt = sim_base(threads);
    opt.telemetry.enabled = true;
    opt.telemetry.out_dir = d.string();
    opt.telemetry.metrics_interval = 500;
    Simulator sim(opt);
    SyntheticTraffic gen(MeshTopology(small_mesh()), sim_traffic(), 13);
    const SimResult res = sim.run(gen);
    EXPECT_GT(res.packets_delivered, 0u);
  };

  const std::filesystem::path dir1 = fresh_dir("rlftnoc_simthreads1");
  run_traced(1, dir1);
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir1))
    names.push_back(entry.path().filename().string());
  ASSERT_FALSE(names.empty());

  for (const unsigned t : {4u, 8u}) {
    const std::filesystem::path dirt =
        fresh_dir("rlftnoc_simthreads" + std::to_string(t));
    run_traced(t, dirt);
    for (const std::string& name : names) {
      ASSERT_TRUE(std::filesystem::exists(dirt / name)) << name;
      EXPECT_EQ(read_file(dir1 / name), read_file(dirt / name))
          << name << " differs between sim_threads=1 and sim_threads=" << t;
    }
  }
}

/// Delegates to `inner`, and each time the simulator polls it — at least
/// once per stepped cycle, the drain included — cuts the network's bands at
/// fresh random points. Serial runs have one band and are left alone.
class RecuttingTraffic final : public TrafficGenerator {
 public:
  RecuttingTraffic(TrafficGenerator& inner, Network& net, std::uint64_t seed)
      : inner_(inner), net_(net), rng_(seed, "band-cuts") {}

  void tick(Cycle now, std::vector<Packet>& out) override {
    recut();
    inner_.tick(now, out);
  }
  bool exhausted() const override {
    recut();
    return inner_.exhausted();
  }
  const std::string& name() const override { return inner_.name(); }
  std::uint64_t recuts() const noexcept { return recuts_; }

 private:
  void recut() const {
    const std::size_t bands = net_.shard_count();
    if (bands < 2) return;
    const auto n = static_cast<std::uint64_t>(net_.config().num_nodes());
    std::vector<NodeId> cuts{0, static_cast<NodeId>(n)};
    while (cuts.size() < bands + 1) {
      const auto c = static_cast<NodeId>(1 + rng_.next_below(n - 1));
      if (std::find(cuts.begin(), cuts.end(), c) == cuts.end()) cuts.push_back(c);
    }
    std::sort(cuts.begin(), cuts.end());
    NetworkTestPeer::set_bands(net_, cuts);
    ++recuts_;
  }

  TrafficGenerator& inner_;
  Network& net_;
  mutable Rng rng_;
  mutable std::uint64_t recuts_ = 0;
};

TEST(ParallelStep, RebalancedBandsBitIdentical) {
  // Where the band boundaries fall is a scheduling choice: a traced 12x12
  // adaptive torus with a mid-run link kill, its bands recut at random
  // every cycle, must match the serial run in every result, every
  // thread-count-invariant counter and every telemetry byte.
  struct Run {
    SimResult res;
    std::uint64_t router_skips, ni_skips, dispatches, merges, slept, staged;
    std::uint64_t recuts;
  };
  const auto run = [](unsigned sim_threads, const std::filesystem::path& dir) {
    SimOptions opt;
    opt.seed = 41;
    opt.noc.mesh_width = 12;
    opt.noc.mesh_height = 12;
    opt.noc.topology = TopologyKind::kTorus;
    opt.noc.routing = RoutingAlgorithm::kAdaptive;
    opt.policy = PolicyKind::kStaticArqEcc;
    opt.sim_threads = sim_threads;
    opt.pretrain_cycles = 0;
    opt.warmup_cycles = 300;
    opt.error_scale = 4.0;
    opt.telemetry.enabled = true;
    opt.telemetry.out_dir = dir.string();
    opt.telemetry.metrics_interval = 200;
    HardFault kill;
    kill.kind = HardFault::Kind::kLink;
    kill.node = 65;
    kill.port = Port::kEast;
    kill.at_cycle = 700;
    opt.hard_faults = {kill};
    SyntheticTraffic::Options traffic;
    traffic.total_packets = 1200;
    traffic.injection_rate = 0.01;
    Simulator sim(opt);
    SyntheticTraffic gen(MeshTopology(opt.noc), traffic, opt.seed);
    RecuttingTraffic recut(gen, sim.network(), 1000 + sim_threads);
    Run r{};
    r.res = sim.run(recut);
    const Network& net = sim.network();
    EXPECT_EQ(net.hard_faults_applied(), 1u);
    r.router_skips = net.router_steps_skipped();
    r.ni_skips = net.ni_steps_skipped();
    r.dispatches = net.phase_dispatches();
    r.merges = net.merges_run();
    r.slept = net.lookahead_cycles_slept();
    r.staged = net.staged_effects_merged();
    r.recuts = recut.recuts();
    return r;
  };

  const std::filesystem::path dir1 = fresh_dir("rlftnoc_recut1");
  const Run serial = run(1, dir1);
  ASSERT_TRUE(serial.res.drained);
  ASSERT_GT(serial.res.packets_delivered, 0u);
  ASSERT_GT(serial.slept, 0u);
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir1))
    names.push_back(entry.path().filename().string());
  ASSERT_FALSE(names.empty());

  for (const unsigned t : {2u, 3u, 4u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    const std::filesystem::path dirt = fresh_dir("rlftnoc_recut" + std::to_string(t));
    const Run threaded = run(t, dirt);
    // Recut on every poll: more often than there were cycles.
    EXPECT_GT(threaded.recuts, serial.res.total_cycles);
    EXPECT_EQ(serial.res, threaded.res);
    EXPECT_EQ(serial.router_skips, threaded.router_skips);
    EXPECT_EQ(serial.ni_skips, threaded.ni_skips);
    EXPECT_EQ(serial.dispatches, threaded.dispatches);
    EXPECT_EQ(serial.merges, threaded.merges);
    EXPECT_EQ(serial.slept, threaded.slept);
    EXPECT_EQ(serial.staged, threaded.staged);
    for (const std::string& name : names) {
      ASSERT_TRUE(std::filesystem::exists(dirt / name)) << name;
      EXPECT_EQ(read_file(dir1 / name), read_file(dirt / name))
          << name << " differs between serial and recut sim_threads=" << t;
    }
  }
}

TEST(ParallelStep, SimulatorAuditsCleanWithThreadsAndFaults) {
  SimOptions opt = sim_base(4);
  opt.policy = PolicyKind::kStaticArqEcc;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 1000;
  opt.audit = true;
  Simulator sim(opt);
  ASSERT_NE(sim.auditor(), nullptr);
  SyntheticTraffic gen(MeshTopology(small_mesh()), sim_traffic(), 13);
  SimResult res;
  ASSERT_NO_THROW(res = sim.run(gen));
  EXPECT_TRUE(res.drained);
  EXPECT_GT(sim.auditor()->clean_passes(), 100u);
}

// ---------------------------------------------------------------------------
// Options plumbing
// ---------------------------------------------------------------------------

TEST(ParallelStep, SimThreadsConfigKeyRoundTrips) {
  Config cfg;
  cfg.set("sim_threads", "4");
  EXPECT_EQ(sim_options_from_config(cfg).sim_threads, 4u);
  // Default stays serial.
  EXPECT_EQ(sim_options_from_config(Config{}).sim_threads, 1u);
}

}  // namespace
}  // namespace rlftnoc
