// Determinism contract of the phase-parallel network stepper: any
// SimOptions::sim_threads value must produce bit-identical results. Shards
// are contiguous node ranges, receive/execute run data-parallel, and every
// cross-shard effect is staged per shard and merged in canonical node order
// after each phase barrier, so the FP accumulation order, the e2e tie-break
// sequence stream and the trace ring content never depend on thread count.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "noc/audit.h"
#include "noc/network.h"
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

TEST(ParallelStep, ShardPartitionFollowsThreadCount) {
  Network net(small_mesh(), /*seed=*/3);
  EXPECT_EQ(net.sim_threads(), 1u);
  EXPECT_EQ(net.shard_count(), 1u);

  net.set_sim_threads(4);
  EXPECT_EQ(net.sim_threads(), 4u);
  EXPECT_EQ(net.shard_count(), 4u);

  // More threads than nodes: one shard per node at most.
  net.set_sim_threads(64);
  EXPECT_EQ(net.shard_count(), 16u);

  // 0 = one per hardware thread, never less than one shard.
  net.set_sim_threads(0);
  EXPECT_GE(net.sim_threads(), 1u);
  EXPECT_GE(net.shard_count(), 1u);

  net.set_sim_threads(1);
  EXPECT_EQ(net.shard_count(), 1u);
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
  // Fused-stepper counters: dispatch A runs iff any shard is awake, B iff
  // any node is busy, the merge iff anything was staged, and a cycle sleeps
  // iff no node was busy at t-1 and no event fired at t — all properties of
  // network state, so all thread-count-invariant. (lookahead_shard_sleeps
  // deliberately NOT compared: it scales with the shard count.)
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
  ASSERT_GT(serial_tracer.size(), 0u);

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
  // [0, kKillCycle) window is fully idle, so every shard sleeps through it.
  burst(60);
  while (net->now() < kKillCycle && !(net->drained() && net->now() > 500))
    net->step();
  const Cycle drained_at = net->now();
  // Step up to (but not into) the kill cycle, then across it, recording the
  // exact cycle the link died. The fault must fire at kKillCycle even
  // though every shard was asleep — the serial fault window runs
  // unconditionally, before the awake-set decision.
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
  // Wrap links give every shard a halo that reaches the opposite mesh edge —
  // the structural case where a wrong halo/wake rule would diverge first.
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

TEST(ParallelStep, AuditedFaultHeavySweepHoldsInvariant6WithSingleMerge) {
  // Invariant 6 (staging discipline: buffers drained between steps, sinks
  // bound to owning shards, sleeping shards genuinely workless) must hold
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

  for (const unsigned t : {2u, 4u, 8u}) {
    SCOPED_TRACE("sim_threads=" + std::to_string(t));
    Simulator sim(sim_base(t));
    EXPECT_EQ(sim.network().shard_count(), static_cast<std::size_t>(t));
    SyntheticTraffic gen(MeshTopology(small_mesh()), sim_traffic(), 13);
    const SimResult threaded = sim.run(gen);
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
