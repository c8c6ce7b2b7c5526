// NetworkAuditor contract: a faithful simulation — including one under heavy
// fault injection, where every ARQ path fires — audits clean every cycle,
// and deliberately corrupted state (phantom flits, minted credits) trips the
// matching invariant with an actionable location.
#include "noc/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fault/hard_faults.h"
#include "noc/network.h"
#include "router_test_peer.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

NocConfig tiny_mesh() {
  NocConfig cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  return cfg;
}

/// Steps `net` for up to `cycles`, auditing after every step; returns every
/// violation found (the audit stops adding new cycles once traffic drains).
std::vector<AuditViolation> step_and_audit(Network& net, NetworkAuditor& auditor,
                                           Cycle cycles) {
  std::vector<AuditViolation> all;
  for (Cycle c = 0; c < cycles; ++c) {
    net.step();
    std::vector<AuditViolation> v = auditor.run(net);
    all.insert(all.end(), v.begin(), v.end());
    if (net.drained()) break;
  }
  return all;
}

TEST(Audit, QuiescentNetworkIsClean) {
  Network net(tiny_mesh(), /*seed=*/11);
  NetworkAuditor auditor;
  EXPECT_TRUE(auditor.run(net).empty());
  EXPECT_EQ(auditor.clean_passes(), 1u);
}

TEST(Audit, FaultHeavyArqTrafficAuditsCleanEveryCycle) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/23);

  // Mode 2 exercises the whole link layer: ECC retention, NACK resends,
  // proactive duplicates and duplicate discards at the receivers.
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    net.router(n).set_mode(OpMode::kMode2);
    for (const Port p : {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
      if (net.out_channel(n, p) != nullptr)
        net.set_link_error_prob(n, p, LinkErrorProb{0.08, 0.004});
    }
  }

  Rng traffic_rng(23, "audit-traffic");
  PacketId next_id = 1;
  for (int i = 0; i < 60; ++i) {
    const auto src = static_cast<NodeId>(traffic_rng.next_u64() %
                                         static_cast<std::uint64_t>(cfg.num_nodes()));
    const auto dst = static_cast<NodeId>(traffic_rng.next_u64() %
                                         static_cast<std::uint64_t>(cfg.num_nodes()));
    if (src == dst) continue;
    net.ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                           cfg.flits_per_packet, 0,
                                           net.payload_rng()));
  }

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations =
      step_and_audit(net, auditor, 20000);
  for (const AuditViolation& v : violations) ADD_FAILURE() << v.to_string();
  EXPECT_TRUE(net.drained());
  EXPECT_GT(auditor.clean_passes(), 0u);

  // The run must actually have exercised the ARQ machinery to mean anything.
  std::uint64_t dups = 0;
  std::uint64_t discards = 0;
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    dups += net.router(n).counters().preretx_duplicates;
    discards += net.router(n).counters().dup_discards;
  }
  EXPECT_GT(dups, 0u);
  EXPECT_GT(discards, 0u);
}

TEST(Audit, DroopAccountingBalancesOnEveryLiveInjector) {
  // Every link injector must satisfy droop_traversals + droop_left ==
  // total_droops * droop_len at all times (the burst counter covers exactly
  // its burst, counting the starter traversal). Drive real traffic, then
  // sweep every live link's injector through Network::link_injector.
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/29);
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    for (const Port p : {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
      if (net.out_channel(n, p) != nullptr)
        net.set_link_error_prob(n, p, LinkErrorProb{0.05, 0.002});
    }
  }
  Rng traffic_rng(29, "droop-traffic");
  PacketId next_id = 1;
  for (int i = 0; i < 80; ++i) {
    const auto src = static_cast<NodeId>(traffic_rng.next_u64() %
                                         static_cast<std::uint64_t>(cfg.num_nodes()));
    const auto dst = static_cast<NodeId>(traffic_rng.next_u64() %
                                         static_cast<std::uint64_t>(cfg.num_nodes()));
    if (src == dst) continue;
    net.ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                           cfg.flits_per_packet, 0,
                                           net.payload_rng()));
  }
  for (int i = 0; i < 20000 && !net.drained(); ++i) net.step();
  ASSERT_TRUE(net.drained());

  std::uint64_t droops = 0;
  int injectors = 0;
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    for (const Port p : {Port::kNorth, Port::kSouth, Port::kEast, Port::kWest}) {
      const LinkFaultInjector* inj = net.link_injector(n, p);
      if (inj == nullptr) continue;
      ++injectors;
      EXPECT_TRUE(inj->droop_accounting_consistent())
          << "node " << n << " port " << port_name(p);
      droops += inj->total_droops();
    }
  }
  EXPECT_GT(injectors, 0);
  EXPECT_GT(droops, 0u);  // the run must have entered bursts to mean much
}

TEST(Audit, MaskConsistencyUnderMidRunKillsEveryCycle) {
  // The bitmask router datapath (occ/state/credit/free-VC words, buffered
  // counter) is maintained incrementally on push/pop/purge; invariant 7
  // re-derives every word from live VC state each audited cycle. This run
  // forces the hard paths: a mid-run link kill severing in-flight worms
  // (drop_leading_worm / purge_dead_output chains) and a mid-run router
  // kill (wholesale purge_for_router_kill), under elevated error pressure
  // so ARQ pops, duplicate discards and retx re-pushes all churn the masks.
  // opt.audit aborts the run on the first divergence, so completing the run
  // IS the assertion that incremental == scanned on every cycle.
  SimOptions opt;
  opt.policy = PolicyKind::kStaticArqEcc;
  opt.seed = 7;
  opt.noc.mesh_width = 4;
  opt.noc.mesh_height = 4;
  opt.noc.topology = TopologyKind::kTorus;
  opt.noc.routing = RoutingAlgorithm::kAdaptive;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 0;
  opt.audit = true;
  opt.audit_interval = 1;
  opt.error_scale = 2.0;
  opt.hard_faults = parse_hard_faults("link:5:E@400, router:10@900");

  Simulator sim(opt);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.05;
  o.total_packets = 1200;
  SyntheticTraffic gen(MeshTopology(opt.noc), o, opt.seed);
  const SimResult r = sim.run(gen);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.packets_delivered, 0u);
  ASSERT_NE(sim.auditor(), nullptr);
  EXPECT_GT(sim.auditor()->clean_passes(), 1000u);
}

TEST(Audit, PhantomFlitTripsConservation) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  // A flit that no NI counter accounts for: exactly what a buggy injection
  // path (or a fault injector dropping flits silently) would produce.
  Flit rogue;
  rogue.packet_id = 999;
  rogue.vc = 0;
  rogue.src = 0;
  rogue.dst = 1;
  net.inj_channel(0).flits.push(net.now(), rogue);

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "flit-conservation");
  EXPECT_EQ(auditor.clean_passes(), 0u);
}

TEST(Audit, MintedEjectionCreditTripsCreditBalance) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  // A credit out of thin air on the ejection loop: the local output VC now
  // believes the NI has more buffer than physically exists.
  net.ej_channel(3).credits.push(net.now(), Credit{0});

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  ASSERT_FALSE(violations.empty());
  const auto it = std::find_if(violations.begin(), violations.end(),
                               [](const AuditViolation& v) {
                                 return v.invariant == "credit-balance";
                               });
  ASSERT_NE(it, violations.end());
  EXPECT_EQ(it->node, 3);
  EXPECT_TRUE(it->has_port);
  EXPECT_EQ(it->port, Port::kLocal);
}

TEST(Audit, MintedMeshCreditTripsCreditBalance) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  ChannelPair* ch = net.out_channel(0, Port::kEast);
  ASSERT_NE(ch, nullptr);
  ch->credits.push(net.now(), Credit{1});

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "credit-balance");
  EXPECT_EQ(violations.front().node, 0);
  EXPECT_EQ(violations.front().port, Port::kEast);
}


/// First violation of `invariant` whose detail mentions `needle`, if any.
const AuditViolation* find_violation(const std::vector<AuditViolation>& v,
                                     const std::string& invariant,
                                     const std::string& needle) {
  const auto it = std::find_if(v.begin(), v.end(), [&](const AuditViolation& a) {
    return a.invariant == invariant && a.detail.find(needle) != std::string::npos;
  });
  return it == v.end() ? nullptr : &*it;
}

TEST(Audit, RetentionOutOfSendOrderTripsArqConsistency) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);
  ASSERT_NE(net.out_channel(0, Port::kEast), nullptr);

  // Two retained copies whose lsn order contradicts their send order — a
  // retention ring that no longer matches the go-back-N stream.
  RetentionTable& ret = RouterTestPeer::retention(net.router(0), Port::kEast);
  for (const auto& [seq, lsn] : {std::pair<int, std::uint64_t>{0, 1}, {1, 0}}) {
    ArqRetention e;
    e.clean.packet_id = 77;
    e.clean.seq = static_cast<std::uint16_t>(seq);
    e.clean.lsn = lsn;
    e.unresolved = 1;
    ret.insert(e);
  }

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  const AuditViolation* v =
      find_violation(violations, "arq-consistency", "out of send order");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->node, 0);
  EXPECT_EQ(v->port, Port::kEast);
}

TEST(Audit, UnpushedLinkResponseTripsParallelStaging) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  // A response receive produced but execute never pushed: the upstream
  // router would wait for an ACK that never arrives.
  ChannelPair* ch = net.in_channel(5, Port::kWest);
  ASSERT_NE(ch, nullptr);
  RouterTestPeer::stage_response(net.router(5), &ch->acks,
                                 AckMsg{make_flit_id(1, 0), 0, false});

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  const AuditViolation* v =
      find_violation(violations, "parallel-staging", "never pushed");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->node, 5);
  EXPECT_EQ(auditor.clean_passes(), 0u);
}

TEST(Audit, StaleLaneByteTripsParallelStaging) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  // A byte claiming flits on router 5's (empty) west input lane: the flag
  // scan would visit a node with nothing to do — or, flipped the other way,
  // skip one with a flit waiting.
  RouterTestPeer::lane_bytes(net.router(5))[lane_byte::kInFlits +
                                            port_index(Port::kWest)] = 1;

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  const AuditViolation* v =
      find_violation(violations, "parallel-staging", "lane holds 0 entries");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->node, 5);
  EXPECT_EQ(v->port, Port::kWest);
}

TEST(Audit, SleepingNetworkWithPendingWorkTripsParallelStaging) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);
  net.ni(0).enqueue_packet(make_packet(1, 0, 15, cfg.flits_per_packet, 0,
                                       net.payload_rng()));
  for (Cycle c = 0; c < 2000; ++c) {
    if (net.drained() && net.lookahead_cycles_slept() > 0) break;
    net.step();
  }
  ASSERT_TRUE(net.drained());
  ASSERT_GT(net.lookahead_cycles_slept(), 0u);
  NetworkAuditor auditor;
  ASSERT_TRUE(auditor.run(net).empty());

  // A flit byte raised on router 5's (empty) west input lane behind the
  // stepper's back: the network would sleep through work it must visit.
  RouterTestPeer::lane_bytes(net.router(5))[lane_byte::kInFlits +
                                            port_index(Port::kWest)] = 1;

  const std::vector<AuditViolation> violations = auditor.run(net);
  const AuditViolation* v =
      find_violation(violations, "parallel-staging", "sleeps until");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->node, 5);
}

TEST(Audit, StrandedPathNodesTripParallelStaging) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  // Path nodes the NI walked, still staged between steps: invariant 6 must
  // count them like every other staged effect.
  RouterTestPeer::effects(net.router(5)).path_nodes.push_back(5);

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  EXPECT_NE(find_violation(violations, "parallel-staging", "not drained"),
            nullptr);

  // One step merges and drains it.
  net.step();
  EXPECT_TRUE(RouterTestPeer::effects(net.router(5)).path_nodes.empty());
  EXPECT_TRUE(auditor.run(net).empty());
}

TEST(Audit, DriftedArqPortWordTripsMaskConsistency) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  // A resend bit with no queued resend: quiescent() would report work that
  // does not exist and stage_link_resend would visit an idle port.
  RouterTestPeer::resend_ports(net.router(6)) |=
      static_cast<std::uint8_t>(1u << port_index(Port::kNorth));

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  const AuditViolation* v =
      find_violation(violations, "mask-consistency", "arq resend-ports");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->node, 6);
}

TEST(Audit, StaleBoundEndpointTripsParallelStaging) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);

  // Router 1 keeps sending east after its endpoint went stale: the datapath
  // would push onto a channel the network no longer considers live.
  RouterTestPeer::out_link(net.router(1), Port::kEast) = nullptr;

  NetworkAuditor auditor;
  const std::vector<AuditViolation> violations = auditor.run(net);
  const AuditViolation* v =
      find_violation(violations, "parallel-staging", "bound endpoint");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->node, 1);
  EXPECT_EQ(v->port, Port::kEast);
}

/// The "sizing" violations of one audit pass.
std::vector<AuditViolation> sizing_violations(const Network& net) {
  NetworkAuditor auditor;
  std::vector<AuditViolation> v = auditor.run(net);
  std::erase_if(v, [](const AuditViolation& a) { return a.invariant != "sizing"; });
  return v;
}

TEST(Audit, ArqRingOnLocalPortTripsSizing) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);
  // The NI wiring carries no link-layer ARQ, so no router keeps a retention
  // ring, resend queue or duplicate queue on its Local port.
  for (const AuditViolation& v : sizing_violations(net)) ADD_FAILURE() << v.to_string();

  RouterTestPeer::retention(net.router(6), Port::kLocal)
      .reset(static_cast<std::size_t>(cfg.retention_depth));
  const std::vector<AuditViolation> violations = sizing_violations(net);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].node, 6);
  EXPECT_EQ(violations[0].port, Port::kLocal);
  EXPECT_NE(violations[0].detail.find("retention ring"), std::string::npos);
}

TEST(Audit, ArqRingOnDeadLinkTripsSizing) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);
  // Edge ports never had a link; 5:E and 6:W lose theirs, and
  // purge_dead_output frees both ends' rings.
  net.schedule_hard_faults(parse_hard_faults("link:5:E@0"));
  ASSERT_EQ(net.out_channel(5, Port::kEast), nullptr);
  for (const AuditViolation& v : sizing_violations(net)) ADD_FAILURE() << v.to_string();

  RouterTestPeer::retention(net.router(6), Port::kWest)
      .reset(static_cast<std::size_t>(cfg.retention_depth));
  const std::vector<AuditViolation> violations = sizing_violations(net);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].node, 6);
  EXPECT_EQ(violations[0].port, Port::kWest);
  EXPECT_NE(violations[0].detail.find("no live protected link"), std::string::npos);
}

TEST(Audit, OverfullFlitLaneTripsSizing) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);
  // One flit more on router 1's east wire than a port can have in flight.
  ChannelPair* ch = RouterTestPeer::out_link(net.router(1), Port::kEast);
  ASSERT_NE(ch, nullptr);
  for (std::size_t i = 0; i <= kMaxFlitsInFlight; ++i) ch->flits.push(net.now(), Flit{});

  const std::vector<AuditViolation> violations = sizing_violations(net);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].node, 1);
  EXPECT_EQ(violations[0].port, Port::kEast);
  EXPECT_NE(violations[0].detail.find("holds 5 entries"), std::string::npos);
}

TEST(Audit, CheckOrThrowReportsLocation) {
  const NocConfig cfg = tiny_mesh();
  Network net(cfg, /*seed=*/5);
  Flit rogue;
  rogue.packet_id = 1000;
  rogue.vc = 0;
  net.inj_channel(2).flits.push(net.now(), rogue);

  NetworkAuditor auditor;
  try {
    auditor.check_or_throw(net);
    FAIL() << "expected AuditError";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.violation().invariant, "flit-conservation");
    EXPECT_NE(std::string(e.what()).find("flit-conservation"),
              std::string::npos);
  }
}

TEST(Audit, SimulatorIntegrationAuditsCleanRun) {
  SimOptions opt;
  opt.noc = tiny_mesh();
  opt.policy = PolicyKind::kStaticArqEcc;  // ECC links on everywhere
  opt.seed = 17;
  opt.audit = true;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 2000;
  opt.error_scale = 4.0;  // force real ARQ traffic during the audit

  Simulator sim(opt);
  ASSERT_NE(sim.auditor(), nullptr);

  SyntheticTraffic::Options to;
  to.injection_rate = 0.06;
  to.total_packets = 800;
  SyntheticTraffic gen(MeshTopology(opt.noc), to, opt.seed);

  SimResult res;
  ASSERT_NO_THROW(res = sim.run(gen));
  EXPECT_TRUE(res.drained);
  EXPECT_GT(sim.auditor()->clean_passes(), 1000u);
}

TEST(Audit, SimulatorAuditIntervalThins) {
  SimOptions opt;
  opt.noc = tiny_mesh();
  opt.policy = PolicyKind::kStaticCrc;
  opt.seed = 9;
  opt.audit = true;
  opt.audit_interval = 64;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 500;

  Simulator sim(opt);
  SyntheticTraffic::Options to;
  to.injection_rate = 0.05;
  to.total_packets = 200;
  SyntheticTraffic gen(MeshTopology(opt.noc), to, opt.seed);
  const SimResult res = sim.run(gen);
  EXPECT_TRUE(res.drained);
  const std::uint64_t passes = sim.auditor()->clean_passes();
  EXPECT_GT(passes, 0u);
  // Sparser than every-cycle auditing by construction.
  EXPECT_LT(passes, res.execution_cycles);
}

#if RLFTNOC_CHECK_ENABLED
using AuditDeathTest = ::testing::Test;

TEST(AuditDeathTest, DelayLineStampRegressionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        DelayLine<Credit> line;
        line.push(/*now=*/10, Credit{0});
        line.push(/*now=*/5, Credit{0});
      },
      "RLFTNOC_CHECK failed");
}
#endif

}  // namespace
}  // namespace rlftnoc
