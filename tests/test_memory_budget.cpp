// Per-node memory follows the configuration (DESIGN.md §5, "Per-node
// memory"): a router's VC state is sized by vcs_per_port and vc_depth, ARQ
// rings exist only on mesh ports with a live link, and every delay line
// starts at the in-flight bound a flit lane can reach. These tests hold the
// resulting budget and show a busy run never grows a flit lane past it.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/rng.h"
#include "noc/audit.h"
#include "noc/network.h"

namespace rlftnoc {
namespace {

TEST(MemoryBudget, Mesh32HeapPerNodeAtConstruction) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || !defined(__GLIBC__)
  GTEST_SKIP() << "heap accounting needs glibc malloc (no sanitizer interposer)";
#else
  NocConfig cfg;
  cfg.mesh_width = 32;
  cfg.mesh_height = 32;
  const std::size_t before = mallinfo2().uordblks;
  auto net = std::make_unique<Network>(cfg, /*seed=*/17);
  const std::size_t after = mallinfo2().uordblks;
  const double per_node =
      static_cast<double>(after - before) / static_cast<double>(cfg.num_nodes());
  // 14,909 B when every router reserved 12 VCs per port and ARQ rings on all
  // five ports; 11,631 B sized by the default config.
  EXPECT_LE(per_node, 12500.0) << "Network heap per node: " << per_node << " B";
#endif
}

TEST(MemoryBudget, ForcedMode2RunKeepsFlitLanesAtTheirBound) {
  NocConfig cfg;
  cfg.mesh_width = 6;
  cfg.mesh_height = 6;
  Network net(cfg, /*seed=*/31);
  // Mode 2 keeps every protected wire busiest: originals, NACK resends and
  // proactive duplicates all share each port's one-flit-per-cycle slot.
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    net.router(n).set_mode(OpMode::kMode2);
    for (const Port p : kMeshPorts) {
      if (net.out_channel(n, p) != nullptr)
        net.set_link_error_prob(n, p, LinkErrorProb{0.05, 0.002});
    }
  }
  Rng traffic_rng(31, "budget-traffic");
  PacketId next_id = 1;
  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<NodeId>(traffic_rng.next_below(
        static_cast<std::uint64_t>(cfg.num_nodes())));
    const auto dst = static_cast<NodeId>(traffic_rng.next_below(
        static_cast<std::uint64_t>(cfg.num_nodes())));
    if (src == dst) continue;
    net.ni(src).enqueue_packet(make_packet(next_id++, src, dst,
                                           cfg.flits_per_packet, 0,
                                           net.payload_rng()));
  }

  NetworkAuditor auditor;
  for (Cycle c = 0; c < 20000 && !net.drained(); ++c) {
    net.step();
    for (const AuditViolation& v : auditor.run(net)) FAIL() << v.to_string();
  }
  ASSERT_TRUE(net.drained());
  std::uint64_t dups = 0;
  for (NodeId n = 0; n < cfg.num_nodes(); ++n)
    dups += net.router(n).counters().preretx_duplicates;
  EXPECT_GT(dups, 0u);

  std::vector<const DelayLine<Flit>*> lanes;
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    lanes.push_back(&net.inj_channel(n).flits);
    lanes.push_back(&net.ej_channel(n).flits);
    for (const Port p : kMeshPorts) {
      if (const ChannelPair* ch = net.out_channel(n, p)) lanes.push_back(&ch->flits);
    }
  }
  for (const DelayLine<Flit>* lane : lanes)
    EXPECT_LE(lane->capacity(), kMaxFlitsInFlight);
}

}  // namespace
}  // namespace rlftnoc
