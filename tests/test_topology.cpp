#include "noc/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

namespace rlftnoc {
namespace {

TEST(Topology, CoordNodeRoundTrip) {
  const MeshTopology t(8, 8);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(t.node(t.coord(n)), n);
  }
}

TEST(Topology, CoordLayoutRowMajor) {
  const MeshTopology t(4, 3);
  EXPECT_EQ(t.node(0, 0), 0);
  EXPECT_EQ(t.node(3, 0), 3);
  EXPECT_EQ(t.node(0, 1), 4);
  EXPECT_EQ(t.node(3, 2), 11);
  EXPECT_EQ(t.num_nodes(), 12);
}

TEST(Topology, NeighborsInterior) {
  const MeshTopology t(4, 4);
  const NodeId n = t.node(1, 1);  // 5
  EXPECT_EQ(t.neighbor(n, Port::kNorth), t.node(1, 2));
  EXPECT_EQ(t.neighbor(n, Port::kSouth), t.node(1, 0));
  EXPECT_EQ(t.neighbor(n, Port::kEast), t.node(2, 1));
  EXPECT_EQ(t.neighbor(n, Port::kWest), t.node(0, 1));
  EXPECT_EQ(t.neighbor(n, Port::kLocal), kInvalidNode);
}

TEST(Topology, NeighborsAtEdges) {
  const MeshTopology t(4, 4);
  EXPECT_EQ(t.neighbor(t.node(0, 0), Port::kWest), kInvalidNode);
  EXPECT_EQ(t.neighbor(t.node(0, 0), Port::kSouth), kInvalidNode);
  EXPECT_EQ(t.neighbor(t.node(3, 3), Port::kEast), kInvalidNode);
  EXPECT_EQ(t.neighbor(t.node(3, 3), Port::kNorth), kInvalidNode);
}

TEST(Topology, NeighborSymmetry) {
  const MeshTopology t(5, 3);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    for (const Port p : kAllPorts) {
      if (p == Port::kLocal) continue;
      const NodeId nb = t.neighbor(n, p);
      if (nb != kInvalidNode) {
        EXPECT_EQ(t.neighbor(nb, opposite(p)), n);
      }
    }
  }
}

TEST(Topology, DistanceProperties) {
  const MeshTopology t(8, 8);
  EXPECT_EQ(t.distance(0, 0), 0);
  EXPECT_EQ(t.distance(t.node(0, 0), t.node(7, 7)), 14);
  EXPECT_EQ(t.distance(3, 12), t.distance(12, 3));  // symmetric
}

TEST(Topology, RouteToSelfIsLocal) {
  const MeshTopology t(4, 4);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    EXPECT_EQ(t.route(n, n), Port::kLocal);
  }
}

TEST(Topology, XyRoutesXFirst) {
  const MeshTopology t(4, 4);
  // From (0,0) to (2,3): must go East until x matches.
  EXPECT_EQ(t.route(t.node(0, 0), t.node(2, 3)), Port::kEast);
  EXPECT_EQ(t.route(t.node(2, 0), t.node(2, 3)), Port::kNorth);
  EXPECT_EQ(t.route(t.node(3, 3), t.node(2, 3)), Port::kWest);
  EXPECT_EQ(t.route(t.node(2, 3), t.node(2, 1)), Port::kSouth);
}

/// Property sweep: following route() from any source reaches any
/// destination in exactly Manhattan-distance hops (minimal + deadlock-free).
class XyRouteSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(XyRouteSweep, ReachesDestinationMinimally) {
  const auto [w, h] = GetParam();
  const MeshTopology t(w, h);
  for (NodeId src = 0; src < t.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
      NodeId cur = src;
      int hops = 0;
      while (cur != dst) {
        const Port p = t.route(cur, dst);
        ASSERT_NE(p, Port::kLocal);
        cur = t.neighbor(cur, p);
        ASSERT_NE(cur, kInvalidNode);
        ASSERT_LE(++hops, t.distance(src, dst));
      }
      EXPECT_EQ(hops, t.distance(src, dst));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MeshSizes, XyRouteSweep,
                         ::testing::Values(std::make_tuple(2, 2),
                                           std::make_tuple(4, 4),
                                           std::make_tuple(8, 8),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(5, 3)));

TEST(Topology, DegenerateDimensionsThrow) {
  EXPECT_THROW(MeshTopology(0, 4), std::invalid_argument);
  EXPECT_THROW(MeshTopology(4, 0), std::invalid_argument);
  EXPECT_THROW(MeshTopology(-1, 4), std::invalid_argument);
  EXPECT_THROW(MeshTopology(4, -3), std::invalid_argument);
  // A torus needs both dimensions >= 2: wrap links would otherwise
  // self-loop (neighbor(n, E) == n on a 1-wide ring).
  EXPECT_THROW(
      Topology(TopologyKind::kTorus, 1, 4, RoutingAlgorithm::kAdaptive),
      std::invalid_argument);
  EXPECT_THROW(
      Topology(TopologyKind::kTorus, 4, 1, RoutingAlgorithm::kAdaptive),
      std::invalid_argument);
  EXPECT_NO_THROW(MeshTopology(1, 1));  // a single-node mesh is legal
  EXPECT_NO_THROW(
      Topology(TopologyKind::kTorus, 2, 2, RoutingAlgorithm::kAdaptive));
}

TEST(Topology, TorusWrapNeighbors) {
  const Topology t(TopologyKind::kTorus, 4, 3, RoutingAlgorithm::kXY);
  EXPECT_EQ(t.neighbor(t.node(0, 0), Port::kWest), t.node(3, 0));
  EXPECT_EQ(t.neighbor(t.node(3, 0), Port::kEast), t.node(0, 0));
  EXPECT_EQ(t.neighbor(t.node(1, 0), Port::kSouth), t.node(1, 2));
  EXPECT_EQ(t.neighbor(t.node(1, 2), Port::kNorth), t.node(1, 0));
  // Wrap-link detection marks exactly the dateline crossings.
  EXPECT_TRUE(t.wrap_link(t.node(3, 0), Port::kEast));
  EXPECT_TRUE(t.wrap_link(t.node(0, 0), Port::kWest));
  EXPECT_FALSE(t.wrap_link(t.node(1, 1), Port::kEast));
  EXPECT_FALSE(t.wrap_link(t.node(0, 0), Port::kLocal));
}

TEST(Topology, MeshHasNoWrapLinks) {
  const MeshTopology t(4, 4);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    for (const Port p : kAllPorts) EXPECT_FALSE(t.wrap_link(n, p));
  }
}

TEST(Topology, TorusDistanceUsesWrap) {
  const Topology t(TopologyKind::kTorus, 8, 8, RoutingAlgorithm::kXY);
  EXPECT_EQ(t.distance(t.node(0, 0), t.node(7, 0)), 1);  // wrap W
  EXPECT_EQ(t.distance(t.node(0, 0), t.node(0, 7)), 1);  // wrap S
  EXPECT_EQ(t.distance(t.node(0, 0), t.node(4, 4)), 8);  // both ways tie
  EXPECT_EQ(t.distance(t.node(1, 1), t.node(6, 6)), 6);  // wrap both dims
}

/// Torus route sweep: dimension-ordered routing over wrap links still
/// reaches every destination in exactly the (wrap-aware) minimal hops.
class TorusRouteSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TorusRouteSweep, ReachesDestinationMinimally) {
  const auto [w, h] = GetParam();
  const Topology t(TopologyKind::kTorus, w, h, RoutingAlgorithm::kXY);
  for (NodeId src = 0; src < t.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < t.num_nodes(); ++dst) {
      NodeId cur = src;
      int hops = 0;
      while (cur != dst) {
        const Port p = t.route(cur, dst);
        ASSERT_NE(p, Port::kLocal);
        cur = t.neighbor(cur, p);
        ASSERT_NE(cur, kInvalidNode);
        ASSERT_LE(++hops, t.distance(src, dst));
      }
      EXPECT_EQ(hops, t.distance(src, dst));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TorusSizes, TorusRouteSweep,
                         ::testing::Values(std::make_tuple(2, 2),
                                           std::make_tuple(4, 4),
                                           std::make_tuple(8, 8),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(5, 3)));

#if RLFTNOC_CHECK_ENABLED
using TopologyDeathTest = ::testing::Test;

TEST(TopologyDeathTest, RouteRejectsOutOfRangeNodes) {
  // Out-of-range ids (including kInvalidNode) are a caller bug: route()
  // must refuse loudly instead of indexing the LUT out of bounds.
  const MeshTopology t(4, 4);
  EXPECT_DEATH(t.route(kInvalidNode, 0), "RLFTNOC_CHECK failed");
  EXPECT_DEATH(t.route(0, t.num_nodes()), "RLFTNOC_CHECK failed");
  EXPECT_DEATH(t.route(-2, 3), "RLFTNOC_CHECK failed");
}

TEST(TopologyDeathTest, RouteRejectsUnreachableDestination) {
  Topology t(TopologyKind::kTorus, 4, 4, RoutingAlgorithm::kAdaptive);
  ASSERT_TRUE(t.kill_router(5));
  t.rebuild_routes();
  EXPECT_DEATH(t.route(0, 5), "RLFTNOC_CHECK failed");
  EXPECT_FALSE(t.reachable(0, 5));  // the checked query for this case
}
#endif

TEST(Topology, PortHelpers) {
  EXPECT_EQ(opposite(Port::kNorth), Port::kSouth);
  EXPECT_EQ(opposite(Port::kEast), Port::kWest);
  EXPECT_EQ(opposite(opposite(Port::kWest)), Port::kWest);
  EXPECT_EQ(opposite(Port::kLocal), Port::kLocal);
  EXPECT_STREQ(port_name(Port::kNorth), "N");
  EXPECT_STREQ(port_name(Port::kLocal), "L");
  EXPECT_EQ(port_index(Port::kLocal), 4u);
}

}  // namespace
}  // namespace rlftnoc
