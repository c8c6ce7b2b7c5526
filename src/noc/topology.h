// Pluggable topology provider: coordinate mapping, structural neighbours,
// per-link / per-router aliveness (hard faults) and the flat next-hop route
// LUT shared by every routing policy (see noc/routing.h).
//
// Two shapes are supported: the paper's open-edged 2D mesh (Table II) and a
// 2D torus with wrap-around links in both dimensions. Structure and health
// are kept separate: `neighbor()` answers "is there a wire" (never changes),
// while `link_alive()` / `router_alive()` answer "does it still work" after
// `kill_link()` / `kill_router()`. Routing policies rebuild the route LUT
// from the alive subgraph via `rebuild_routes()`, so steady-state route
// computation stays one table load regardless of the fault set.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "noc/noc_config.h"

namespace rlftnoc {

/// Topology + fault masks + route LUT for a W x H mesh or torus
/// (row-major, x fastest). Copyable; copies carry the fault state and route
/// table at copy time.
class Topology {
 public:
  /// Route-LUT sentinel for "no route" (dst unreachable from cur on the
  /// alive subgraph, or an endpoint router is dead).
  static constexpr std::uint8_t kUnreachable = 0xFF;

  /// Back-compat mesh constructor (XY routing). Throws std::invalid_argument
  /// on non-positive dimensions.
  Topology(int width, int height)
      : Topology(TopologyKind::kMesh, width, height, RoutingAlgorithm::kXY) {}

  /// Full constructor. Throws std::invalid_argument on non-positive
  /// dimensions, or a torus smaller than 2x2 (wrap links would self-loop).
  Topology(TopologyKind kind, int width, int height, RoutingAlgorithm routing);

  explicit Topology(const NocConfig& cfg)
      : Topology(cfg.topology, cfg.mesh_width, cfg.mesh_height, cfg.routing) {}

  TopologyKind kind() const noexcept { return kind_; }
  RoutingAlgorithm routing() const noexcept { return routing_; }
  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int num_nodes() const noexcept { return width_ * height_; }

  Coord coord(NodeId n) const noexcept {
    return Coord{n % width_, n / width_};
  }
  NodeId node(Coord c) const noexcept { return c.y * width_ + c.x; }
  NodeId node(int x, int y) const noexcept { return y * width_ + x; }

  bool valid(NodeId n) const noexcept { return n >= 0 && n < num_nodes(); }

  /// Structural neighbour through port `p`: kInvalidNode at a mesh edge and
  /// for Local, the wrap neighbour at a torus edge. Ignores link health.
  NodeId neighbor(NodeId n, Port p) const noexcept {
    return nbr_[static_cast<std::size_t>(n) * kNumPorts + port_index(p)];
  }

  /// True when the structural link out of `n` through `p` exists and has not
  /// been killed. Always false for Local and at open mesh edges.
  bool link_alive(NodeId n, Port p) const noexcept {
    return link_alive_[static_cast<std::size_t>(n) * kNumPorts +
                       port_index(p)] != 0;
  }

  bool router_alive(NodeId n) const noexcept {
    return router_alive_[static_cast<std::size_t>(n)] != 0;
  }

  /// True when the link out of `n` through `p` is a torus wrap-around link
  /// (crosses the dateline of its dimension). Always false on a mesh.
  bool wrap_link(NodeId n, Port p) const noexcept {
    if (kind_ != TopologyKind::kTorus || p == Port::kLocal) return false;
    const Coord c = coord(n);
    switch (p) {
      case Port::kNorth: return c.y == height_ - 1;
      case Port::kSouth: return c.y == 0;
      case Port::kEast: return c.x == width_ - 1;
      case Port::kWest: return c.x == 0;
      case Port::kLocal: return false;
    }
    return false;
  }

  /// Marks the (bidirectional) link `n <-> neighbor(n, p)` dead. Returns
  /// true when the link existed and was alive. Does not rebuild the route
  /// LUT — call rebuild_routes() after a batch of kills.
  bool kill_link(NodeId n, Port p);

  /// Marks router `n` and all four of its links dead. Returns true when the
  /// router was alive. Does not rebuild the route LUT.
  bool kill_router(NodeId n);

  int num_dead_links() const noexcept { return dead_links_; }
  int num_dead_routers() const noexcept { return dead_routers_; }
  bool has_faults() const noexcept {
    return dead_links_ > 0 || dead_routers_ > 0;
  }

  /// Rebuilds the next-hop LUT for the current alive subgraph using the
  /// routing policy selected at construction (see noc/routing.h).
  void rebuild_routes();

  /// Raw route-LUT entry: port_index of the next hop, or kUnreachable. The
  /// one-load fast path for route computation and credit walks.
  std::uint8_t route_raw(NodeId cur, NodeId dst) const noexcept {
    return next_hop_[static_cast<std::size_t>(cur) *
                         static_cast<std::size_t>(num_nodes()) +
                     static_cast<std::size_t>(dst)];
  }

  /// Calls visit(node) for every router on the committed route from `src`
  /// to `dst`, both ends included, in path order. Each hop is one LUT load;
  /// the walk stops early at an unreachable entry, and the hop bound keeps
  /// a (transiently) inconsistent post-fault LUT from looping forever.
  template <typename F>
  void for_each_path_node(NodeId src, NodeId dst, F&& visit) const {
    NodeId cur = src;
    visit(cur);
    int hops = 0;
    const int max_hops = num_nodes();
    while (cur != dst && hops++ < max_hops) {
      const std::uint8_t r = route_raw(cur, dst);
      if (r == kUnreachable || static_cast<Port>(r) == Port::kLocal) return;
      cur = neighbor(cur, static_cast<Port>(r));
      if (cur == kInvalidNode) return;
      visit(cur);
    }
  }

  /// Next-hop port from `cur` toward `dst` (kLocal when cur == dst). Both
  /// ids must be valid and dst reachable from cur — a kInvalidNode (or any
  /// out-of-range id) here is a caller bug, not a routable state, and is
  /// rejected by RLFTNOC_CHECK instead of reading out of bounds.
  Port route(NodeId cur, NodeId dst) const noexcept {
    RLFTNOC_CHECK(valid(cur) && valid(dst));
    const std::uint8_t r = route_raw(cur, dst);
    RLFTNOC_CHECK(r != kUnreachable);
    return static_cast<Port>(r);
  }

  /// True when `dst` is reachable from `cur` on the alive subgraph under
  /// the active routing policy (cur == dst counts as reachable when the
  /// router is alive).
  bool reachable(NodeId cur, NodeId dst) const noexcept {
    RLFTNOC_CHECK(valid(cur) && valid(dst));
    return route_raw(cur, dst) != kUnreachable;
  }

  /// Structural minimal hop distance: Manhattan on a mesh, per-dimension
  /// min(d, size - d) on a torus. Ignores faults (used for e2e control
  /// message latency and per-hop reward normalization, where the structural
  /// estimate is the stable choice).
  int distance(NodeId a, NodeId b) const noexcept {
    const Coord ca = coord(a);
    const Coord cb = coord(b);
    int dx = std::abs(ca.x - cb.x);
    int dy = std::abs(ca.y - cb.y);
    if (kind_ == TopologyKind::kTorus) {
      dx = dx < width_ - dx ? dx : width_ - dx;
      dy = dy < height_ - dy ? dy : height_ - dy;
    }
    return dx + dy;
  }

 private:
  void build_structure();

  TopologyKind kind_;
  int width_;
  int height_;
  RoutingAlgorithm routing_;
  int dead_links_ = 0;
  int dead_routers_ = 0;
  std::vector<NodeId> nbr_;              ///< [n * kNumPorts + p] structural
  std::vector<std::uint8_t> link_alive_; ///< [n * kNumPorts + p]
  std::vector<std::uint8_t> router_alive_;  ///< [n]
  /// [cur * num_nodes + dst] -> port_index or kUnreachable (1 byte per
  /// pair — 1 MiB for a 32x32 mesh).
  std::vector<std::uint8_t> next_hop_;
};

/// The pre-fault-era name; every mesh call site still works unchanged.
using MeshTopology = Topology;

}  // namespace rlftnoc
