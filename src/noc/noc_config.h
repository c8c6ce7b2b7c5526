// Structural parameters of the simulated NoC (Table II of the paper).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/types.h"

namespace rlftnoc {

/// Upper bound on NocConfig::vcs_per_port. It exists for the router's
/// bitmask datapath: kNumPorts (5) x 12 = 60 input VCs fit the one 64-bit
/// word of each occupancy/state mask (router.h). VC storage itself is sized
/// by the configured vcs_per_port.
inline constexpr int kMaxVcsPerPort = 12;

/// Upper bound on mesh_width x mesh_height. The topology's next-hop table
/// holds nodes^2 bytes (256 MiB at this bound, a 128x128 mesh), and the
/// node count must fit an int.
inline constexpr std::int64_t kMaxNodes = 128 * 128;

/// Mesh / router / protocol parameters with Table II defaults.
struct NocConfig {
  int mesh_width = 8;        ///< 8x8 2D mesh
  /// Route computation algorithm (Table II: X-Y).
  RoutingAlgorithm routing = RoutingAlgorithm::kXY;
  /// Network shape: the paper's open mesh, or a torus with wrap links.
  TopologyKind topology = TopologyKind::kMesh;
  int mesh_height = 8;
  int vcs_per_port = 4;      ///< 4 VCs per port
  int vc_depth = 4;          ///< flit slots per VC buffer
  int flits_per_packet = 4;  ///< 128 bits/flit, 4 flits
  int retention_depth = 8;   ///< output flit buffer entries per port (ARQ)
  int local_vc_depth = 16;   ///< deeper buffering at the ejection port
  int ni_queue_limit = 512;  ///< source NI injection queue capacity (packets)

  /// Extra cycles an end-to-end (CRC) retransmission request / ACK spends
  /// per hop of the return path, modelling the control message latency.
  int e2e_ack_cycles_per_hop = 2;
  int e2e_ack_fixed_cycles = 4;

  int num_nodes() const noexcept { return mesh_width * mesh_height; }

  /// True when dateline VC classes are in force: torus dimension-ordered
  /// routing splits each port's VCs into two halves so the cyclic channel
  /// dependency around each ring is broken (see noc/routing.h).
  bool dateline_vcs() const noexcept {
    return topology == TopologyKind::kTorus &&
           (routing == RoutingAlgorithm::kXY ||
            routing == RoutingAlgorithm::kYX);
  }

  /// Validates invariants; throws std::invalid_argument on nonsense.
  void validate() const {
    if (mesh_width <= 0 || mesh_height <= 0)
      throw std::invalid_argument(
          "NocConfig: noc.mesh_width/noc.mesh_height must be positive (got " +
          std::to_string(mesh_width) + "x" + std::to_string(mesh_height) + ")");
    if (mesh_width < 2 || mesh_height < 2)
      throw std::invalid_argument("NocConfig: mesh must be at least 2x2");
    const std::int64_t nodes =
        static_cast<std::int64_t>(mesh_width) * mesh_height;
    if (nodes > kMaxNodes)
      throw std::invalid_argument(
          "NocConfig: noc.mesh_width x noc.mesh_height = " +
          std::to_string(mesh_width) + "x" + std::to_string(mesh_height) +
          " = " + std::to_string(nodes) + " nodes exceeds the limit of " +
          std::to_string(kMaxNodes) + " (the next-hop table is nodes^2 bytes)");
    if (topology == TopologyKind::kTorus &&
        routing == RoutingAlgorithm::kWestFirst)
      throw std::invalid_argument(
          "NocConfig: westfirst routing is mesh-only (its turn model is not "
          "deadlock-free across torus wrap links)");
    if (topology == TopologyKind::kTorus &&
        (routing == RoutingAlgorithm::kXY || routing == RoutingAlgorithm::kYX) &&
        vcs_per_port < 2)
      throw std::invalid_argument(
          "NocConfig: torus dimension-ordered routing needs vcs_per_port >= 2 "
          "(dateline VC classes)");
    if (vcs_per_port < 1 || vcs_per_port > kMaxVcsPerPort)
      throw std::invalid_argument("NocConfig: noc.vcs_per_port out of range");
    if (vc_depth < 1) throw std::invalid_argument("NocConfig: noc.vc_depth < 1");
    if (flits_per_packet < 1 || flits_per_packet > 32)
      throw std::invalid_argument("NocConfig: noc.flits_per_packet out of range");
    if (retention_depth < 2)
      throw std::invalid_argument(
          "NocConfig: noc.retention_depth < 2 cannot cover ACK RTT");
    if (local_vc_depth < vc_depth)
      throw std::invalid_argument("NocConfig: local_vc_depth < vc_depth");
  }
};

}  // namespace rlftnoc
