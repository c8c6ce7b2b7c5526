// Structural parameters of the simulated NoC (Table II of the paper).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/config.h"
#include "common/types.h"

namespace rlftnoc {

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
    // Cap at 12 so kNumPorts (5) x vcs_per_port fits one 64-bit occupancy
    // word in the router's bitmask datapath (5 x 12 = 60 bits).
    if (vcs_per_port < 1 || vcs_per_port > 12)
      throw std::invalid_argument("NocConfig: vcs_per_port out of range");
    if (vc_depth < 1) throw std::invalid_argument("NocConfig: vc_depth < 1");
    if (flits_per_packet < 1 || flits_per_packet > 32)
      throw std::invalid_argument("NocConfig: flits_per_packet out of range");
    if (retention_depth < 2)
      throw std::invalid_argument("NocConfig: retention_depth < 2 cannot cover ACK RTT");
    if (local_vc_depth < vc_depth)
      throw std::invalid_argument("NocConfig: local_vc_depth < vc_depth");
  }

  /// Reads overrides from a flat Config (keys: noc.mesh_width, ...).
  static NocConfig from_config(const Config& cfg) {
    NocConfig c;
    cfg.read("noc.mesh_width", c.mesh_width);
    cfg.read("noc.mesh_height", c.mesh_height);
    cfg.read("noc.vcs_per_port", c.vcs_per_port);
    cfg.read("noc.vc_depth", c.vc_depth);
    cfg.read("noc.flits_per_packet", c.flits_per_packet);
    cfg.read("noc.retention_depth", c.retention_depth);
    cfg.read("noc.local_vc_depth", c.local_vc_depth);
    cfg.read("noc.ni_queue_limit", c.ni_queue_limit);
    cfg.read("noc.e2e_ack_cycles_per_hop", c.e2e_ack_cycles_per_hop);
    cfg.read("noc.e2e_ack_fixed_cycles", c.e2e_ack_fixed_cycles);
    const std::string routing = cfg.get_string("noc.routing", "xy");
    if (routing == "xy") {
      c.routing = RoutingAlgorithm::kXY;
    } else if (routing == "yx") {
      c.routing = RoutingAlgorithm::kYX;
    } else if (routing == "westfirst") {
      c.routing = RoutingAlgorithm::kWestFirst;
    } else if (routing == "adaptive") {
      c.routing = RoutingAlgorithm::kAdaptive;
    } else {
      throw std::invalid_argument(
          "noc.routing must be xy|yx|westfirst|adaptive");
    }
    const std::string topology = cfg.get_string("noc.topology", "mesh");
    if (topology == "mesh") {
      c.topology = TopologyKind::kMesh;
    } else if (topology == "torus") {
      c.topology = TopologyKind::kTorus;
    } else {
      throw std::invalid_argument("noc.topology must be mesh|torus");
    }
    c.validate();
    return c;
  }
};

}  // namespace rlftnoc
