// Built-in dependency-aware workload generators.
//
// Three closed-loop scenario families the open-loop synthetic patterns
// cannot express (ISSUE: tt-npe-style transfer graphs):
//
//  * DNN — a layered dataflow graph: layer l+1 consumers read from layer l
//    producers, and a producer's outgoing transfers wait on its own inputs,
//    so congestion in one layer back-pressures the whole pipeline.
//  * RPC — request/response trees with configurable backend fan-out and a
//    closed loop per client (the next request waits for the previous
//    response), the classic datacenter-on-chip pattern.
//  * NACK storm — an adversary: attackers keep a fixed window of packets
//    outstanding against one victim, each wave released by the previous
//    wave's completions, sustaining worst-case many-to-one pressure that
//    adapts to whatever throughput the victim's links allow.
//
// All generators are pure functions of (topology, options, seed): the seed
// drives only the deterministic node-placement shuffle, so the same inputs
// always produce byte-identical workloads.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.h"
#include "common/options.h"
#include "common/types.h"
#include "noc/flit.h"
#include "noc/topology.h"
#include "workload/workload.h"

namespace rlftnoc {

struct DnnWorkloadOptions {
  int layers = 6;            ///< >= 2 (layer 0 feeds layer 1, ...)
  int nodes_per_layer = 8;   ///< clamped to the mesh size
  int fan_in = 2;            ///< producers feeding each consumer
  int packet_len = 4;        ///< flits per transfer
  Cycle layer_spacing = 64;  ///< earliest-cycle stagger between layers
};

struct RpcWorkloadOptions {
  int clients = 8;
  int servers = 8;
  int requests_per_client = 8;  ///< sequential, closed-loop per client
  int fanout = 2;               ///< backend sub-requests per request
  int request_len = 1;
  int response_len = 4;
  Cycle request_spacing = 32;  ///< earliest-cycle stagger between requests
};

struct NackStormWorkloadOptions {
  NodeId victim = kInvalidNode;  ///< default: mesh centre
  int attackers = 8;
  int waves = 16;                  ///< completion-chained bursts per attacker
  int packets_per_wave = 4;        ///< outstanding window per attacker
  int packet_len = 4;
};

// The `wl.*` config keys of each generator (common/options.h).
template <class V>
void visit_options(DnnWorkloadOptions& o, V&& v) {
  v({"wl.layers", "dnn: layers", 2}, o.layers);
  v({"wl.nodes_per_layer", "dnn: nodes per layer (capped at the mesh)", 1},
    o.nodes_per_layer);
  v({"wl.fan_in", "dnn: producers per consumer", 1}, o.fan_in);
  v({"wl.packet_len", "dnn: flits per transfer", 1, kMaxPacketFlits}, o.packet_len);
  v({"wl.layer_spacing", "dnn: cycles between layer releases"}, o.layer_spacing);
}

template <class V>
void visit_options(RpcWorkloadOptions& o, V&& v) {
  v({"wl.clients", "rpc: clients (at most nodes - 1)", 1}, o.clients);
  v({"wl.servers", "rpc: servers", 1}, o.servers);
  v({"wl.requests", "rpc: sequential requests per client", 1}, o.requests_per_client);
  v({"wl.fanout", "rpc: backend sub-requests per request", 0}, o.fanout);
  v({"wl.request_len", "rpc: flits per request", 1, kMaxPacketFlits}, o.request_len);
  v({"wl.response_len", "rpc: flits per reply", 1, kMaxPacketFlits}, o.response_len);
  v({"wl.spacing", "rpc: cycles between a client's requests"}, o.request_spacing);
}

/// `nodes` bounds the victim: an explicit one must lie inside the mesh.
template <class V>
void visit_options(NackStormWorkloadOptions& o, V&& v, int nodes) {
  v({"wl.victim", "nackstorm: victim node (-1: mesh centre)", 0, nodes - 1}, o.victim);
  v({"wl.attackers", "nackstorm: attacking nodes", 1}, o.attackers);
  v({"wl.waves", "nackstorm: bursts per attacker", 1}, o.waves);
  v({"wl.burst", "nackstorm: packets per burst", 1}, o.packets_per_wave);
  v({"wl.packet_len", "nackstorm: flits per packet", 1, kMaxPacketFlits}, o.packet_len);
}

Workload make_dnn_workload(const MeshTopology& topo,
                           const DnnWorkloadOptions& opt, std::uint64_t seed);
Workload make_rpc_workload(const MeshTopology& topo,
                           const RpcWorkloadOptions& opt, std::uint64_t seed);
Workload make_nack_storm_workload(const MeshTopology& topo,
                                  const NackStormWorkloadOptions& opt,
                                  std::uint64_t seed);

/// True when `name` names a built-in generator ("dnn", "rpc", "nackstorm").
bool is_builtin_workload(const std::string& name);

/// Builds the named generator's workload with its `wl.*` options read from
/// `cfg` (options_from_config). Throws WorkloadError on unknown names and
/// ConfigError on a malformed or out-of-range option.
Workload make_builtin_workload(const std::string& name,
                               const MeshTopology& topo, const Config& cfg,
                               std::uint64_t seed);

}  // namespace rlftnoc
