// Routing policies for the mesh / torus topology provider.
//
// The paper evaluates X-Y routing (Table II); this module generalizes route
// computation behind a RoutingPolicy interface so the substrate can also run
// Y-X, the west-first partially adaptive turn model (Glass & Ni), and a
// fault-adaptive up*/down* policy. A policy's job is to (re)build the
// Topology's flat next-hop LUT for the current alive subgraph — virtual
// dispatch happens only at (re)build time, never per flit; steady-state route
// computation stays one table load (route_candidates below).
//
// Deadlock freedom:
//  * xy / yx on a mesh: dimension order forbids the second-dimension ->
//    first-dimension turns, so the channel dependence graph is acyclic.
//  * xy / yx on a torus: dimension order breaks inter-dimension cycles; the
//    intra-ring cycles introduced by the wrap links are broken by dateline
//    VC classes (Flit::vc_class, assigned in the router's RC stage: class 1
//    after crossing a wrap link, class 0 before). Each class maps to a
//    disjoint half of the VC range, so no cyclic wait can close.
//  * westfirst: mesh-only turn model (rejected on a torus and with hard
//    faults — its proof assumes all minimal westward paths exist).
//  * adaptive (up*/down*): per connected component, a BFS from the
//    minimum-id alive router assigns every node a rank (level, id); an edge
//    toward smaller rank is "up", toward larger rank is "down". Every route
//    is an up* then down* path and the LUT never creates a down->up turn
//    (a node whose all-down path to dst exists always continues down).
//    Up edges point strictly down-rank and down edges strictly up-rank, so
//    any cycle in the channel dependence graph would need a down->up turn —
//    which never occurs. Deadlock-free on ANY connected alive subgraph with
//    any VC usage; minimal on the fault-free mesh (the committed-down rule
//    can pick a longer-but-legal down path when faults skew the DAG; see
//    DESIGN.md).
//
// Deterministic algorithms yield one candidate; west-first may yield up to
// two minimal candidates and the router breaks the tie by downstream credit
// availability (congestion-aware selection).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "noc/topology.h"

namespace rlftnoc {

/// Builds the per-(cur, dst) next-hop LUT for a topology's alive subgraph.
/// Stateless; one shared instance per algorithm (routing_policy_for).
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  virtual const char* name() const noexcept = 0;
  /// Fills `lut` ([cur * num_nodes + dst] -> port_index or
  /// Topology::kUnreachable) for the current fault state of `topo`.
  virtual void build_lut(const Topology& topo,
                         std::vector<std::uint8_t>& lut) const = 0;
};

/// The shared policy instance implementing `alg`.
const RoutingPolicy& routing_policy_for(RoutingAlgorithm alg);

/// Minimal route candidates at `cur` toward `dst` under `alg`, in
/// preference order. Returns the number of candidates written (0, 1 or 2);
/// 0 means dst is unreachable from cur on the alive subgraph (hard faults);
/// candidates[0] == kLocal means cur == dst.
int route_candidates(RoutingAlgorithm alg, const Topology& topo, NodeId cur,
                     NodeId dst, std::array<Port, 2>& candidates);

}  // namespace rlftnoc
