#include "workload/generators.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace rlftnoc {
namespace {

/// Deterministic seeded permutation of all node ids (Fisher-Yates driven by
/// the project Rng, so placement is identical across hosts and runs).
std::vector<NodeId> shuffled_nodes(const MeshTopology& topo,
                                   std::uint64_t seed, const char* tag) {
  std::vector<NodeId> nodes(static_cast<std::size_t>(topo.num_nodes()));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  Rng rng(seed, tag);
  for (std::size_t i = nodes.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_u64() % i);
    std::swap(nodes[i - 1], nodes[j]);
  }
  return nodes;
}

}  // namespace

Workload make_dnn_workload(const MeshTopology& topo,
                           const DnnWorkloadOptions& opt, std::uint64_t seed) {
  const int n = topo.num_nodes();
  const int layers = std::max(opt.layers, 2);
  const int per_layer = std::max(1, std::min(opt.nodes_per_layer, n));
  const int fan_in = std::max(1, std::min(opt.fan_in, per_layer));
  const int len = std::max(opt.packet_len, 1);
  const std::vector<NodeId> perm = shuffled_nodes(topo, seed, "wl-dnn");

  const auto layer_node = [&](int layer, int j) {
    return perm[static_cast<std::size_t>(
        (static_cast<long long>(layer) * per_layer + j) %
        static_cast<long long>(n))];
  };

  Workload wl;
  wl.name = "dnn";
  // At most fan_in edges into every consumer slot of every layer after the
  // first (fewer where a layer wrap lands on the producer's own node).
  // Each waits on at most fan_in ids.
  const std::size_t max_transfers = static_cast<std::size_t>(layers - 1) *
                                    static_cast<std::size_t>(per_layer) *
                                    static_cast<std::size_t>(fan_in);
  wl.reserve(max_transfers, max_transfers * static_cast<std::size_t>(fan_in));
  // incoming[j] = ids of the previous edge-layer's transfers into producer
  // slot j — the dependencies of everything that producer sends onward.
  std::vector<std::vector<std::uint64_t>> incoming(
      static_cast<std::size_t>(per_layer));
  std::vector<std::vector<std::uint64_t>> next_incoming(
      static_cast<std::size_t>(per_layer));
  std::uint64_t next_id = 1;
  for (int l = 0; l + 1 < layers; ++l) {
    for (auto& v : next_incoming) v.clear();
    for (int j = 0; j < per_layer; ++j) {  // consumer slot in layer l+1
      const NodeId dst = layer_node(l + 1, j);
      for (int k = 0; k < fan_in; ++k) {
        const int pslot = (j + k) % per_layer;  // producer slot in layer l
        const NodeId src = layer_node(l, pslot);
        if (src == dst) continue;  // layer wrap landed on the same node
        WorkloadTransfer t;
        t.id = next_id++;
        t.src = src;
        t.dst = dst;
        t.len = len;
        t.earliest_cycle = static_cast<Cycle>(l) * opt.layer_spacing;
        wl.add(t, incoming[static_cast<std::size_t>(pslot)]);
        next_incoming[static_cast<std::size_t>(j)].push_back(next_id - 1);
      }
    }
    incoming.swap(next_incoming);
  }
  return wl;
}

Workload make_rpc_workload(const MeshTopology& topo,
                           const RpcWorkloadOptions& opt, std::uint64_t seed) {
  const int n = topo.num_nodes();
  const std::vector<NodeId> perm = shuffled_nodes(topo, seed, "wl-rpc");
  const int clients = std::max(1, std::min(opt.clients, n - 1));
  const int servers = std::max(1, std::min(opt.servers, n - clients));
  const int requests = std::max(opt.requests_per_client, 1);
  const int fanout = std::max(opt.fanout, 0);
  const int req_len = std::max(opt.request_len, 1);
  const int resp_len = std::max(opt.response_len, 1);

  const auto client_node = [&](int c) {
    return perm[static_cast<std::size_t>(c)];
  };
  const auto server_node = [&](int s) {
    return perm[static_cast<std::size_t>(clients + s)];
  };

  Workload wl;
  wl.name = "rpc";
  // Per request: the request, a sub-request and a sub-response per backend,
  // and the response.
  const std::size_t backends =
      servers > 1 ? static_cast<std::size_t>(fanout) : 0;
  // One dependency id per transfer, except none for a client's first
  // request and one per backend for a response.
  const std::size_t per_request = 2 + 2 * backends;
  const std::size_t total = static_cast<std::size_t>(clients) *
                            static_cast<std::size_t>(requests) * per_request;
  wl.reserve(total, total + static_cast<std::size_t>(clients) *
                                static_cast<std::size_t>(requests) * backends);
  std::uint64_t next_id = 1;
  const auto add = [&](NodeId src, NodeId dst, int len, Cycle earliest,
                       std::span<const std::uint64_t> deps) {
    WorkloadTransfer t;
    t.id = next_id++;
    t.src = src;
    t.dst = dst;
    t.len = len;
    t.earliest_cycle = earliest;
    wl.add(t, deps);
    return t.id;
  };
  std::vector<std::uint64_t> resp_deps;

  for (int c = 0; c < clients; ++c) {
    std::uint64_t prev_response = 0;
    for (int k = 0; k < requests; ++k) {
      const NodeId cli = client_node(c);
      const int fe_slot = (c + k) % servers;
      const NodeId frontend = server_node(fe_slot);
      const Cycle earliest = static_cast<Cycle>(k) * opt.request_spacing;
      const std::uint64_t req =
          add(cli, frontend, req_len, earliest,
              std::span(&prev_response, prev_response != 0 ? 1 : 0));
      resp_deps.clear();
      for (int f = 0; f < fanout && servers > 1; ++f) {
        int be_slot = (fe_slot + 1 + f) % servers;
        if (be_slot == fe_slot) be_slot = (be_slot + 1) % servers;
        const NodeId backend = server_node(be_slot);
        const std::uint64_t sub =
            add(frontend, backend, req_len, earliest, std::span(&req, 1));
        resp_deps.push_back(
            add(backend, frontend, resp_len, earliest, std::span(&sub, 1)));
      }
      if (resp_deps.empty()) resp_deps.push_back(req);
      prev_response = add(frontend, cli, resp_len, earliest, resp_deps);
    }
  }
  return wl;
}

Workload make_nack_storm_workload(const MeshTopology& topo,
                                  const NackStormWorkloadOptions& opt,
                                  std::uint64_t seed) {
  const int n = topo.num_nodes();
  NodeId victim = opt.victim;
  if (victim < 0 || victim >= n) {
    // Mesh centre: the node every attacker's minimal path converges on.
    victim = static_cast<NodeId>((topo.height() / 2) * topo.width() +
                                 topo.width() / 2);
  }
  const std::vector<NodeId> perm = shuffled_nodes(topo, seed, "wl-nackstorm");
  const int attackers = std::max(1, std::min(opt.attackers, n - 1));
  const int waves = std::max(opt.waves, 1);
  const int burst = std::max(opt.packets_per_wave, 1);
  const int len = std::max(opt.packet_len, 1);

  std::vector<NodeId> att;
  for (const NodeId node : perm) {
    if (node != victim) att.push_back(node);
    if (static_cast<int>(att.size()) == attackers) break;
  }

  Workload wl;
  wl.name = "nackstorm";
  const std::size_t per_wave = att.size() * static_cast<std::size_t>(burst);
  wl.reserve(static_cast<std::size_t>(waves) * per_wave,
             static_cast<std::size_t>(waves - 1) * per_wave);
  std::uint64_t next_id = 1;
  // prev[a * burst + p]: the wave-(w-1) transfer this attacker/slot chains on.
  std::vector<std::uint64_t> prev(att.size() * static_cast<std::size_t>(burst),
                                  0);
  for (int w = 0; w < waves; ++w) {
    for (std::size_t a = 0; a < att.size(); ++a) {
      for (int p = 0; p < burst; ++p) {
        WorkloadTransfer t;
        t.id = next_id++;
        t.src = att[a];
        t.dst = victim;
        t.len = len;
        t.earliest_cycle = 0;  // release is completion-driven, not timed
        const std::size_t slot = a * static_cast<std::size_t>(burst) +
                                 static_cast<std::size_t>(p);
        wl.add(t, std::span(&prev[slot], prev[slot] != 0 ? 1 : 0));
        prev[slot] = t.id;
      }
    }
  }
  return wl;
}

bool is_builtin_workload(const std::string& name) {
  return name == "dnn" || name == "rpc" || name == "nackstorm";
}

Workload make_builtin_workload(const std::string& name,
                               const MeshTopology& topo, const Config& cfg,
                               std::uint64_t seed) {
  if (name == "dnn") {
    return make_dnn_workload(topo, options_from_config<DnnWorkloadOptions>(cfg),
                             seed);
  }
  if (name == "rpc") {
    return make_rpc_workload(topo, options_from_config<RpcWorkloadOptions>(cfg),
                             seed);
  }
  if (name == "nackstorm") {
    return make_nack_storm_workload(
        topo,
        options_from_config<NackStormWorkloadOptions>(cfg, topo.num_nodes()),
        seed);
  }
  throw WorkloadError("unknown built-in workload generator '" + name +
                      "' (have: dnn, rpc, nackstorm)");
}

}  // namespace rlftnoc
