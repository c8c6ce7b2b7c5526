// Per-shard staging buffers for the phase-parallel network stepper.
//
// Network::step partitions the mesh into contiguous node shards and runs the
// receive and execute phases data-parallel across them. Everything a node
// touches that is *not* owned by its own shard-local slice of the network —
// global NetworkMetrics counters, floating-point latency accumulators, e2e
// response scheduling, per-path latency credits (paths already walked) and
// trace events — is captured here instead of applied in place, then merged
// after the phase barrier in canonical shard order (= ascending node order,
// the exact order the serial stepper used). Link-level ACKs need no staging: the router that
// produced them in receive pushes them itself in execute (Router::execute).
//
// Merge-order invariant: shards are contiguous ascending node ranges and a
// shard task processes its nodes in ascending order, so concatenating the
// per-shard buffers in shard order reproduces, per effect kind, the serial
// stepper's global emission order for *any* shard count. That makes the
// floating-point accumulation order, the `e2e_seq_` tie-break stream, the
// trace stream and every counter bit-identical between `sim_threads=1` and
// `sim_threads=N` (see DESIGN.md, "Parallel stepping & deterministic
// merge").
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "telemetry/telemetry.h"

namespace rlftnoc {

/// Cross-shard side effects of one shard's receive or execute phase.
/// Cleared after every merge; vectors keep their capacity, so after the
/// first few cycles staging allocates nothing.
struct alignas(64) StepEffects {
  /// Deferred Network::schedule_e2e_response — the global `e2e_seq_`
  /// tie-break counter is assigned at merge time, in canonical order.
  struct StagedE2e {
    Cycle at;
    NodeId src;
    PacketId id;
    bool ok;
  };

  /// A delivered packet's per-hop latency, owed to every router on its path
  /// (most outside the shard). The delivering NI walks the route LUT and
  /// appends the path to `path_nodes`; [first, last) is this credit's part.
  /// The merge only replays the latency-window adds.
  struct StagedPathCredit {
    std::uint32_t first;
    std::uint32_t last;
    double latency;
  };

  std::vector<StagedE2e> e2e;
  std::vector<StagedPathCredit> path_credits;
  std::vector<NodeId> path_nodes;  ///< concatenated credit paths
  /// End-to-end latency samples in delivery order; replayed through the
  /// global StatAccumulator + Histogram so FP accumulation order matches
  /// the serial stepper exactly.
  std::vector<double> latency_samples;

  /// Receive/execute split mark for the fused single merge. The stepper
  /// merges once per cycle, and the canonical order requires every shard's
  /// receive-phase entries of a kind to be replayed before any shard's
  /// execute-phase entries. Only `router_trace` is staged in both phases
  /// (NACKs in receive; hop retransmissions, mode-2 duplicates and injected
  /// link faults in execute), so it is the one kind with a mark: each shard
  /// task records its size at the end of its receive half. Every other
  /// staged kind — `e2e`, `path_credits`/`path_nodes`, `latency_samples`
  /// and `ni_trace` — is appended only by NetworkInterface::finalize_packet,
  /// which runs only from NI receive, so its whole stream is receive-phase.
  /// A later execute-phase append to one of them would reorder it against
  /// serial; ParallelStep.*AcrossShardCounts catch that.
  std::size_t router_trace_split = 0;

  /// Marks the receive/execute boundary (called by the shard task after its
  /// last receive, before any execute).
  void mark_receive_end() noexcept { router_trace_split = router_trace.size(); }

  // NetworkMetrics counter deltas (names mirror the NetworkMetrics fields).
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t retx_flits_hop = 0;
  std::uint64_t dup_flits = 0;
  std::uint64_t crc_packet_failures = 0;

  /// Lengths of this shard's visit lists this cycle: busy routers and busy
  /// NIs (Network::step).
  std::uint32_t busy_routers = 0;
  std::uint32_t busy_nis = 0;

  /// Trace events staged by routers / NIs of this shard. Two streams
  /// because the serial stepper runs *all* routers before *all* NIs within
  /// a phase: the merge drains every shard's router stream first, then
  /// every shard's NI stream, reproducing the serial global trace order.
  TraceStage router_trace;
  TraceStage ni_trace;

  /// True when nothing is staged (auditor invariant between steps).
  bool empty() const noexcept {
    return e2e.empty() && path_credits.empty() && path_nodes.empty() &&
           latency_samples.empty() && packets_injected == 0 &&
           packets_delivered == 0 && flits_delivered == 0 &&
           retx_flits_hop == 0 && dup_flits == 0 &&
           crc_packet_failures == 0 && router_trace.empty() &&
           ni_trace.empty();
  }

  /// Drops all staged state (keeps capacity). Trace stages are drained —
  /// not cleared — by the merge; this clears the rest.
  void clear_posts() noexcept {
    e2e.clear();
    path_credits.clear();
    path_nodes.clear();
    latency_samples.clear();
    router_trace_split = 0;
    packets_injected = 0;
    packets_delivered = 0;
    flits_delivered = 0;
    retx_flits_hop = 0;
    dup_flits = 0;
    crc_packet_failures = 0;
  }
};

}  // namespace rlftnoc
