// Network interface (NI): the local-port endpoint attached to each router.
//
// Source side: queues packets from the traffic layer, CRC-encodes every flit
// (Fig. 1(b)), injects one flit per cycle subject to local-port credits, and
// retains a pristine copy of each packet until the end-to-end ACK arrives;
// an end-to-end NACK (destination CRC failure) re-injects the whole packet
// from source, which is exactly the baseline CRC retransmission scheme.
//
// Destination side: ejects flits, recomputes the CRC over the (possibly
// corrupted, possibly ECC-"corrected") payload, reassembles packets, and
// requests the source retransmission when any flit fails.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ring_buffer.h"
#include "common/types.h"
#include "noc/flit.h"
#include "noc/noc_config.h"
#include "noc/step_effects.h"

namespace rlftnoc {

class Network;
class Topology;
struct ChannelPair;
struct LaneBytes;

/// Creates a packet with `len` flits of RNG-filled payload and valid CRCs.
/// Throws std::invalid_argument unless 1 <= len <= kMaxPacketFlits.
class Rng;
Packet make_packet(PacketId id, NodeId src, NodeId dst, int len, Cycle now, Rng& rng);

/// Per-NI activity counters.
struct NiCounters {
  std::uint64_t packets_enqueued = 0;
  std::uint64_t packets_injected = 0;      ///< first transmissions only
  std::uint64_t packets_reinjected = 0;    ///< end-to-end retransmissions
  std::uint64_t flits_sent = 0;
  std::uint64_t flits_sent_fresh = 0;  ///< excludes end-to-end retransmissions
  std::uint64_t flits_ejected = 0;
  std::uint64_t packets_delivered = 0;     ///< finalized with all CRCs clean
  std::uint64_t packets_crc_failed = 0;    ///< finalized with >=1 bad flit
  std::uint64_t crc_flit_failures = 0;
  std::uint64_t queue_rejects = 0;         ///< enqueue refused, queue full
  std::uint64_t stale_flit_drops = 0;      ///< old-generation stragglers dropped
  std::uint64_t packets_abandoned = 0;     ///< given up after hard faults
};

class NetworkInterface {
 public:
  NetworkInterface(NodeId id, const NocConfig* cfg, Network* net);

  NodeId id() const noexcept { return id_; }

  /// Queues a packet for injection; returns false when the queue is full.
  bool enqueue_packet(Packet pkt);

  std::size_t inject_queue_depth() const noexcept {
    return queue_.size() + reinject_.size();
  }

  /// Phase A: ejection side — drain flits and credits from the router.
  void receive(Cycle now);

  /// Phase B: injection side — push at most one flit onto the local link.
  void execute(Cycle now);

  /// Called by the Network when an end-to-end ACK (`ok`) or retransmission
  /// request (`!ok`) for a packet we sourced arrives back. Runs in the
  /// serial e2e drain (never inside a parallel phase), so it keeps the
  /// direct global metric/trace sinks.
  void deliver_e2e_response(Cycle now, PacketId id, bool ok);

  /// Binds this NI's shard-local staging buffer and trace sink (null trace
  /// = tracing off); see Router::set_effect_sinks. receive/execute stage
  /// all global-metric mutations, latency samples, path credits and e2e
  /// scheduling through these.
  void set_effect_sinks(StepEffects* fx, TraceStage* trace) noexcept {
    fx_ = fx;
    trace_ = trace;
  }

  /// Binds the node-local channels (NI -> router injection, router -> NI
  /// ejection) and this node's lane occupancy block (noc/node_hot.h); see
  /// Router::bind_links.
  void bind_links(ChannelPair* inj, ChannelPair* ej,
                  const LaneBytes* lanes) noexcept {
    inj_ = inj;
    ej_ = ej;
    lanes_ = lanes;
  }

  /// True when this NI holds no in-flight state (drain detection).
  bool idle() const noexcept {
    return queue_.empty() && reinject_.empty() && !sending_ && retained_.empty() &&
           assembling_.empty();
  }

  /// True when the injection side can produce nothing this cycle: no queued
  /// or in-flight packet transmission. Reassembly/retained state does not
  /// matter here — it only reacts to arriving flits/responses, which the
  /// network's idle-skip check accounts for separately.
  bool injection_idle() const noexcept {
    return queue_.empty() && reinject_.empty() && !sending_;
  }

  const NiCounters& counters() const noexcept { return counters_; }

  // -- hard-fault teardown (serial context, called by the Network) --

  /// Drops queued / reinject / retained packets whose destination died or
  /// became unreachable. Retained packets that had flits in flight are
  /// reported as `orphans` (packet, dst) so the network can erase any
  /// partial reassembly at the destination.
  void purge_unreachable(const Topology& topo,
                         std::vector<std::pair<PacketId, NodeId>>& orphans);

  /// Wipes all NI state when this node's router is killed.
  void purge_for_router_kill(std::vector<std::pair<PacketId, NodeId>>& orphans);

  bool has_retained(PacketId id) const noexcept {
    return retained_.count(id) != 0;
  }
  /// Gives up on a retained packet (destination lost): no further end-to-end
  /// retransmissions will be attempted.
  void abandon_retained(PacketId id);
  /// Erases a partial reassembly for a packet that can never complete.
  void abandon_assembly(PacketId id) { assembling_.erase(id); }

 private:
  struct Assembly {
    NodeId src = kInvalidNode;
    std::uint32_t expected = 0;
    std::uint32_t received = 0;
    bool crc_failed = false;
    Cycle packet_inject_cycle = kInvalidCycle;
    std::uint8_t attempt = 0;  ///< injection generation being assembled
  };

  /// Local-port credit mirror of the router's Local input VCs.
  struct LocalVc {
    bool busy = false;  ///< mid-packet: reserved until our tail goes out
    int credits = 0;
  };

  void start_next_packet(Cycle now);
  void finalize_packet(Cycle now, PacketId id, const Assembly& asmbl);

  /// The invariant auditor inspects credit mirrors and reassembly state
  /// (see noc/audit.h).
  friend class NetworkAuditor;

  NodeId id_;
  const NocConfig* cfg_;
  Network* net_;
  StepEffects* fx_ = nullptr;   ///< shard staging buffer (never null in step)
  TraceStage* trace_ = nullptr; ///< shard trace sink; null = tracing off
  ChannelPair* inj_ = nullptr;        ///< bound injection channel
  ChannelPair* ej_ = nullptr;         ///< bound ejection channel
  const LaneBytes* lanes_ = nullptr;  ///< this node's lane occupancy bytes

  RingBuffer<Packet> queue_;     ///< fresh packets
  RingBuffer<Packet> reinject_;  ///< end-to-end retransmissions (priority)
  std::optional<Packet> sending_;
  bool sending_is_reinject_ = false;
  std::size_t next_flit_ = 0;
  VcId send_vc_ = kInvalidVc;

  std::unordered_map<PacketId, Packet> retained_;
  std::unordered_map<PacketId, Assembly> assembling_;
  /// Highest generation already finalized, recorded only for packets that
  /// were ever re-injected (attempt > 0), so stragglers of a finalized
  /// generation cannot re-open a ghost assembly after hard-fault repair.
  std::unordered_map<PacketId, std::uint8_t> finalized_attempt_;
  std::vector<LocalVc> local_vcs_;

  NiCounters counters_;
};

}  // namespace rlftnoc
