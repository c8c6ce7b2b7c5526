// Fault-tolerant mesh router (Fig. 2 of the paper).
//
// Micro-architecture: input-queued wormhole router with virtual channels,
// credit-based flow control, X-Y routing and a 3-stage in-router pipeline
// (RC -> VA -> SA/ST) plus one link cycle, approximating Table II's 4-stage
// router. Stages are evaluated in reverse pipeline order each cycle so a
// flit advances at most one stage per cycle without double-buffering.
//
// On top of the plain router sits the link-layer fault-tolerance machinery
// of Section III, controlled by the router's current OpMode:
//  * mode 0  - flits leave unprotected; errors travel to the destination
//              where the NI's CRC catches them (end-to-end retransmission).
//  * mode 1+ - every outgoing flit is SECDED-encoded, a pristine copy is
//              retained in the output flit buffer until the downstream
//              decoder ACKs it, and a NACK triggers a link-level resend.
//  * mode 2  - additionally, each flit is proactively re-sent two cycles
//              after the original (flit pre-retransmission), hiding the
//              NACK round-trip when the first copy fails.
//  * mode 3  - additionally, every transmission stretches over 3 cycles
//              (control-signal cycle + stall), relaxing the timing path so
//              the VARIUS error probability collapses to ~0.
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ring_buffer.h"
#include "common/types.h"
#include "noc/channel.h"
#include "noc/flit.h"
#include "noc/noc_config.h"
#include "noc/retention.h"
#include "noc/step_effects.h"

namespace rlftnoc {

class Network;
struct LaneBytes;

/// Cumulative per-router activity counters; the control layer samples deltas
/// per time-step to build the RL state (Table I features).
struct RouterCounters {
  std::array<std::uint64_t, kNumPorts> flits_in{};   ///< accepted per input port
  std::array<std::uint64_t, kNumPorts> flits_out{};  ///< transmitted per output port
  std::array<std::uint64_t, kNumPorts> nacks_received{};  ///< NACKs back at our outputs
  std::array<std::uint64_t, kNumPorts> nacks_sent{};      ///< NACKs we issued at inputs
  std::array<std::uint64_t, kNumPorts> acks_received{};
  std::uint64_t hop_retransmissions = 0;  ///< link-level re-sends (upon NACK)
  std::uint64_t preretx_duplicates = 0;   ///< mode-2 proactive duplicates sent
  std::uint64_t dup_discards = 0;         ///< duplicates dropped at our inputs
  std::uint64_t ecc_corrections = 0;      ///< single-bit fixes by our decoders
  std::uint64_t ecc_uncorrectable = 0;    ///< double-bit detections at inputs
  std::uint64_t fault_drops = 0;          ///< flits destroyed by hard faults
};

/// One input VC's flit FIFO: a fixed-capacity ring view into the owning
/// router's flit arena. The capacity is a power of two >= vc_depth, and the
/// credit protocol keeps occupancy <= vc_depth, so it never fills. The view
/// owns no memory.
class FlitFifo {
 public:
  /// One arena slot: a flit on its own cache line.
  struct alignas(64) Slot {
    Flit flit;
  };

  /// Points the view at `capacity` (a power of two) slots; empties it.
  void bind(Slot* slots, std::uint32_t capacity) noexcept {
    slots_ = slots;
    mask_ = capacity - 1;
    head_ = 0;
    size_ = 0;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  Flit& front() noexcept {
    RLFTNOC_CHECK(size_ > 0, "FlitFifo: front() on empty FIFO");
    return slots_[head_].flit;
  }
  const Flit& front() const noexcept {
    RLFTNOC_CHECK(size_ > 0, "FlitFifo: front() on empty FIFO");
    return slots_[head_].flit;
  }

  void push_back(Flit&& flit) noexcept {
    RLFTNOC_CHECK(size_ <= mask_, "FlitFifo: push_back() on full FIFO");
    slots_[(head_ + size_) & mask_].flit = std::move(flit);
    ++size_;
  }

  void pop_front() noexcept {
    RLFTNOC_CHECK(size_ > 0, "FlitFifo: pop_front() on empty FIFO");
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Removes every flit satisfying `pred`, keeping the survivors' order.
  /// Returns the count removed.
  template <typename Pred>
  std::size_t remove_if(Pred&& pred) {
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < size_; ++i) {
      Flit& f = slots_[(head_ + i) & mask_].flit;
      if (pred(std::as_const(f))) continue;
      if (kept != i) slots_[(head_ + kept) & mask_].flit = std::move(f);
      ++kept;
    }
    const std::size_t removed = size_ - kept;
    size_ = kept;
    return removed;
  }

 private:
  Slot* slots_ = nullptr;
  std::uint32_t mask_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

/// One mesh router.
class Router {
 public:
  Router(NodeId id, const NocConfig* cfg, Network* net);

  NodeId id() const noexcept { return id_; }

  /// Current fault-tolerant operation mode (Section III); applies to all of
  /// this router's outgoing ECC links, per the per-router controller.
  OpMode mode() const noexcept { return mode_; }
  void set_mode(OpMode m) noexcept { mode_ = m; }

  /// Phase A: drain matured flits / credits / ACKs from incoming lanes.
  void receive(Cycle now);

  /// Phase B: run SA -> VA -> RC and place outgoing flits on the wires.
  void execute(Cycle now);

  /// Binds this router's shard-local staging buffer and trace sink (null
  /// trace = tracing off). Called by the Network whenever the shard
  /// partition or the tracer changes; receive/execute route every
  /// cross-shard mutation (shared metric counters, trace events) through
  /// these instead of the global sinks.
  void set_effect_sinks(StepEffects* fx, TraceStage* trace) noexcept {
    fx_ = fx;
    trace_ = trace;
  }

  /// Binds this router's link endpoints: in[p] / out[p] is the live channel
  /// entering / leaving through port p (null for an absent or dead link),
  /// with the NI's injection / ejection channels at the Local index, and
  /// `lanes` is this node's lane occupancy block (noc/node_hot.h). Called by
  /// the Network at construction and after every link kill; the datapath
  /// reaches its channels only through these.
  void bind_links(const std::array<ChannelPair*, kNumPorts>& in,
                  const std::array<ChannelPair*, kNumPorts>& out,
                  const LaneBytes* lanes) noexcept {
    in_ch_ = in;
    out_ch_ = out;
    lanes_ = lanes;
  }

  /// Number of occupied input VCs (RL state feature 1).
  int occupied_input_vcs() const noexcept;

  /// Total flits buffered across all input VCs (diagnostics).
  int buffered_flits() const noexcept;

  /// Pending ARQ work: retention entries + queued resends (drain check).
  int pending_link_work() const noexcept;

  /// True when the router holds no state that could produce work on its own:
  /// every input VC is idle with an empty FIFO and every output port has no
  /// retention entries or queued resends/duplicates. A quiescent router's
  /// receive/execute are no-ops as long as its incoming lanes are also empty
  /// (the network checks those), which is what licenses idle-skip stepping.
  bool quiescent() const noexcept {
    return (occ_mask_ | active_mask_ | waitvc_mask_) == 0 &&
           (retained_ports_ | resend_ports_) == 0;
  }

  const RouterCounters& counters() const noexcept { return counters_; }

  // -- hard-fault teardown (serial context, called by the Network) --

  /// A worm severed mid-body at a dead input port: its upstream fragment is
  /// gone, but downstream routers still hold (or are forwarding) the head.
  /// The network chases the allocation chain and purges the remainder so no
  /// channel stays allocated to a worm that can never finish.
  struct SeveredWorm {
    PacketId packet = 0;
    Port out_port = Port::kLocal;
    VcId out_vc = kInvalidVc;
  };

  /// Continuation for one step of the severed-worm chain walk.
  struct ChainNext {
    bool walk = false;  ///< keep following the chain downstream
    Port out_port = Port::kLocal;
    VcId out_vc = kInvalidVc;
  };

  /// Tears down sender-side state for a dead output link: retention copies,
  /// queued resends/duplicates, and any input worm mid-flight toward it.
  void purge_dead_output(Cycle now, Port p, std::vector<LostFlit>& lost);

  /// Tears down receiver-side state for a dead input link: buffered flits
  /// (no credits back — the reverse lane is gone too), ARQ sync, and reports
  /// worms that were severed mid-body so the network can chase them.
  void purge_dead_input(Port p, std::vector<LostFlit>& lost,
                        std::vector<SeveredWorm>& severed);

  /// Wipes every buffer and protocol structure of a killed router.
  void purge_for_router_kill(std::vector<LostFlit>& lost);

  /// Removes the leading worm of `packet` from input VC (in, v) if present,
  /// returning buffer credits upstream. Part of the severed-worm chain walk.
  ChainNext purge_worm_of_packet(Cycle now, Port in, VcId v, PacketId packet,
                                 std::vector<LostFlit>& lost);

 private:
  /// Per-input-VC wormhole state machine.
  struct InputVc {
    FlitFifo fifo;
    enum class State : std::uint8_t { kIdle, kRouting, kWaitVc, kActive } state =
        State::kIdle;
    Port out_port = Port::kLocal;
    VcId out_vc = kInvalidVc;
  };

  /// Downstream-buffer credit tracking for one output VC.
  struct OutputVc {
    bool allocated = false;
    int credits = 0;
  };

  /// One output port. The ARQ structures hold memory only on a mesh port
  /// with a live link: the constructor sizes them there, purge_dead_output
  /// frees them, and the Local port never retains (auditor invariant 8).
  struct OutputPort {
    OutputVc* vcs = nullptr;  ///< vcs_per_port credit records, in the arena
    Cycle busy_until = 0;  ///< first cycle the channel is free again
    RetentionTable retention;  ///< in-flight clean copies, in send order
    RingBuffer<FlitId> retx_queue;  ///< NACK-triggered resends
    struct PendingDup {
      Cycle earliest = 0;
      FlitId id = 0;
    };
    /// Mode-2 proactive duplicates; allocated on the port's first one.
    RingBuffer<PendingDup> dup_queue;
    std::uint64_t next_lsn = 0;        ///< link sequence stamp for new flits
    int sa_rr = 0;                     ///< round-robin pointer for SA
    int va_rr = 0;                     ///< rotating start for output-VC scan
  };

  /// Receiver-side ARQ bookkeeping for one input port: the link delivers a
  /// single in-order stream (go-back-N), so one expected sequence number is
  /// the whole state.
  struct InputArq {
    std::uint64_t expected_lsn = 0;
  };

  /// A link-level ACK/NACK produced by receive, pushed by the same visit's
  /// execute (see execute()).
  struct PendingAck {
    DelayLine<AckMsg>* lane;
    AckMsg msg;
  };

  // -- receive-side helpers --
  void handle_incoming_flit(Cycle now, Port in_port, Flit flit);
  void accept_flit(Port in_port, Flit&& flit);
  void handle_ack(Port out_port, const AckMsg& ack);
  void send_link_response(Cycle now, Port in_port, FlitId id, VcId vc, bool nack);

  // -- execute-side stages --
  void stage_link_resend(Cycle now);  ///< NACK retx + mode-2 duplicates
  void stage_switch_allocation(Cycle now);
  void stage_vc_allocation();
  void stage_route_computation(Cycle now);

  /// Drops the flit at the front of (in, v) plus everything behind it up to
  /// (not including) the next head flit — i.e. one worm, or the headless
  /// remainder of one. Counts counters_.fault_drops; when `return_credits`,
  /// pushes a buffer credit upstream per dropped flit (skipped when the
  /// reverse lane is dead); records identities into `lost` when non-null.
  void drop_leading_worm(Cycle now, Port in, VcId v, InputVc& iv,
                         bool return_credits, std::vector<LostFlit>* lost);

  /// Places `flit` on the wire through `out_port`, applying the current
  /// mode's ECC encode / retention / stall / duplicate policy.
  /// `is_copy` marks link-level re-sends and duplicates (retention entry
  /// already exists). Updates port busy time.
  void transmit(Cycle now, Port out_port, Flit flit, bool is_copy);

  ArqRetention* find_retention(Port p, FlitId id);
  void erase_retention(Port p, FlitId id);
  void drop_queued_copies(Port p, FlitId id);

  bool ecc_enabled() const noexcept { return mode_ != OpMode::kMode0; }

  // -- bitmask datapath maintenance (DESIGN.md §5) --
  //
  // Packed occupancy words let the execute stages iterate only the input VCs
  // that can make progress (via countr_zero) instead of scanning all
  // ports x VCs. Input-VC words use bit (port_index * vcs_per_port + v);
  // per-output-port words use bit v. Every mutation of the underlying state
  // goes through the helpers below so the words never drift from the live
  // FIFO/state/credit/allocation data they summarize; the NetworkAuditor
  // re-derives all of them from scratch each audited cycle (invariant 7).

  static constexpr std::uint64_t bit64(unsigned b) noexcept {
    return std::uint64_t{1} << b;
  }
  unsigned ivc_bit(std::size_t in_pi, std::size_t v) const noexcept {
    return static_cast<unsigned>(in_pi * static_cast<std::size_t>(vcs_) + v);
  }
  /// All input-VC-word bits belonging to one input port.
  std::uint64_t port_bits(std::size_t in_pi) const noexcept {
    return ((bit64(static_cast<unsigned>(vcs_))) - 1)
           << (in_pi * static_cast<std::size_t>(vcs_));
  }
  void mask_mark_nonempty(unsigned b) noexcept { occ_mask_ |= bit64(b); }
  void mask_update_occupancy(unsigned b, const InputVc& iv) noexcept {
    if (iv.fifo.empty())
      occ_mask_ &= ~bit64(b);
    else
      occ_mask_ |= bit64(b);
  }
  /// The single state-transition point: updates the state masks (and the
  /// per-output active word, which needs iv.out_port) alongside iv.state.
  /// Callers must not change iv.out_port between entering and leaving
  /// kActive without going through here.
  void mask_set_state(unsigned b, InputVc& iv, InputVc::State s) noexcept {
    const std::uint64_t m = bit64(b);
    if (iv.state == InputVc::State::kActive) {
      active_mask_ &= ~m;
      active_to_[port_index(iv.out_port)] &= ~m;
    } else if (iv.state == InputVc::State::kWaitVc) {
      waitvc_mask_ &= ~m;
    }
    iv.state = s;
    if (s == InputVc::State::kActive) {
      active_mask_ |= m;
      active_to_[port_index(iv.out_port)] |= m;
    } else if (s == InputVc::State::kWaitVc) {
      waitvc_mask_ |= m;
    }
  }
  void mask_credit(std::size_t out_pi, std::size_t v, int credits) noexcept {
    if (credits > 0)
      credit_mask_[out_pi] |= bit64(static_cast<unsigned>(v));
    else
      credit_mask_[out_pi] &= ~bit64(static_cast<unsigned>(v));
  }
  void mask_alloc(std::size_t out_pi, std::size_t v, bool allocated) noexcept {
    if (allocated)
      free_vc_mask_[out_pi] &= ~bit64(static_cast<unsigned>(v));
    else
      free_vc_mask_[out_pi] |= bit64(static_cast<unsigned>(v));
  }
  /// Re-derives output port `pi`'s bits of the ARQ port words after a
  /// removal from its retention ring or resend queues (additions set the
  /// bit directly).
  void arq_sync(std::size_t pi) noexcept {
    const auto m = static_cast<std::uint8_t>(1u << pi);
    const OutputPort& op = output_[pi];
    retained_ports_ = static_cast<std::uint8_t>(
        op.retention.empty() ? retained_ports_ & ~m : retained_ports_ | m);
    resend_ports_ = static_cast<std::uint8_t>(
        op.retx_queue.empty() && op.dup_queue.empty() ? resend_ports_ & ~m
                                                      : resend_ports_ | m);
  }

  /// The invariant auditor cross-checks buffer occupancy, credit balance and
  /// ARQ bookkeeping against the rest of the network (see noc/audit.h).
  friend class NetworkAuditor;
  /// Auditor tests corrupt private state through this (defined only there)
  /// to prove each invariant trips.
  friend struct RouterTestPeer;

  InputVc& ivc(Port p, VcId v) {
    return input_[ivc_bit(port_index(p), static_cast<std::size_t>(v))];
  }

  NodeId id_;
  const NocConfig* cfg_;
  Network* net_;
  StepEffects* fx_ = nullptr;   ///< shard staging buffer (never null in step)
  TraceStage* trace_ = nullptr; ///< shard trace sink; null = tracing off
  /// Bound link endpoints by port index (see bind_links): in_ch_[Local] is
  /// the injection channel, out_ch_[Local] the ejection channel.
  std::array<ChannelPair*, kNumPorts> in_ch_{};
  std::array<ChannelPair*, kNumPorts> out_ch_{};
  const LaneBytes* lanes_ = nullptr;  ///< this node's lane occupancy bytes
  OpMode mode_ = OpMode::kMode0;
  bool dateline_ = false;  ///< torus DOR: stamp/partition VCs by dateline class

  /// Returns the arena to the aligned operator new it came from.
  struct ArenaFree {
    void operator()(std::byte* block) const noexcept;
  };
  /// Every per-VC structure of the router in one cache-line-aligned block
  /// sized by the NocConfig (kNumPorts x vcs_per_port of each): the input-VC
  /// flit slots, the input-VC descriptors, then the output-VC credit
  /// records that OutputPort::vcs point into.
  std::unique_ptr<std::byte[], ArenaFree> arena_;
  /// Input VCs indexed by ivc_bit (port-major, vcs_per_port per port), in
  /// arena_; their FIFOs are views into its flit slots.
  InputVc* input_ = nullptr;
  std::array<OutputPort, kNumPorts> output_;
  /// Responses of this visit's receive, awaiting the execute push; empty
  /// between steps (auditor invariant 6). Reserved for one per mesh port.
  std::vector<PendingAck> pending_acks_;
  std::array<InputArq, kNumPorts> input_arq_;
  RouterCounters counters_;

  // -- bitmask datapath state (DESIGN.md §5) --
  // kNumPorts * vcs_per_port <= 60 bits (NocConfig caps vcs_per_port at 12),
  // so one 64-bit word covers every input VC. kRouting is transient inside
  // stage_route_computation and never appears in a persistent word.
  int vcs_ = 0;       ///< cached cfg_->vcs_per_port
  int buffered_ = 0;  ///< total flits buffered across all input FIFOs
  std::uint64_t occ_mask_ = 0;     ///< input VC bit set <=> fifo non-empty
  std::uint64_t active_mask_ = 0;  ///< input VC bit set <=> state == kActive
  std::uint64_t waitvc_mask_ = 0;  ///< input VC bit set <=> state == kWaitVc
  std::array<std::uint64_t, kNumPorts> active_to_{};  ///< kActive worms headed to out port
  std::array<std::uint64_t, kNumPorts> credit_mask_{};   ///< out VC bit set <=> credits > 0
  std::array<std::uint64_t, kNumPorts> free_vc_mask_{};  ///< out VC bit set <=> !allocated
  // ARQ port words, bit = port_index (see arq_sync).
  std::uint8_t retained_ports_ = 0;  ///< bit set <=> retention non-empty
  std::uint8_t resend_ports_ = 0;    ///< bit set <=> retx or dup queued
};

}  // namespace rlftnoc
