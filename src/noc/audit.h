// Runtime invariant auditor for the NoC core.
//
// A cycle-accurate fault-tolerance study lives or dies on conservation
// properties: the fault injector may flip payload bits, but no flit may ever
// be created or destroyed outside the accounted paths, no credit may be
// minted or leaked, and the ARQ bookkeeping must stay internally consistent.
// The NetworkAuditor cross-checks those properties over a *quiescent*
// Network — i.e. between `Network::step()` calls, when every delay line,
// buffer and counter is settled for the cycle.
//
// The audited invariant set (see DESIGN.md, "Invariant audit"):
//
//  1. Flit conservation. Flit instances are created only by source NIs
//     (`flits_sent`, covering fresh and end-to-end-retransmitted packets)
//     and by the link layer (`hop_retransmissions` + `preretx_duplicates`);
//     they are destroyed only by ejection (`flits_ejected`), by NACK
//     rejection (`nacks_sent`), or by duplicate discard (`dup_discards`).
//     Created == destroyed + alive, where alive spans every channel delay
//     line and every input VC buffer.
//  2. Credit balance. The injection and ejection channels carry no ARQ, so
//     their credit loops close exactly every cycle:
//     NI credits + credits in flight + flits on the wire + downstream
//     occupancy == buffer depth. Mesh channels additionally hold ARQ state
//     (rejected copies awaiting resend absorb slots invisibly), so the audit
//     enforces the sound bound credits + in-flight + occupancy <= depth every
//     cycle and the exact equality whenever the port is ARQ-quiescent.
//  3. VC depth bounds: no input VC FIFO ever exceeds its configured depth —
//     the credit protocol's whole purpose.
//  4. ARQ consistency: retention fits its configured depth, retained flit
//     ids are unique and held in ascending link sequence number (send
//     order), every queued resend points at a retention entry that
//     knows it is queued (and vice versa), every pending duplicate points at
//     a live retention entry, and link sequence numbers never run ahead of
//     the sender's stamp counter.
//  5. Switch-allocation structure: an output VC is marked allocated iff
//     exactly one active input VC claims it.
//  6. Parallel staging: the shard partition is contiguous, ascending and
//     covers [0, num_nodes) exactly; every router and NI is bound to the
//     staging buffer (and trace stage) of the shard that owns it; and all
//     staging buffers are empty between steps — a non-empty buffer means a
//     staged effect escaped the canonical merge. Likewise every router's
//     pending-ACK list is empty: receive's link responses must be pushed by
//     the same visit's execute. Every live lane is bound to its consumer's
//     occupancy byte and the byte equals the lane's non-emptiness; absent
//     and dead lanes are unbound with a 0 byte; every router's and NI's
//     bound endpoints equal the live channels of its ports, so a killed
//     link is null on both sides. A network that sleeps (its wake stamp
//     lies in the future) has no node with work.
//  7. Bitmask datapath consistency: every packed word the router's execute
//     stages iterate (input-VC occupancy / state masks, per-output active
//     words, credit-available and free-VC masks, the ARQ port words, the
//     buffered-flit counter) re-derives exactly from the live FIFO / state /
//     credit / allocation / retention / resend-queue data it summarizes. A
//     drifted word would silently change arbitration or idle-skip.
//  8. Sizing: every live flit lane holds at most kMaxFlitsInFlight entries,
//     the slots its ring starts with (noc/channel.h), so the datapath never
//     grows one. ARQ rings (retention, resend and duplicate queues) hold no
//     memory on the Local port or on a mesh port without a live link —
//     including one whose link was killed — and a live mesh port's
//     retention ring is sized to retention_depth.
//
// Violations are reported with the offending cycle / router / port so a
// failure in a million-cycle campaign points straight at the broken state.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace rlftnoc {

class Network;

/// One violated invariant, located as precisely as the invariant allows.
struct AuditViolation {
  std::string invariant;       ///< short id, e.g. "flit-conservation"
  std::string detail;          ///< human-readable explanation with numbers
  Cycle cycle = 0;             ///< Network::now() when detected
  NodeId node = kInvalidNode;  ///< offending router / NI, when applicable
  Port port = Port::kLocal;    ///< offending port, when `has_port`
  bool has_port = false;

  /// "cycle 1234 router 5 port E: <invariant>: <detail>".
  std::string to_string() const;
};

/// Thrown by NetworkAuditor::check_or_throw on the first violation.
class AuditError : public std::runtime_error {
 public:
  explicit AuditError(AuditViolation v);
  const AuditViolation& violation() const noexcept { return violation_; }

 private:
  AuditViolation violation_;
};

/// Per-cycle conservation checker (SimOptions::audit wires it into the
/// simulation loop; tests drive it directly). Stateless across cycles apart
/// from a pass counter, so one auditor can serve many networks.
class NetworkAuditor {
 public:
  /// Runs every audit over `net`; returns all violations found (empty =
  /// clean). `net` must be quiescent (between step() calls).
  std::vector<AuditViolation> run(const Network& net);

  /// Runs every audit and throws AuditError on the first violation.
  void check_or_throw(const Network& net);

  /// Number of clean passes completed so far.
  std::uint64_t clean_passes() const noexcept { return clean_passes_; }

 private:
  void audit_flit_conservation(const Network& net,
                               std::vector<AuditViolation>& out) const;
  void audit_credit_balance(const Network& net,
                            std::vector<AuditViolation>& out) const;
  void audit_vc_bounds(const Network& net,
                       std::vector<AuditViolation>& out) const;
  void audit_arq_consistency(const Network& net,
                             std::vector<AuditViolation>& out) const;
  void audit_allocation_structure(const Network& net,
                                  std::vector<AuditViolation>& out) const;
  void audit_ni_state(const Network& net,
                      std::vector<AuditViolation>& out) const;
  void audit_parallel_staging(const Network& net,
                              std::vector<AuditViolation>& out) const;
  void audit_mask_consistency(const Network& net,
                              std::vector<AuditViolation>& out) const;
  void audit_sizing(const Network& net, std::vector<AuditViolation>& out) const;

  std::uint64_t clean_passes_ = 0;
};

}  // namespace rlftnoc
