// Test-only access to router internals the public API can never corrupt:
// the auditor tests corrupt state through it to prove each invariant trips,
// and the fault tests inspect the bound link endpoints.
#pragma once

#include <cstdint>

#include "noc/node_hot.h"
#include "noc/router.h"

namespace rlftnoc {

struct RouterTestPeer {
  static RetentionTable& retention(Router& r, Port p) {
    return r.output_[port_index(p)].retention;
  }
  static void stage_response(Router& r, DelayLine<AckMsg>* lane, AckMsg msg) {
    r.pending_acks_.push_back(Router::PendingAck{lane, msg});
  }
  /// The router's bound endpoint slots for port `p`.
  static ChannelPair*& in_link(Router& r, Port p) {
    return r.in_ch_[port_index(p)];
  }
  static ChannelPair*& out_link(Router& r, Port p) {
    return r.out_ch_[port_index(p)];
  }
  /// The node's lane occupancy bytes, writable (the router only reads them).
  static std::uint8_t* lane_bytes(Router& r) {
    return const_cast<LaneBytes*>(r.lanes_)->b.data();
  }
  static std::uint8_t& resend_ports(Router& r) { return r.resend_ports_; }
  /// The staging buffer of the router's shard.
  static StepEffects& effects(Router& r) { return *r.fx_; }
};

}  // namespace rlftnoc
