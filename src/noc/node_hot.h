// Per-node hot state read by the phase-parallel stepper's flag scan.
//
// Whether a node has work this cycle is answered from two contiguous SoA
// arrays the Network owns, never by walking routers, NIs or delay lines:
//
//  * one node_hot byte per node, with two bits: router quiescent
//    (Router::quiescent(), itself an OR of packed words) and NI injection
//    idle (NetworkInterface::injection_idle());
//  * one 16-byte LaneBytes block per node, one byte per delay line the node
//    consumes, which each bound DelayLine keeps equal to its own
//    non-emptiness (push sets it, the pop or clear that empties the line
//    clears it — see noc/channel.h).
//
// The router half of the skip predicate is then the quiescent bit plus two
// 8-byte loads, the NI half the idle bit plus two byte loads.
//
// Freshness of the node_hot bits: a node's byte is refreshed (a) at
// construction / rebuild, (b) in the execute dispatch, by each visited
// router / NI right after its own execute, and (c) from serial context
// whenever something other than the node's own phase visits mutates its
// router or NI — packet enqueue, e2e response delivery, hard-fault
// teardown. A *skipped* node's router and NI cannot change between
// refreshes (its visits are their only mutators), so a stale-looking byte is
// still exact. The lane bytes need no refresh: they change with the lanes
// themselves. See DESIGN.md §5, "Parallel stepping & deterministic merge".
// rlftnoc-lint: hot-path (per-cycle step path: R4 bans node-allocating containers and .at())
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rlftnoc {

/// Bit layout of one node's packed hot-state byte.
namespace node_hot {
/// Router holds no state that could produce work on its own
/// (Router::quiescent()).
inline constexpr std::uint8_t kRouterQuiescent = 1u << 0;
/// NI's injection side can produce nothing (NetworkInterface::injection_idle()).
inline constexpr std::uint8_t kNiInjectionIdle = 1u << 1;
}  // namespace node_hot

/// Byte offsets inside one node's LaneBytes, laid out by *consumer*: every
/// byte names a lane this node pops. Mesh-port groups are indexed by
/// port_index (N, S, E, W).
namespace lane_byte {
/// Flits arriving at input port p (the neighbour's outgoing flit lane).
inline constexpr std::size_t kInFlits = 0;
/// Credits returning on this node's own outgoing channel through port p.
inline constexpr std::size_t kOutCredits = 4;
/// ACK/NACKs returning on this node's own outgoing channel through port p.
inline constexpr std::size_t kOutAcks = 8;
/// NI -> router injection flits.
inline constexpr std::size_t kInjFlits = 12;
/// NI -> router ejection-buffer credits.
inline constexpr std::size_t kEjCredits = 13;
/// Router -> NI ejection flits (read by the NI).
inline constexpr std::size_t kEjFlits = 14;
/// Router -> NI injection-buffer credits (read by the NI).
inline constexpr std::size_t kInjCredits = 15;
inline constexpr std::size_t kCount = 16;
}  // namespace lane_byte

/// One node's lane occupancy bytes (see lane_byte for the layout).
struct alignas(16) LaneBytes {
  std::array<std::uint8_t, lane_byte::kCount> b{};

  /// True when any lane the router reads (bytes 0-13) holds an entry.
  bool router_busy() const noexcept {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::memcpy(&lo, b.data(), sizeof lo);
    std::memcpy(&hi, b.data() + sizeof lo, sizeof hi);
    return (lo | (hi & kRouterHiMask)) != 0;
  }
  /// True when any lane the NI reads (bytes 14-15) holds an entry.
  bool ni_busy() const noexcept {
    return (b[lane_byte::kEjFlits] | b[lane_byte::kInjCredits]) != 0;
  }

 private:
  /// Bytes 8-13 of the block within the upper 8-byte load, for either byte
  /// order.
  static constexpr std::uint64_t kRouterHiMask = std::bit_cast<std::uint64_t>(
      std::array<std::uint8_t, 8>{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0});
};

}  // namespace rlftnoc
