// Fundamental vocabulary types shared by every rlftnoc module.
//
// The simulator is cycle driven; `Cycle` counts router clock ticks at the
// nominal 2.0 GHz operating point from Table II of the paper. Identifiers are
// strong-ish typedefs (distinct names, common underlying integer types) so
// call sites document what they pass around.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace rlftnoc {

/// Simulation time in router clock cycles.
using Cycle = std::uint64_t;

/// Sentinel for "no cycle recorded yet".
inline constexpr Cycle kInvalidCycle = std::numeric_limits<Cycle>::max();

/// Linear index of a network node (router / network interface pair).
using NodeId = std::int32_t;

/// Sentinel node id.
inline constexpr NodeId kInvalidNode = -1;

/// Monotonically increasing packet identifier, unique per simulation.
using PacketId = std::uint64_t;

/// Virtual-channel index within one input port.
using VcId = std::int32_t;

inline constexpr VcId kInvalidVc = -1;

/// The five router ports of a 2D-mesh router (Fig. 1 of the paper).
enum class Port : std::uint8_t {
  kNorth = 0,
  kSouth = 1,
  kEast = 2,
  kWest = 3,
  kLocal = 4,
};

/// Number of ports on a mesh router.
inline constexpr std::size_t kNumPorts = 5;

/// All ports, for range-for iteration.
inline constexpr std::array<Port, kNumPorts> kAllPorts = {
    Port::kNorth, Port::kSouth, Port::kEast, Port::kWest, Port::kLocal};

/// The four inter-router ports (everything but Local).
inline constexpr std::array<Port, 4> kMeshPorts = {
    Port::kNorth, Port::kSouth, Port::kEast, Port::kWest};

/// Index of a port for array subscripting.
constexpr std::size_t port_index(Port p) noexcept {
  return static_cast<std::size_t>(p);
}

/// The port a flit leaving through `p` arrives on at the neighbour router.
constexpr Port opposite(Port p) noexcept {
  switch (p) {
    case Port::kNorth: return Port::kSouth;
    case Port::kSouth: return Port::kNorth;
    case Port::kEast: return Port::kWest;
    case Port::kWest: return Port::kEast;
    case Port::kLocal: return Port::kLocal;
  }
  return Port::kLocal;
}

/// Human-readable port name (for logs and stats).
inline const char* port_name(Port p) noexcept {
  switch (p) {
    case Port::kNorth: return "N";
    case Port::kSouth: return "S";
    case Port::kEast: return "E";
    case Port::kWest: return "W";
    case Port::kLocal: return "L";
  }
  return "?";
}

/// Integer coordinates of a node in the 2D mesh.
struct Coord {
  std::int32_t x = 0;
  std::int32_t y = 0;

  friend constexpr bool operator==(const Coord&, const Coord&) = default;
};

/// The four fault-tolerant operation modes of Section III.
///
/// Mode 0: ECC links disabled (minimum error level).
/// Mode 1: downstream ECC link enabled (low error level).
/// Mode 2: ECC links enabled + flit pre-retransmission (medium error level).
/// Mode 3: ECC links enabled + 2-cycle relaxed-timing stall (high error level).
enum class OpMode : std::uint8_t {
  kMode0 = 0,
  kMode1 = 1,
  kMode2 = 2,
  kMode3 = 3,
};

/// Number of fault-tolerant operation modes (the RL action-space size).
inline constexpr std::size_t kNumOpModes = 4;

inline const char* op_mode_name(OpMode m) noexcept {
  switch (m) {
    case OpMode::kMode0: return "mode0-ecc-off";
    case OpMode::kMode1: return "mode1-ecc-on";
    case OpMode::kMode2: return "mode2-preretx";
    case OpMode::kMode3: return "mode3-relaxed";
  }
  return "?";
}

/// Routing algorithm (see noc/routing.h for the implementations).
enum class RoutingAlgorithm : std::uint8_t {
  kXY = 0,        ///< dimension-ordered, X first (Table II default)
  kYX = 1,        ///< dimension-ordered, Y first
  kWestFirst = 2, ///< turn model: westward hops first, then adaptive E/N/S
  kAdaptive = 3,  ///< fault-adaptive up*/down* (deadlock-free on any
                  ///< connected alive subgraph; see noc/routing.h)
};

/// Network topology shape (see noc/topology.h).
enum class TopologyKind : std::uint8_t {
  kMesh = 0,   ///< 2D mesh, open edges (the paper's Table II substrate)
  kTorus = 1,  ///< 2D torus: mesh plus wrap-around links in both dimensions
};

/// Which fault-tolerance policy governs the network.
enum class PolicyKind : std::uint8_t {
  kStaticCrc = 0,   ///< end-to-end CRC only, source retransmission (baseline)
  kStaticArqEcc = 1,///< per-hop ARQ+ECC always on
  kDecisionTree = 2,///< DT-predicted error level selects the mode (MICRO-16)
  kRl = 3,          ///< per-router tabular Q-learning (this paper)
  kOracle = 4,      ///< reference: classify the true error probability
};

/// An enum value and its config spelling. `display`, when set, is the name
/// results print (also accepted when parsing).
template <class E>
struct Spelling {
  E value;
  const char* name;
  const char* display = nullptr;
};

/// The one spelling table of a config enum: parse_spelling and spelling
/// read it, so parsing and printing cannot disagree.
template <class E>
inline constexpr Spelling<E> kSpellings[] = {};
template <>
inline constexpr Spelling<RoutingAlgorithm> kSpellings<RoutingAlgorithm>[] = {
    {RoutingAlgorithm::kXY, "xy"},
    {RoutingAlgorithm::kYX, "yx"},
    {RoutingAlgorithm::kWestFirst, "westfirst"},
    {RoutingAlgorithm::kAdaptive, "adaptive"}};
template <>
inline constexpr Spelling<TopologyKind> kSpellings<TopologyKind>[] = {
    {TopologyKind::kMesh, "mesh"}, {TopologyKind::kTorus, "torus"}};
template <>
inline constexpr Spelling<PolicyKind> kSpellings<PolicyKind>[] = {
    {PolicyKind::kStaticCrc, "crc", "CRC"},
    {PolicyKind::kStaticArqEcc, "arq", "ARQ+ECC"},
    {PolicyKind::kDecisionTree, "dt", "DT"},
    {PolicyKind::kRl, "rl", "RL"},
    {PolicyKind::kOracle, "oracle", "Oracle"}};

/// `value`'s config spelling, or its display name when `display` is set
/// and it has one.
template <class E>
const char* spelling(E value, bool display = false) noexcept {
  for (const Spelling<E>& s : kSpellings<E>) {
    if (s.value == value) return display && s.display ? s.display : s.name;
  }
  return "?";
}

/// The value spelled `text` (its config spelling or display name).
template <class E>
std::optional<E> parse_spelling(std::string_view text) noexcept {
  for (const Spelling<E>& s : kSpellings<E>) {
    if (text == s.name || (s.display && text == s.display)) return s.value;
  }
  return std::nullopt;
}

/// Every config spelling of E, as "a|b|c".
template <class E>
std::string spelling_choices() {
  std::string out;
  for (const Spelling<E>& s : kSpellings<E>) (out += out.empty() ? "" : "|") += s.name;
  return out;
}

/// The display name results and tables print ("ARQ+ECC", "RL", ...).
inline const char* policy_name(PolicyKind k) noexcept {
  return spelling(k, true);
}

}  // namespace rlftnoc
