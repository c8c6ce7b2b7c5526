// Hard (permanent) fault descriptions: dead links and dead routers.
//
// These are the non-transient counterpart to LinkFaultInjector's bit-flip
// wire faults: a killed link stops carrying flits, credits and ACKs forever,
// and a killed router additionally drops everything it holds and stops
// injecting/ejecting. Faults are described declaratively (config key
// `hard_faults`, CLI `--kill-link` / `--kill-router`) and applied by
// Network::schedule_hard_faults — either before traffic starts (at_cycle 0)
// or mid-run at a given cycle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace rlftnoc {

/// One permanent fault event.
struct HardFault {
  enum class Kind : std::uint8_t {
    kLink = 0,    ///< the bidirectional link `node <-> neighbor(node, port)`
    kRouter = 1,  ///< router `node`, including all four of its links
  };

  Kind kind = Kind::kLink;
  NodeId node = kInvalidNode;
  Port port = Port::kLocal;  ///< kLink only
  Cycle at_cycle = 0;        ///< 0 = before the first simulated cycle

  friend bool operator==(const HardFault&, const HardFault&) = default;
};

/// Parses a hard-fault list of the form
///
///   "link:NODE:P[@CYCLE], router:NODE[@CYCLE], ..."
///
/// where NODE is a node id, P one of N|S|E|W (case-insensitive), and CYCLE
/// the cycle the fault strikes (omitted = 0, i.e. from the start). Items
/// are separated by commas and/or whitespace; the empty string yields an
/// empty list. Throws std::invalid_argument on malformed specs.
std::vector<HardFault> parse_hard_faults(const std::string& spec);

/// A fault list as the value of option `hard_faults` (common/options.h):
/// parse_hard_faults and its inverse, which joins items with commas.
inline void parse_option(const std::string& text, std::vector<HardFault>& faults) {
  faults = parse_hard_faults(text);
}
std::string format_option(const std::vector<HardFault>& faults);

}  // namespace rlftnoc
