// Test-only access to the network's band partition: the determinism tests
// cut the bands wherever they like, every cycle, to show results never
// depend on where the boundaries fall.
#pragma once

#include <vector>

#include "noc/network.h"

namespace rlftnoc {

struct NetworkTestPeer {
  /// Band s becomes [cuts[s], cuts[s+1]) (see Network::set_bands).
  static void set_bands(Network& net, const std::vector<NodeId>& cuts) {
    net.set_bands(cuts);
  }
  /// The current band boundaries, in set_bands form.
  static std::vector<NodeId> bands(const Network& net) {
    std::vector<NodeId> cuts{0};
    for (const Network::Shard& s : net.shards_) cuts.push_back(s.hi);
    return cuts;
  }
};

}  // namespace rlftnoc
