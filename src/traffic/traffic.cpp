#include "traffic/traffic.h"

#include <array>
#include <bit>

#include "common/check.h"
#include "noc/ni.h"

namespace rlftnoc {

NodeId pattern_destination(TrafficPattern p, NodeId src, const MeshTopology& topo) {
  const int n = topo.num_nodes();
  const Coord c = topo.coord(src);
  switch (p) {
    case TrafficPattern::kTranspose:
      // Meaningful on square meshes; clamp on rectangles.
      return topo.node(c.y % topo.width(), c.x % topo.height());
    case TrafficPattern::kBitComplement: {
      const int bits = std::bit_width(static_cast<unsigned>(n - 1));
      return (~src) & ((1 << bits) - 1) & (n - 1);
    }
    case TrafficPattern::kTornado:
      return topo.node((c.x + topo.width() / 2 - 1 + topo.width()) % topo.width(), c.y);
    case TrafficPattern::kNeighbor:
      return topo.node((c.x + 1) % topo.width(), c.y);
    case TrafficPattern::kBitReverse: {
      const int bits = std::bit_width(static_cast<unsigned>(n - 1));
      int rev = 0;
      for (int i = 0; i < bits; ++i) {
        if (src & (1 << i)) rev |= 1 << (bits - 1 - i);
      }
      return rev % n;
    }
    case TrafficPattern::kShuffle: {
      const int bits = std::bit_width(static_cast<unsigned>(n - 1));
      const int hi = (src >> (bits - 1)) & 1;
      return ((src << 1) | hi) & ((1 << bits) - 1) & (n - 1);
    }
    case TrafficPattern::kUniform:
    case TrafficPattern::kHotspot:
      return kInvalidNode;  // handled by the generator's RNG
  }
  return kInvalidNode;
}

SyntheticTraffic::SyntheticTraffic(const MeshTopology& topo, Options opt,
                                   std::uint64_t seed)
    : topo_(topo), opt_(opt), rng_(seed, "synthetic"),
      name_(spelling(opt.pattern)) {
  if (opt_.pattern == TrafficPattern::kHotspot && opt_.hotspots.empty()) {
    // Default hot nodes: the four central tiles.
    const int cx = topo_.width() / 2;
    const int cy = topo_.height() / 2;
    opt_.hotspots = {topo_.node(cx, cy), topo_.node(cx - 1, cy),
                     topo_.node(cx, cy - 1), topo_.node(cx - 1, cy - 1)};
  }
}

NodeId SyntheticTraffic::pick_destination(NodeId src) {
  switch (opt_.pattern) {
    case TrafficPattern::kUniform: {
      NodeId dst = src;
      while (dst == src)
        dst = static_cast<NodeId>(rng_.next_below(static_cast<std::uint64_t>(topo_.num_nodes())));
      return dst;
    }
    case TrafficPattern::kHotspot: {
      if (rng_.bernoulli(opt_.hotspot_fraction)) {
        const NodeId dst = opt_.hotspots[rng_.next_below(opt_.hotspots.size())];
        if (dst != src) return dst;
      }
      NodeId dst = src;
      while (dst == src)
        dst = static_cast<NodeId>(rng_.next_below(static_cast<std::uint64_t>(topo_.num_nodes())));
      return dst;
    }
    default: {
      const NodeId dst = pattern_destination(opt_.pattern, src, topo_);
      return dst == src ? kInvalidNode : dst;
    }
  }
}

void SyntheticTraffic::tick(Cycle now, std::vector<Packet>& out) {
  if (exhausted()) return;
  const double p = opt_.injection_rate / opt_.packet_len;
  for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
    if (exhausted()) break;
    if (!rng_.bernoulli(p)) continue;
    const NodeId dst = pick_destination(src);
    if (dst == kInvalidNode || dst == src) continue;
    out.push_back(make_packet(next_id_++, src, dst, opt_.packet_len, now, rng_));
    ++generated_;
  }
}

PretrainTraffic::PretrainTraffic(const MeshTopology& topo, std::uint64_t seed,
                                 std::vector<double> rate_levels, Cycle level_period,
                                 int packet_len)
    : topo_(topo),
      rng_(seed, "pretrain"),
      levels_(std::move(rate_levels)),
      period_(level_period),
      packet_len_(packet_len) {
  RLFTNOC_CHECK(!levels_.empty(), "PretrainTraffic: empty rate-level schedule");
}

void PretrainTraffic::tick(Cycle now, std::vector<Packet>& out) {
  const std::size_t level = static_cast<std::size_t>(now / period_) % levels_.size();
  const double p = levels_[level] / packet_len_;
  // Alternate uniform and hotspot halves within each level period so the
  // agents see both flat and spatially concentrated thermal regimes.
  const bool hotspot_half = (now / (period_ / 2)) % 2 == 1;
  const int w = topo_.width();
  const int h = topo_.height();
  const std::array<NodeId, 4> hot = {
      topo_.node(std::min(1, w - 1), std::min(1, h - 1)),
      topo_.node(std::max(w - 2, 0), std::min(1, h - 1)),
      topo_.node(std::min(1, w - 1), std::max(h - 2, 0)),
      topo_.node(std::max(w - 2, 0), std::max(h - 2, 0))};
  for (NodeId src = 0; src < topo_.num_nodes(); ++src) {
    if (!rng_.bernoulli(p)) continue;
    NodeId dst = src;
    if (hotspot_half && rng_.bernoulli(0.45)) {
      dst = hot[rng_.next_below(hot.size())];
      if (dst == src) continue;
    } else {
      while (dst == src)
        dst = static_cast<NodeId>(
            rng_.next_below(static_cast<std::uint64_t>(topo_.num_nodes())));
    }
    out.push_back(make_packet(next_id_++, src, dst, packet_len_, now, rng_));
  }
}

}  // namespace rlftnoc
