// Traffic generation interfaces and the classic synthetic patterns.
//
// A TrafficGenerator is polled once per cycle and emits the packets created
// that cycle; the simulation driver enqueues them at the source NIs. All
// generators are deterministic given their seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "noc/flit.h"
#include "noc/topology.h"

namespace rlftnoc {

/// Pull-based packet source.
class TrafficGenerator {
 public:
  virtual ~TrafficGenerator() = default;

  /// Appends the packets created at cycle `now` to `out`.
  virtual void tick(Cycle now, std::vector<Packet>& out) = 0;

  /// True once the generator will never produce another packet.
  virtual bool exhausted() const = 0;

  /// Human-readable label for reports.
  virtual const std::string& name() const = 0;
};

/// Destination-selection patterns from the NoC literature.
enum class TrafficPattern : std::uint8_t {
  kUniform = 0,      ///< uniform random over all other nodes
  kTranspose,        ///< (x,y) -> (y,x)
  kBitComplement,    ///< id -> ~id (within node-count bits)
  kTornado,          ///< (x,y) -> (x + W/2 - 1 mod W, y)
  kNeighbor,         ///< (x,y) -> (x+1 mod W, y)
  kBitReverse,       ///< id -> bit-reversed id
  kShuffle,          ///< id -> rotate-left-1 id
  kHotspot,          ///< uniform, but a fraction targets a few hot nodes
};

template <>
inline constexpr Spelling<TrafficPattern> kSpellings<TrafficPattern>[] = {
    {TrafficPattern::kUniform, "uniform"},
    {TrafficPattern::kTranspose, "transpose"},
    {TrafficPattern::kBitComplement, "bitcomplement"},
    {TrafficPattern::kTornado, "tornado"},
    {TrafficPattern::kNeighbor, "neighbor"},
    {TrafficPattern::kBitReverse, "bitreverse"},
    {TrafficPattern::kShuffle, "shuffle"},
    {TrafficPattern::kHotspot, "hotspot"}};

/// Resolves the destination for `src` under a pattern (hotspot handled by
/// the generator itself since it needs randomness).
NodeId pattern_destination(TrafficPattern p, NodeId src, const MeshTopology& topo);

/// Open-loop Bernoulli injection of a synthetic pattern.
///
/// `injection_rate` is in flits/node/cycle (the usual NoC convention);
/// each node independently creates a packet with probability
/// rate / packet_len each cycle until the packet budget is spent.
class SyntheticTraffic final : public TrafficGenerator {
 public:
  struct Options {
    TrafficPattern pattern = TrafficPattern::kUniform;
    double injection_rate = 0.05;  ///< flits/node/cycle
    int packet_len = 4;
    std::uint64_t total_packets = 50000;  ///< budget; 0 = unlimited
    double hotspot_fraction = 0.2;        ///< for kHotspot
    std::vector<NodeId> hotspots;         ///< defaults to the mesh center
  };

  SyntheticTraffic(const MeshTopology& topo, Options opt, std::uint64_t seed);

  void tick(Cycle now, std::vector<Packet>& out) override;
  bool exhausted() const override {
    return opt_.total_packets != 0 && generated_ >= opt_.total_packets;
  }
  const std::string& name() const override { return name_; }

  std::uint64_t generated() const noexcept { return generated_; }

 private:
  NodeId pick_destination(NodeId src);

  MeshTopology topo_;
  Options opt_;
  Rng rng_;
  std::string name_;
  std::uint64_t generated_ = 0;
  PacketId next_id_ = 1;
};

/// Pre-training traffic for the learning policies: uniform random traffic
/// whose injection rate cycles through several levels so agents visit low-,
/// medium- and high-pressure regions of the state space (the paper
/// pre-trains for 1M cycles "using synthetic traffic").
class PretrainTraffic final : public TrafficGenerator {
 public:
  PretrainTraffic(const MeshTopology& topo, std::uint64_t seed,
                  std::vector<double> rate_levels = {0.02, 0.04, 0.07, 0.10},
                  Cycle level_period = 20000, int packet_len = 4);

  void tick(Cycle now, std::vector<Packet>& out) override;
  bool exhausted() const override { return false; }  // runs as long as asked
  const std::string& name() const override { return name_; }

 private:
  MeshTopology topo_;
  Rng rng_;
  std::vector<double> levels_;
  Cycle period_;
  int packet_len_;
  std::string name_ = "pretrain";
  PacketId next_id_ = 0x100000000ULL;  ///< distinct id space from test traffic
};

}  // namespace rlftnoc
