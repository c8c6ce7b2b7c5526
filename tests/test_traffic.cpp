#include <gtest/gtest.h>

#include <stdexcept>

#include "coding/crc.h"
#include "noc/ni.h"
#include "traffic/parsec.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

const MeshTopology kTopo(8, 8);

TEST(Patterns, TransposeIsInvolution) {
  for (NodeId n = 0; n < kTopo.num_nodes(); ++n) {
    const NodeId d = pattern_destination(TrafficPattern::kTranspose, n, kTopo);
    EXPECT_EQ(pattern_destination(TrafficPattern::kTranspose, d, kTopo), n);
  }
}

TEST(Patterns, BitComplementIsInvolution) {
  for (NodeId n = 0; n < kTopo.num_nodes(); ++n) {
    const NodeId d = pattern_destination(TrafficPattern::kBitComplement, n, kTopo);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, kTopo.num_nodes());
    EXPECT_EQ(pattern_destination(TrafficPattern::kBitComplement, d, kTopo), n);
  }
}

TEST(Patterns, TornadoHalfWidthShift) {
  const NodeId d = pattern_destination(TrafficPattern::kTornado, kTopo.node(0, 3), kTopo);
  EXPECT_EQ(d, kTopo.node(3, 3));
}

TEST(Patterns, NeighborWraps) {
  EXPECT_EQ(pattern_destination(TrafficPattern::kNeighbor, kTopo.node(7, 2), kTopo),
            kTopo.node(0, 2));
}

TEST(Patterns, BitReverseStaysInRange) {
  for (NodeId n = 0; n < kTopo.num_nodes(); ++n) {
    const NodeId d = pattern_destination(TrafficPattern::kBitReverse, n, kTopo);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, kTopo.num_nodes());
  }
}

TEST(Patterns, NamesAreDistinct) {
  EXPECT_STRNE(spelling(TrafficPattern::kUniform),
               spelling(TrafficPattern::kTornado));
}

TEST(SyntheticTraffic, RespectsPacketBudget) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.5;
  o.total_packets = 100;
  SyntheticTraffic gen(kTopo, o, 1);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 1000 && !gen.exhausted(); ++t) gen.tick(t, out);
  EXPECT_TRUE(gen.exhausted());
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(gen.generated(), 100u);
}

TEST(SyntheticTraffic, InjectionRateApproximatelyMet) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.08;
  o.packet_len = 4;
  o.total_packets = 0;  // unlimited
  SyntheticTraffic gen(kTopo, o, 2);
  std::vector<Packet> out;
  const Cycle cycles = 20000;
  for (Cycle t = 0; t < cycles; ++t) gen.tick(t, out);
  std::uint64_t flits = 0;
  for (const Packet& p : out) flits += p.flits.size();
  const double rate = static_cast<double>(flits) / cycles / kTopo.num_nodes();
  EXPECT_NEAR(rate, 0.08, 0.008);
}

TEST(SyntheticTraffic, NoSelfPackets) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.3;
  o.total_packets = 2000;
  SyntheticTraffic gen(kTopo, o, 3);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 2000 && !gen.exhausted(); ++t) gen.tick(t, out);
  for (const Packet& p : out) EXPECT_NE(p.src, p.dst);
}

TEST(SyntheticTraffic, HotspotConcentratesTraffic) {
  SyntheticTraffic::Options o;
  o.pattern = TrafficPattern::kHotspot;
  o.injection_rate = 0.2;
  o.hotspot_fraction = 0.5;
  o.total_packets = 5000;
  SyntheticTraffic gen(kTopo, o, 4);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 10000 && !gen.exhausted(); ++t) gen.tick(t, out);
  std::uint64_t to_hot = 0;
  const auto hot = std::vector<NodeId>{kTopo.node(4, 4), kTopo.node(3, 4),
                                       kTopo.node(4, 3), kTopo.node(3, 3)};
  for (const Packet& p : out) {
    for (const NodeId h : hot) {
      if (p.dst == h) {
        ++to_hot;
        break;
      }
    }
  }
  // Expect far above the uniform share (4/64) of packets at the hot nodes.
  EXPECT_GT(static_cast<double>(to_hot) / static_cast<double>(out.size()), 0.3);
}

TEST(SyntheticTraffic, DeterministicBySeed) {
  SyntheticTraffic::Options o;
  o.injection_rate = 0.1;
  o.total_packets = 200;
  SyntheticTraffic a(kTopo, o, 5);
  SyntheticTraffic b(kTopo, o, 5);
  std::vector<Packet> va;
  std::vector<Packet> vb;
  for (Cycle t = 0; t < 1000; ++t) {
    a.tick(t, va);
    b.tick(t, vb);
  }
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].src, vb[i].src);
    EXPECT_EQ(va[i].dst, vb[i].dst);
    EXPECT_EQ(va[i].inject_cycle, vb[i].inject_cycle);
  }
}

TEST(Parsec, SuiteHasEightDistinctBenchmarks) {
  const auto& suite = parsec_suite();
  EXPECT_EQ(suite.size(), 8u);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (std::size_t j = i + 1; j < suite.size(); ++j) {
      EXPECT_NE(suite[i].name, suite[j].name);
    }
  }
}

TEST(Parsec, LookupByName) {
  EXPECT_EQ(parsec_profile("canneal").name, "canneal");
  EXPECT_THROW(parsec_profile("doom"), std::invalid_argument);
}

TEST(Parsec, MeanRateApproximatelyMet) {
  ParsecProfile prof = parsec_profile("ferret");
  prof.total_packets = 0xFFFFFFFF;  // effectively unlimited
  ParsecTraffic gen(kTopo, prof, 6);
  std::vector<Packet> out;
  const Cycle cycles = 60000;
  for (Cycle t = 0; t < cycles; ++t) gen.tick(t, out);
  std::uint64_t flits = 0;
  for (const Packet& p : out) flits += p.flits.size();
  const double rate = static_cast<double>(flits) / cycles / kTopo.num_nodes();
  EXPECT_NEAR(rate, prof.injection_rate, prof.injection_rate * 0.25);
}

TEST(Parsec, McTrafficConcentration) {
  ParsecProfile prof = parsec_profile("canneal");
  prof.total_packets = 20000;
  ParsecTraffic gen(kTopo, prof, 7);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 100000 && !gen.exhausted(); ++t) gen.tick(t, out);
  const auto mcs = default_mc_nodes(kTopo);
  std::uint64_t to_mc = 0;
  for (const Packet& p : out) {
    for (const NodeId mc : mcs) {
      if (p.dst == mc) {
        ++to_mc;
        break;
      }
    }
  }
  const double frac = static_cast<double>(to_mc) / static_cast<double>(out.size());
  EXPECT_GT(frac, prof.mc_fraction * 0.8);
}

TEST(Parsec, MixedPacketLengths) {
  ParsecProfile prof = parsec_profile("dedup");
  prof.total_packets = 5000;
  ParsecTraffic gen(kTopo, prof, 8);
  std::vector<Packet> out;
  for (Cycle t = 0; t < 100000 && !gen.exhausted(); ++t) gen.tick(t, out);
  std::uint64_t shorts = 0;
  for (const Packet& p : out) {
    ASSERT_TRUE(p.flits.size() == 1 ||
                p.flits.size() == static_cast<std::size_t>(prof.data_packet_len));
    if (p.flits.size() == 1) ++shorts;
  }
  EXPECT_NEAR(static_cast<double>(shorts) / static_cast<double>(out.size()),
              prof.short_packet_fraction, 0.05);
}

TEST(MakePacket, FlitStructure) {
  Rng rng(1);
  const Packet p = make_packet(7, 2, 9, 4, 100, rng);
  ASSERT_EQ(p.flits.size(), 4u);
  EXPECT_EQ(p.flits[0].type, FlitType::kHead);
  EXPECT_EQ(p.flits[1].type, FlitType::kBody);
  EXPECT_EQ(p.flits[2].type, FlitType::kBody);
  EXPECT_EQ(p.flits[3].type, FlitType::kTail);
  for (const Flit& f : p.flits) {
    EXPECT_EQ(f.packet_id, 7u);
    EXPECT_EQ(f.src, 2);
    EXPECT_EQ(f.dst, 9);
    EXPECT_EQ(f.packet_len, 4u);
    EXPECT_EQ(f.packet_inject_cycle, 100u);
    EXPECT_EQ(f.crc, default_crc32().compute(f.payload));
  }
  const Packet single = make_packet(8, 0, 1, 1, 0, rng);
  EXPECT_EQ(single.flits[0].type, FlitType::kHeadTail);
}

TEST(MakePacket, LengthBoundedByFlitHeaderWidth) {
  // Flit::seq and Flit::packet_len are 16-bit: the longest packet still
  // numbers its last flit exactly, one flit more is refused, not wrapped.
  Rng rng(1);
  const Packet longest = make_packet(9, 0, 1, kMaxPacketFlits, 0, rng);
  ASSERT_EQ(longest.flits.size(), static_cast<std::size_t>(kMaxPacketFlits));
  EXPECT_EQ(longest.flits.back().seq, kMaxPacketFlits - 1);
  EXPECT_EQ(longest.flits.back().packet_len, kMaxPacketFlits);
  EXPECT_THROW(make_packet(10, 0, 1, kMaxPacketFlits + 1, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(make_packet(11, 0, 1, 0, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace rlftnoc
