#include "noc/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>

namespace rlftnoc {
namespace {

TEST(DelayLine, DeliversAfterLatency) {
  DelayLine<int> d(2);
  d.push(10, 42);
  EXPECT_FALSE(d.pop(10).has_value());
  EXPECT_FALSE(d.pop(11).has_value());
  const auto v = d.pop(12);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(d.empty());
}

TEST(DelayLine, FifoOrder) {
  DelayLine<int> d(1);
  d.push(0, 1);
  d.push(0, 2);
  d.push(1, 3);
  EXPECT_EQ(*d.pop(5), 1);
  EXPECT_EQ(*d.pop(5), 2);
  EXPECT_EQ(*d.pop(5), 3);
  EXPECT_FALSE(d.pop(5).has_value());
}

TEST(DelayLine, StretchedEntryBlocksFollowers) {
  // A mode-3 stretched transfer keeps the wire busy: followers pushed after
  // the stretch (the occupancy protocol guarantees this, and push enforces
  // monotone stamps — see test_audit.cpp for the violation death test) wait
  // their own latency but never overtake.
  DelayLine<int> d(1);
  d.push_delayed(0, 1, 5);  // matures at 6
  d.push(6, 2);             // matures at 7, FIFO behind the first
  EXPECT_FALSE(d.pop(5).has_value());
  EXPECT_EQ(*d.pop(6), 1);
  EXPECT_FALSE(d.pop(6).has_value());
  EXPECT_EQ(*d.pop(7), 2);
}

TEST(DelayLine, PushDelayedAddsExtra) {
  DelayLine<int> d(1);
  d.push_delayed(0, 9, 2);
  EXPECT_FALSE(d.pop(2).has_value());
  EXPECT_EQ(*d.pop(3), 9);
}

TEST(DelayLine, SizeTracksEntries) {
  DelayLine<int> d(1);
  EXPECT_EQ(d.size(), 0u);
  d.push(0, 1);
  d.push(0, 2);
  EXPECT_EQ(d.size(), 2u);
  d.pop(10);
  EXPECT_EQ(d.size(), 1u);
}

TEST(DelayLine, MovesValueOut) {
  DelayLine<std::unique_ptr<int>> d(1);
  d.push(0, std::make_unique<int>(7));
  auto v = d.pop(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 7);
}

TEST(DelayLine, BoundByteTracksNonEmptiness) {
  std::uint8_t byte = 0;
  DelayLine<int> d(2);
  d.bind_occupancy(&byte);
  EXPECT_EQ(d.occupancy_byte(), &byte);
  EXPECT_EQ(byte, 0);
  d.push(0, 1);  // push sets the byte
  EXPECT_EQ(byte, 1);
  d.push(0, 2);
  EXPECT_FALSE(d.pop(1).has_value());  // immature entry keeps it set
  EXPECT_EQ(byte, 1);
  EXPECT_EQ(*d.pop(2), 1);  // a pop that leaves an entry keeps it set
  EXPECT_EQ(byte, 1);
  EXPECT_EQ(*d.pop(2), 2);  // the pop that empties the lane clears it
  EXPECT_EQ(byte, 0);
  EXPECT_FALSE(d.pop(9).has_value());
  EXPECT_EQ(byte, 0);
}

TEST(DelayLine, ClearZeroesBoundByte) {
  std::uint8_t byte = 0;
  DelayLine<int> d(1);
  d.bind_occupancy(&byte);
  d.push_delayed(0, 1, 4);
  EXPECT_EQ(byte, 1);
  EXPECT_EQ(d.clear(), 1u);
  EXPECT_EQ(byte, 0);
}

TEST(DelayLine, BindingSyncsByteAndUnbindingStopsWrites) {
  DelayLine<int> d(1);
  d.push(0, 7);
  std::uint8_t byte = 0;
  d.bind_occupancy(&byte);  // binding a non-empty line sets the byte
  EXPECT_EQ(byte, 1);
  d.bind_occupancy(nullptr);
  EXPECT_EQ(d.occupancy_byte(), nullptr);
  EXPECT_EQ(*d.pop(1), 7);  // an unbound line writes no byte
  EXPECT_EQ(byte, 1);
}

TEST(DelayLine, UnboundLineBehavesAsBefore) {
  DelayLine<int> d(1);
  EXPECT_EQ(d.occupancy_byte(), nullptr);
  d.push(0, 1);
  d.push(1, 2);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(*d.pop(1), 1);
  EXPECT_FALSE(d.pop(1).has_value());
  EXPECT_EQ(*d.pop(2), 2);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.clear(), 0u);
}

TEST(DelayLine, SerialBurstSpillsPastTheInlineSlotsInFifoOrder) {
  // Hard-fault teardown can return a burst of credits from serial context,
  // more than the inline slots hold. The overflow spills to the heap and
  // drains back through the inline slots: FIFO order, maturity and the
  // occupancy byte behave exactly as for a short line.
  std::uint8_t byte = 0;
  DelayLine<Credit> d(1);
  d.bind_occupancy(&byte);
  EXPECT_EQ(d.capacity(), kMaxFlitsInFlight);
  constexpr int kBurst = 20;
  for (int i = 0; i < kBurst; ++i) d.push(static_cast<Cycle>(i / 4), Credit{i});
  EXPECT_EQ(d.size(), static_cast<std::size_t>(kBurst));
  EXPECT_GT(d.capacity(), kMaxFlitsInFlight);
  EXPECT_EQ(byte, 1);

  int seen = 0;
  d.for_each([&seen](const Credit& c) { EXPECT_EQ(c.vc, seen++); });
  EXPECT_EQ(seen, kBurst);

  // Entry i matures at i / 4 + 1: each cycle releases exactly its four.
  int next = 0;
  for (Cycle now = 0; now <= kBurst / 4 + 1; ++now) {
    while (const auto c = d.pop(now)) {
      EXPECT_EQ(c->vc, next);
      EXPECT_LE(static_cast<Cycle>(next / 4 + 1), now);
      ++next;
      EXPECT_EQ(byte, d.empty() ? 0 : 1);
    }
    EXPECT_EQ(next, std::min<int>(kBurst, static_cast<int>(now) * 4));
  }
  EXPECT_EQ(next, kBurst);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(byte, 0);

  // A spilled line keeps working as a short one, and clear() empties both
  // parts.
  for (int i = 0; i < 6; ++i) d.push(100, Credit{i});
  EXPECT_EQ(d.clear(), 6u);
  EXPECT_EQ(byte, 0);
  d.push(200, Credit{42});
  EXPECT_EQ(d.pop(201)->vc, 42);
}

TEST(ChannelPair, DefaultLatencies) {
  ChannelPair ch;
  EXPECT_EQ(ch.flits.latency(), 1u);
  EXPECT_EQ(ch.credits.latency(), 1u);
  EXPECT_EQ(ch.acks.latency(), 1u);
}

}  // namespace
}  // namespace rlftnoc
