#include "common/ring_buffer.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "noc/retention.h"

namespace rlftnoc {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb;
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 0u);
}

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> rb;
  for (int i = 0; i < 5; ++i) rb.push_back(i);
  EXPECT_EQ(rb.size(), 5u);
  EXPECT_EQ(rb.front(), 0);
  EXPECT_EQ(rb.back(), 4);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WraparoundMatchesDequeReference) {
  // Long interleaved push/pop churn with a bounded occupancy forces the
  // head index to wrap the backing store many times.
  RingBuffer<std::uint64_t> rb;
  std::deque<std::uint64_t> ref;
  Rng rng(7, "ring");
  for (int step = 0; step < 20000; ++step) {
    const bool push = ref.empty() || (ref.size() < 6 && rng.next_u64() % 2);
    if (push) {
      const std::uint64_t v = rng.next_u64();
      rb.push_back(v);
      ref.push_back(v);
    } else {
      ASSERT_EQ(rb.front(), ref.front());
      rb.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(rb.size(), ref.size());
  }
  // Capacity settled at the high-water mark: bounded churn never grows past
  // the first doubling that covers it.
  EXPECT_LE(rb.capacity(), 8u);
}

TEST(RingBuffer, FirstCapacityThenDoublingAndRelease) {
  // A ring whose user knows its bound starts there (the delay lines start
  // at kMaxFlitsInFlight) and still doubles past it; release() frees it.
  RingBuffer<int, 4> rb;
  rb.push_back(0);
  EXPECT_EQ(rb.capacity(), 4u);
  for (int i = 1; i < 5; ++i) rb.push_back(i);
  EXPECT_EQ(rb.capacity(), 8u);
  EXPECT_EQ(rb.front(), 0);
  EXPECT_EQ(rb.back(), 4);
  rb.release();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.capacity(), 0u);
  rb.push_back(7);
  EXPECT_EQ(rb.capacity(), 4u);
  EXPECT_EQ(rb.front(), 7);
}

TEST(RingBuffer, GrowthPreservesOrderAcrossWrap) {
  RingBuffer<int> rb;
  // Misalign head so the pre-growth contents straddle the wrap point.
  for (int i = 0; i < 6; ++i) rb.push_back(-1);
  for (int i = 0; i < 6; ++i) rb.pop_front();
  for (int i = 0; i < 40; ++i) rb.push_back(i);  // forces several doublings
  ASSERT_EQ(rb.size(), 40u);
  EXPECT_EQ(rb.capacity(), 64u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
}

TEST(RingBuffer, PushFrontPrepends) {
  RingBuffer<int> rb;
  rb.push_back(2);
  rb.push_back(3);
  rb.push_front(1);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb[0], 1);
  EXPECT_EQ(rb[1], 2);
  EXPECT_EQ(rb[2], 3);
  // push_front at full capacity must grow correctly too.
  RingBuffer<int> tight;
  for (int i = 0; i < 8; ++i) tight.push_back(i);
  tight.push_front(-1);
  EXPECT_EQ(tight.size(), 9u);
  EXPECT_EQ(tight.front(), -1);
  EXPECT_EQ(tight.back(), 7);
}

TEST(RingBuffer, MoveOnlyPayloads) {
  RingBuffer<std::unique_ptr<int>> rb;
  for (int i = 0; i < 20; ++i) rb.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 20; ++i) {
    std::unique_ptr<int> p = std::move(rb.front());
    rb.pop_front();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
}

TEST(RingBuffer, ForEachVisitsOldestFirst) {
  RingBuffer<int> rb;
  for (int i = 0; i < 12; ++i) rb.push_back(-1);
  for (int i = 0; i < 12; ++i) rb.pop_front();  // wrap the head
  for (int i = 0; i < 5; ++i) rb.push_back(i * 10);
  std::vector<int> seen;
  rb.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 10, 20, 30, 40}));
}

TEST(RingBuffer, AnyOf) {
  RingBuffer<int> rb;
  rb.push_back(1);
  rb.push_back(2);
  EXPECT_TRUE(rb.any_of([](int v) { return v == 2; }));
  EXPECT_FALSE(rb.any_of([](int v) { return v == 9; }));
}

TEST(RingBuffer, RemoveIfIsStable) {
  RingBuffer<int> rb;
  for (int i = 0; i < 10; ++i) rb.push_back(-1);
  for (int i = 0; i < 10; ++i) rb.pop_front();  // wrap
  for (int i = 0; i < 10; ++i) rb.push_back(i);
  const std::size_t removed = rb.remove_if([](int v) { return v % 3 == 0; });
  EXPECT_EQ(removed, 4u);  // 0, 3, 6, 9
  std::vector<int> seen;
  rb.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 4, 5, 7, 8}));
}

TEST(RingBuffer, ReserveRoundsUpToPowerOfTwo) {
  RingBuffer<int> rb(12);
  EXPECT_EQ(rb.capacity(), 16u);
  rb.reserve(3);  // never shrinks
  EXPECT_EQ(rb.capacity(), 16u);
  for (int i = 0; i < 16; ++i) rb.push_back(i);
  EXPECT_EQ(rb.capacity(), 16u);  // exactly full, no reallocation yet
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb;
  for (int i = 0; i < 7; ++i) rb.push_back(i);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push_back(42);
  EXPECT_EQ(rb.front(), 42);
}

// ---------------------------------------------------------------------------
// RetentionTable
// ---------------------------------------------------------------------------

/// A retention entry for flit `id`, sent with link sequence number `lsn`.
ArqRetention make_entry(FlitId id, std::uint64_t lsn) {
  ArqRetention r;
  r.clean.packet_id = id >> 8;
  r.clean.seq = static_cast<std::uint16_t>(id & 0xFF);
  r.clean.lsn = lsn;
  r.unresolved = 1;
  return r;
}

TEST(RetentionTable, InsertFindErase) {
  RetentionTable t;
  t.reset(8);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.find(42), nullptr);

  t.insert(make_entry(42, 0));
  t.insert(make_entry(513, 1));
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(42), nullptr);
  EXPECT_EQ(t.find(42)->clean.id(), 42u);
  ASSERT_NE(t.find(513), nullptr);
  EXPECT_EQ(t.find(513)->clean.id(), 513u);

  EXPECT_TRUE(t.erase(42));
  EXPECT_FALSE(t.erase(42));
  EXPECT_EQ(t.find(42), nullptr);
  ASSERT_NE(t.find(513), nullptr);
  EXPECT_EQ(t.size(), 1u);
}

TEST(RetentionTable, ErasingOldestNeverMovesOthers) {
  // Callers hold an entry across the ACK of an older one (the common
  // go-back-N order); that erase must leave every other entry in place.
  RetentionTable t;
  t.reset(8);
  std::uint64_t lsn = 0;
  for (FlitId id = 1; id <= 8; ++id) t.insert(make_entry(id, lsn++));
  std::vector<const ArqRetention*> before;
  for (FlitId id = 2; id <= 8; ++id) before.push_back(t.find(id));
  EXPECT_TRUE(t.erase(1));
  for (FlitId id = 2; id <= 8; ++id) {
    EXPECT_EQ(t.find(id), before[id - 2]) << "flit " << id;
    EXPECT_EQ(t.find(id)->clean.id(), id);
  }
  // The freed slot is reused by the next send; still nothing moves.
  t.insert(make_entry(9, lsn++));
  for (FlitId id = 2; id <= 8; ++id) EXPECT_EQ(t.find(id), before[id - 2]);
}

TEST(RetentionTable, MiddleEraseKeepsSendOrder) {
  RetentionTable t;
  t.reset(4);
  std::uint64_t lsn = 10;
  for (FlitId id = 1; id <= 4; ++id) t.insert(make_entry(id, lsn++));
  EXPECT_TRUE(t.erase(2));
  EXPECT_TRUE(t.erase(4));
  t.insert(make_entry(5, lsn++));
  std::vector<FlitId> order;
  t.for_each([&](FlitId id, const ArqRetention& r) {
    EXPECT_EQ(id, r.clean.id());
    order.push_back(id);
  });
  EXPECT_EQ(order, (std::vector<FlitId>{1, 3, 5}));
}

TEST(RetentionTable, NackStormChurnMatchesReferenceModel) {
  // ARQ under a NACK storm: constant insert (transmits), lookup (ACK/NACK
  // arrivals, many for already-freed flits) and erase (ACK resolutions, in
  // any order), with the occupancy bouncing off the depth bound.
  // Cross-check every operation against std::unordered_map, and the ring's
  // send order against the reference's lsn order. FlitIds replicate the
  // real (packet_id << 8 | seq) shape.
  RetentionTable t;
  t.reset(8);
  std::unordered_map<FlitId, int> ref;  // id -> unresolved
  std::map<std::uint64_t, FlitId> by_lsn;
  Rng rng(99, "storm");
  std::vector<std::pair<FlitId, std::uint64_t>> live;  // (id, lsn)
  FlitId next_pkt = 1;
  std::uint64_t next_lsn = 0;

  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t op = rng.next_u64() % 4;
    if (op == 0 && live.size() < 8) {  // transmit: insert fresh entry
      const FlitId id = make_flit_id(next_pkt++, rng.next_u64() % 4);
      const std::uint64_t lsn = next_lsn++;
      t.insert(make_entry(id, lsn));
      ref[id] = 1;
      by_lsn[lsn] = id;
      live.emplace_back(id, lsn);
    } else if (op == 1 && !live.empty()) {  // NACK: mutate through find()
      const FlitId id = live[rng.next_u64() % live.size()].first;
      ArqRetention* r = t.find(id);
      ASSERT_NE(r, nullptr);
      ++r->unresolved;
      ++ref[id];
    } else if (op == 2 && !live.empty()) {  // ACK: erase
      const std::size_t k = rng.next_u64() % live.size();
      const auto [id, lsn] = live[k];
      EXPECT_TRUE(t.erase(id));
      ref.erase(id);
      by_lsn.erase(lsn);
      live[k] = live.back();
      live.pop_back();
    } else {  // stale response: lookup of a freed (or never-sent) id
      const FlitId id = make_flit_id(rng.next_u64() % (next_pkt + 3), 0);
      const ArqRetention* r = t.find(id);
      const auto it = ref.find(id);
      ASSERT_EQ(r != nullptr, it != ref.end());
      if (r != nullptr) {
        EXPECT_EQ(r->unresolved, it->second);
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }

  // for_each must visit exactly the live set, oldest send first.
  std::vector<FlitId> seen;
  t.for_each([&](FlitId id, const ArqRetention& r) {
    seen.push_back(id);
    ASSERT_TRUE(ref.count(id));
    EXPECT_EQ(r.unresolved, ref[id]);
  });
  std::vector<FlitId> want;
  for (const auto& [lsn, id] : by_lsn) want.push_back(id);
  EXPECT_EQ(seen, want);
}

TEST(RetentionTable, ResetDiscardsContents) {
  RetentionTable t;
  t.reset(4);
  t.insert(make_entry(7, 0));
  t.reset(4);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(7), nullptr);
  // Full capacity usable after reset.
  for (FlitId id = 0; id < 4; ++id) t.insert(make_entry(id, id));
  EXPECT_EQ(t.size(), 4u);
  // reset(0) frees the ring (a port without a live link); it can be sized again.
  t.reset(0);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_EQ(t.find(2), nullptr);
  t.reset(4);
  t.insert(make_entry(9, 0));
  EXPECT_NE(t.find(9), nullptr);
}

}  // namespace
}  // namespace rlftnoc
