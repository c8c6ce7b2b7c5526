#include "rl/qtable_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "ftnoc/rl_policy.h"

namespace rlftnoc {
namespace {

QTable make_table(double init, int rows, std::uint64_t salt) {
  QTable t(init);
  for (int r = 0; r < rows; ++r) {
    DiscreteState s{static_cast<std::uint8_t>(r % 5),
                    static_cast<std::uint8_t>((r + salt) % 4),
                    static_cast<std::uint8_t>(r % 3)};
    QTable::Row& row = t.row(s);
    for (int a = 0; a < 4; ++a) {
      row.q[static_cast<std::size_t>(a)] = 0.25 * a + r + static_cast<double>(salt);
      row.visits[static_cast<std::size_t>(a)] = static_cast<std::uint32_t>(r + a);
    }
  }
  return t;
}

TEST(QTableIo, RoundTripSingleTable) {
  const QTable orig = make_table(2.0, 7, 1);
  std::ostringstream os;
  write_qtables(os, {&orig});
  QTable back(0.0);
  std::istringstream is(os.str());
  read_qtables(is, {&back});

  EXPECT_EQ(back.size(), orig.size());
  EXPECT_DOUBLE_EQ(back.init_value(), 2.0);
  for (const auto& [state, row] : orig.sorted_items()) {
    const QTable::Row* r = back.find(*state);
    ASSERT_NE(r, nullptr);
    for (int a = 0; a < 4; ++a) {
      EXPECT_DOUBLE_EQ(r->q[static_cast<std::size_t>(a)],
                       row->q[static_cast<std::size_t>(a)]);
      EXPECT_EQ(r->visits[static_cast<std::size_t>(a)],
                row->visits[static_cast<std::size_t>(a)]);
    }
  }
}

TEST(QTableIo, RoundTripMultipleTables) {
  const QTable a = make_table(1.0, 3, 1);
  const QTable b = make_table(5.0, 9, 2);
  std::ostringstream os;
  write_qtables(os, {&a, &b});
  QTable ra(0.0);
  QTable rb(0.0);
  std::istringstream is(os.str());
  read_qtables(is, {&ra, &rb});
  EXPECT_EQ(ra.size(), 3u);
  EXPECT_EQ(rb.size(), 9u);
}

TEST(QTableIo, EmptyTableIsFine) {
  const QTable empty(3.0);
  std::ostringstream os;
  write_qtables(os, {&empty});
  QTable back(0.0);
  std::istringstream is(os.str());
  read_qtables(is, {&back});
  EXPECT_EQ(back.size(), 0u);
  EXPECT_DOUBLE_EQ(back.init_value(), 3.0);
}

TEST(QTableIo, AgentCountMismatchThrows) {
  const QTable a = make_table(1.0, 2, 1);
  std::ostringstream os;
  write_qtables(os, {&a});
  QTable x(0.0);
  QTable y(0.0);
  std::istringstream is(os.str());
  EXPECT_THROW(read_qtables(is, {&x, &y}), std::runtime_error);
}

TEST(QTableIo, BadMagicThrows) {
  std::istringstream is("not a qtable file\n");
  QTable t(0.0);
  EXPECT_THROW(read_qtables(is, {&t}), std::runtime_error);
}

TEST(QTableIo, TruncatedFileThrows) {
  const QTable a = make_table(1.0, 5, 1);
  std::ostringstream os;
  write_qtables(os, {&a});
  std::string text = os.str();
  text.resize(text.size() / 2);
  std::istringstream is(text);
  QTable t(0.0);
  EXPECT_THROW(read_qtables(is, {&t}), std::runtime_error);
}

TEST(QTableIo, PolicySaveLoadPreservesGreedyChoices) {
  QLearningParams params;
  RlPolicy trained(4, params, 7);
  FeatureSnapshot snap;
  snap.temperature_c = 90.0;
  snap.buffer_util = 0.2;
  for (int i = 0; i < 200; ++i) {
    snap.temperature_c = 55.0 + (i % 50);
    for (NodeId r = 0; r < 4; ++r) trained.decide(r, snap, 0.5 + 0.1 * (i % 3));
  }
  const std::string path = ::testing::TempDir() + "/rlftnoc_policy.qt";
  trained.save_tables(path);

  RlPolicy fresh(4, params, 99);  // different seed: exploration RNG differs
  fresh.load_tables(path);
  EXPECT_EQ(fresh.total_table_entries(), trained.total_table_entries());
  // Greedy decisions agree on every visited state.
  DiscreteState d;
  for (int t = 50; t <= 100; t += 5) {
    FeatureSnapshot s;
    s.temperature_c = t;
    s.buffer_util = 0.2;
    s.discretize_into(d);
    EXPECT_EQ(fresh.agent(0).greedy_action(d),
              trained.agent(0).greedy_action(d));
  }
}

TEST(QTableIo, SharedVsPerRouterMismatchThrows) {
  QLearningParams params;
  RlPolicy shared(4, params, 1, false, /*shared_table=*/true);
  const std::string path = ::testing::TempDir() + "/rlftnoc_shared.qt";
  shared.save_tables(path);
  RlPolicy per_router(4, params, 1, false, /*shared_table=*/false);
  EXPECT_THROW(per_router.load_tables(path), std::runtime_error);
}

}  // namespace
}  // namespace rlftnoc
