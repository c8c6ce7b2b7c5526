#include "sim/results_io.h"

#include <gtest/gtest.h>

#include <sstream>

namespace rlftnoc {
namespace {

CampaignResults sample_results() {
  CampaignResults res;
  res.benchmarks = {"alpha", "beta"};
  res.policies = {PolicyKind::kStaticCrc, PolicyKind::kRl};
  res.results.resize(2);
  std::uint64_t n = 1;
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t p = 0; p < 2; ++p) {
      SimResult r;
      r.workload = res.benchmarks[b];
      r.policy = policy_name(res.policies[p]);
      r.execution_cycles = 1000 * n;
      r.total_cycles = 600000 + 1000 * n;
      r.drained = true;
      r.avg_packet_latency = 10.5 * static_cast<double>(n);
      r.p50_latency = 9.0 * static_cast<double>(n);
      r.p95_latency = 21.5 * static_cast<double>(n);
      r.p99_latency = 40.25 * static_cast<double>(n);
      r.packets_injected = 100 * n;
      r.packets_delivered = 100 * n;
      r.flits_delivered = 400 * n;
      r.enqueue_drops = 5 * n;
      r.unreachable_drops = 4 * n;
      r.retransmitted_flits = 7 * n;
      r.retx_flits_e2e = 3 * n;
      r.retx_flits_hop = 2 * n;
      r.dup_flits = 2 * n;
      r.crc_packet_failures = n;
      r.dynamic_energy_pj = 1.5e6 * static_cast<double>(n);
      r.leakage_energy_pj = 2.5e6 * static_cast<double>(n);
      r.total_energy_pj = r.dynamic_energy_pj + r.leakage_energy_pj;
      r.energy_efficiency = 1.25 * static_cast<double>(n);
      r.avg_dynamic_power_w = 0.4;
      r.avg_total_power_w = 0.9;
      r.avg_temperature_c = 75.0;
      r.max_temperature_c = 99.0;
      r.mode_fraction = {0.4, 0.3, 0.2, 0.1};
      r.rl_table_entries = 123;
      r.dt_training_accuracy = 0.5;
      res.results[b].push_back(std::move(r));
      ++n;
    }
  }
  return res;
}

TEST(ResultsIo, RoundTripPreservesEverything) {
  const CampaignResults orig = sample_results();
  std::ostringstream os;
  write_results(os, orig);
  std::istringstream is(os.str());
  const CampaignResults back = read_results(is);

  ASSERT_EQ(back.benchmarks, orig.benchmarks);
  ASSERT_EQ(back.policies, orig.policies);
  // Every field, percentiles included.
  EXPECT_EQ(back.results, orig.results);
}

TEST(ResultsIo, RoundTripIsBitExactForUglyDoubles) {
  // Doubles with no short decimal form: the default 6-significant-digit
  // stream precision used to truncate these, so a cached campaign differed
  // from a fresh one. max_digits10 output must reproduce every bit.
  CampaignResults res;
  res.benchmarks = {"gamma"};
  res.policies = {PolicyKind::kStaticCrc};
  res.results.resize(1);
  SimResult r;
  r.workload = "gamma";
  r.policy = policy_name(PolicyKind::kStaticCrc);
  r.execution_cycles = 123457;
  r.drained = true;
  r.avg_packet_latency = 1.0 / 3.0;
  r.p50_latency = 2.0 / 3.0;
  r.p95_latency = 1e-300;
  r.p99_latency = 123.456789012345678;
  r.dynamic_energy_pj = 123456789.123456789;
  r.leakage_energy_pj = 2.0 / 7.0;
  r.total_energy_pj = r.dynamic_energy_pj + r.leakage_energy_pj;
  r.energy_efficiency = 0.1 + 0.2;  // famously not 0.3
  r.avg_dynamic_power_w = 1e-17;
  r.avg_total_power_w = 9.87654321e12;
  r.avg_temperature_c = 76.543210987654321;
  r.max_temperature_c = 101.9999999999999;
  r.mode_fraction = {1.0 / 3.0, 1.0 / 6.0, 1.0 / 7.0, 1.0 / 11.0};
  r.dt_training_accuracy = 0.9999999999999999;
  res.results[0].push_back(r);

  std::ostringstream os;
  write_results(os, res);
  std::istringstream is(os.str());
  const CampaignResults back = read_results(is);
  EXPECT_EQ(back.at(0, 0), r);

  // And writing the reread results again is byte-identical.
  std::ostringstream os2;
  write_results(os2, back);
  EXPECT_EQ(os.str(), os2.str());
}

TEST(ResultsIo, PreservesDeclarationOrderNotLexicographic) {
  // Campaign declaration order is deliberately anti-alphabetical; report
  // tables must come back in this order, not sorted.
  CampaignResults res;
  res.benchmarks = {"zulu", "alpha"};
  res.policies = {PolicyKind::kRl, PolicyKind::kStaticCrc};
  res.results.resize(2);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t p = 0; p < 2; ++p) {
      SimResult r;
      r.workload = res.benchmarks[b];
      r.policy = policy_name(res.policies[p]);
      r.execution_cycles = 10 * (b + 1) + p;
      res.results[b].push_back(std::move(r));
    }
  }
  std::ostringstream os;
  write_results(os, res);
  std::istringstream is(os.str());
  const CampaignResults back = read_results(is);
  ASSERT_EQ(back.benchmarks, (std::vector<std::string>{"zulu", "alpha"}));
  ASSERT_EQ(back.policies.size(), 2u);
  EXPECT_EQ(back.policies[0], PolicyKind::kRl);
  EXPECT_EQ(back.policies[1], PolicyKind::kStaticCrc);
  EXPECT_EQ(back.at(0, 0).execution_cycles, 10u);
  EXPECT_EQ(back.at(1, 1).execution_cycles, 21u);
}

TEST(ResultsIo, SkipsCommentLines) {
  std::ostringstream os;
  write_results(os, sample_results());
  const std::string body = os.str();
  const std::string annotated =
      "# campaign-options-hash 1f2e3d4c\n# another note\n" + body +
      "# trailing comment\n";
  std::istringstream is(annotated);
  const CampaignResults back = read_results(is);
  EXPECT_EQ(back.benchmarks.size(), 2u);
  EXPECT_EQ(back.at(0, 0).execution_cycles, 1000u);
}

TEST(ResultsIo, RejectsStaleHeader) {
  std::istringstream is("wrong\theader\n1\t2\n");
  EXPECT_THROW(read_results(is), std::runtime_error);
}

TEST(ResultsIo, RejectsEmptyFile) {
  std::ostringstream os;
  write_results(os, sample_results());
  const std::string text = os.str();
  std::istringstream header_only(text.substr(0, text.find('\n') + 1));
  EXPECT_THROW(read_results(header_only), std::runtime_error);
}

TEST(ResultsIo, RejectsTruncatedRow) {
  std::ostringstream os;
  write_results(os, sample_results());
  std::string text = os.str();
  // Chop the last row in half.
  text.resize(text.size() - 40);
  std::istringstream is(text);
  EXPECT_THROW(read_results(is), std::runtime_error);
}

TEST(ResultsIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/rlftnoc_results.tsv";
  write_results_file(path, sample_results());
  const CampaignResults back = read_results_file(path);
  EXPECT_EQ(back.benchmarks.size(), 2u);
  EXPECT_THROW(read_results_file("/no/such/file.tsv"), std::runtime_error);
}

}  // namespace
}  // namespace rlftnoc
