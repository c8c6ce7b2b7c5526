#include "bench_common.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace rlftnoc::bench {
namespace {

TEST(BenchCache, OptionsHashKeysOnResultAffectingOptions) {
  BenchArgs a;
  BenchArgs b;
  EXPECT_EQ(campaign_options_hash(a), campaign_options_hash(b));

  b = a;
  b.seed = 12;
  EXPECT_NE(campaign_options_hash(a), campaign_options_hash(b));

  b = a;
  b.scale_pct = 3;
  EXPECT_NE(campaign_options_hash(a), campaign_options_hash(b));

  b = a;
  b.full = true;
  EXPECT_NE(campaign_options_hash(a), campaign_options_hash(b));

  // jobs never changes results (per-run seed derivation), so a cache
  // written at any job count stays valid.
  b = a;
  b.jobs = 8;
  EXPECT_EQ(campaign_options_hash(a), campaign_options_hash(b));

  // The cache path is where the file lives, not what is in it.
  b = a;
  b.cache = "elsewhere.tsv";
  EXPECT_EQ(campaign_options_hash(a), campaign_options_hash(b));
}

TEST(BenchCache, ReusesCacheOnlyWhenHashMatches) {
  BenchArgs args;
  args.cache = ::testing::TempDir() + "/rlftnoc_bench_cache.tsv";

  // Fabricate a cache with a recognizable marker result and the hash the
  // current options produce. The marker row lets us tell "served from
  // cache" apart from "re-simulated" without running a campaign.
  CampaignResults fake;
  fake.benchmarks = bench::paper_benchmarks();
  fake.policies = paper_policies();
  fake.results.resize(fake.benchmarks.size());
  for (std::size_t b = 0; b < fake.benchmarks.size(); ++b) {
    for (std::size_t p = 0; p < fake.policies.size(); ++p) {
      SimResult r;
      r.workload = fake.benchmarks[b];
      r.policy = policy_name(fake.policies[p]);
      r.execution_cycles = 123456789;  // marker
      fake.results[b].push_back(std::move(r));
    }
  }
  {
    std::ofstream out(args.cache);
    char comment[64];
    std::snprintf(comment, sizeof comment, "# campaign-options-hash %016llx",
                  static_cast<unsigned long long>(campaign_options_hash(args)));
    out << comment << '\n';
    write_results(out, fake);
  }

  // Matching hash: the fabricated cache is served back verbatim.
  const CampaignResults reused = load_or_run_campaign(args);
  EXPECT_EQ(reused.at(0, 0).execution_cycles, 123456789u);

  // A cache whose recorded hash does not match the requested options must
  // not be served. (Checked through the same first-line probe the loader
  // uses; actually rerunning the campaign here would be a minutes-long
  // unit test.)
  BenchArgs other = args;
  other.seed = 777;
  std::ifstream in(args.cache);
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  char expect_other[64];
  std::snprintf(expect_other, sizeof expect_other,
                "# campaign-options-hash %016llx",
                static_cast<unsigned long long>(campaign_options_hash(other)));
  EXPECT_NE(first, expect_other);

  std::remove(args.cache.c_str());
}

BenchArgs parse(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& f : flags) argv.push_back(f.data());
  return parse_args(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, ParsesNumericFlags) {
  const BenchArgs a = parse({"--scale=3", "--seed=0", "--jobs=4"});
  EXPECT_EQ(a.scale_pct, 3u);
  EXPECT_EQ(a.seed, 0u);
  EXPECT_EQ(a.jobs, 4u);
  EXPECT_EQ(parse({"--seed=18446744073709551615"}).seed, UINT64_MAX);
}

// A malformed number exits 2 naming the flag and its value, instead of
// running with whatever strtoull made of it (0, a wrapped negative or a
// saturated huge value).
TEST(BenchArgsDeathTest, RejectsMalformedNumbers) {
  const auto exit2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(parse({"--scale=abc"}), exit2, "'abc' for --scale");
  EXPECT_EXIT(parse({"--jobs=abc"}), exit2, "'abc' for --jobs");
  EXPECT_EXIT(parse({"--seed=-5"}), exit2, "'-5' for --seed");
  EXPECT_EXIT(parse({"--scale=1234567890123456789012345"}), exit2,
              "'1234567890123456789012345' for --scale");
  EXPECT_EXIT(parse({"--jobs=4294967296"}), exit2, "'4294967296' for --jobs");
  EXPECT_EXIT(parse({"--scale=3x"}), exit2, "'3x' for --scale");
  EXPECT_EXIT(parse({"--seed="}), exit2, "'' for --seed");
}

ForcedModeRun small_run(TrafficPattern pattern, double rate,
                        std::uint64_t packets) {
  ForcedModeRun run;
  run.noc.mesh_width = 4;
  run.noc.mesh_height = 4;
  run.traffic.pattern = pattern;
  run.traffic.injection_rate = rate;
  run.traffic.total_packets = packets;
  run.traffic_seed = 5;
  run.max_cycles = 200'000;
  return run;
}

TEST(BenchDriver, FullNiQueueRejectsAreCounted) {
  ForcedModeRun run = small_run(TrafficPattern::kHotspot, 0.6, 2000);
  run.noc.ni_queue_limit = 2;
  const ForcedModeResult r = run_forced_mode(run);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.offered, 2000u);
  // Every accepted packet is injected and, fault-free, delivered.
  EXPECT_EQ(r.metrics.packets_injected, r.metrics.packets_delivered);
  EXPECT_EQ(r.offered, r.metrics.packets_delivered + r.rejected);
  EXPECT_GT(r.dynamic_energy_pj, 0.0);
}

TEST(BenchDriver, LowLoadRunDrainsWithoutRejects) {
  ForcedModeRun run = small_run(TrafficPattern::kUniform, 0.02, 500);
  const ForcedModeResult r = run_forced_mode(run);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.offered, 500u);
  EXPECT_EQ(r.metrics.packets_delivered, 500u);
  EXPECT_LT(r.metrics.last_delivery_cycle, run.max_cycles);

  // Metrics restart at the warm-up cycle; the offered count does not.
  run.warmup = 2000;
  const ForcedModeResult warm = run_forced_mode(run);
  EXPECT_EQ(warm.offered, 500u);
  EXPECT_GT(warm.metrics.packets_delivered, 0u);
  EXPECT_LT(warm.metrics.packets_delivered, 500u);
}

}  // namespace
}  // namespace rlftnoc::bench
