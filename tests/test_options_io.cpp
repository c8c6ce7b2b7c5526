#include "sim/options_io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <type_traits>

#include "sim/campaign.h"
#include "traffic/traffic.h"
#include "workload/generators.h"

namespace rlftnoc {
namespace {

TEST(OptionsIo, EmptyConfigYieldsDefaults) {
  const SimOptions def;
  const SimOptions opt = sim_options_from_config(Config{});
  EXPECT_EQ(opt.noc.mesh_width, def.noc.mesh_width);
  EXPECT_EQ(opt.policy, def.policy);
  EXPECT_EQ(opt.seed, 1u);
  EXPECT_DOUBLE_EQ(opt.rl.alpha, def.rl.alpha);
  EXPECT_DOUBLE_EQ(opt.thermal.ambient_c, def.thermal.ambient_c);
}

/// `o` printed by the dump visitor, one `key = value  # doc` line per key.
template <class O, class Visit>
std::string dump(O o, Visit visit) {
  std::ostringstream out;
  visit(o, OptionPrinter{out});
  return out.str();
}

const auto kVisitSim = [](SimOptions& o, auto&& v) { visit_options(o, v); };
const auto kVisitSynthetic = [](SyntheticWorkloadOptions& o, auto&& v) {
  visit_options(o, v);
};

TEST(OptionsIo, DumpedDefaultsParseBackToEmptyConfigDefaults) {
  const std::string text = default_options_text();
  const Config dumped = Config::from_string(text);
  const SimOptions a = sim_options_from_config(dumped);
  const SimOptions b = sim_options_from_config(Config{});
  // Every declared key prints the same value for both.
  EXPECT_EQ(dump(a, kVisitSim), dump(b, kVisitSim));
  EXPECT_EQ(dump(options_from_config<SyntheticWorkloadOptions>(dumped),
                 kVisitSynthetic),
            dump(SyntheticWorkloadOptions{}, kVisitSynthetic));
  EXPECT_EQ(dumped.get_int("budget_pct"),
            static_cast<std::int64_t>(kDefaultBudgetPct));
  // The dumped selector and the empty one name the same traffic.
  const MeshTopology topo(a.noc);
  EXPECT_EQ(make_workload_traffic(a.workload, topo, dumped, 1, 100)->name(),
            make_workload_traffic(b.workload, topo, Config{}, 1, 100)->name());
  // Every live dumped key is one a run reads: the dump is itself a valid
  // config.
  EXPECT_TRUE(dumped.unread_keys().empty());

  // Every declared key is shown; the generator keys commented out.
  const auto shown = [&text](const OptionSpec& s, const auto&) {
    const std::string line = std::string(s.key) + " = ";
    EXPECT_TRUE(text.rfind(line, 0) == 0 ||
                text.find("\n" + line) != std::string::npos ||
                text.find("\n# " + line) != std::string::npos)
        << s.key;
  };
  SimOptions sim;
  visit_options(sim, shown);
  SyntheticWorkloadOptions synthetic;
  visit_options(synthetic, shown);
  DnnWorkloadOptions dnn;
  visit_options(dnn, shown);
  RpcWorkloadOptions rpc;
  visit_options(rpc, shown);
  NackStormWorkloadOptions storm;
  visit_options(storm, shown, 64);
}

/// A value that differs from `def` and lies inside `s`'s range.
template <class T>
T in_range_non_default(const OptionSpec& s, const T& def) {
  if constexpr (std::is_same_v<T, bool>) {
    return !def;
  } else if constexpr (std::is_enum_v<T>) {
    for (const Spelling<T>& sp : kSpellings<T>) {
      if (sp.value != def) return sp.value;
    }
    return def;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return def + "x";
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!s.hi) return def + 1;
    return def < *s.hi ? (def + *s.hi) / 2 : (*s.lo + def) / 2;
  } else if constexpr (std::is_integral_v<T>) {
    return !s.hi || def + 1 <= *s.hi ? def + 1 : def - 1;
  } else {
    return parse_hard_faults("link:1:E@5, router:2");
  }
}

/// Config text one step past each of `s`'s bounds.
template <class T>
std::vector<std::string> past_bounds(const OptionSpec& s) {
  std::vector<std::string> out;
  if constexpr (std::is_floating_point_v<T>) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    if (s.lo)
      out.push_back(format_option(s.lo_open ? *s.lo : std::nextafter(*s.lo, -kInf)));
    if (s.hi) out.push_back(format_option(std::nextafter(*s.hi, kInf)));
  } else {
    if (s.lo) out.push_back(std::to_string(static_cast<std::int64_t>(*s.lo) - 1));
    if (s.hi) out.push_back(std::to_string(static_cast<std::int64_t>(*s.hi) + 1));
  }
  return out;
}

/// For every key `visit` declares on O: a non-default in-range value lands
/// in its own field and no other, as the dump shows, and each bound stepped
/// one past throws ConfigError naming the key and the value.
template <class O, class Visit, class Parse>
void expect_every_key_parses_in_range(Visit visit, Parse parse) {
  O defaults;
  visit(defaults, [&](const OptionSpec& s, const auto& def) {
    using T = std::decay_t<decltype(def)>;
    SCOPED_TRACE(s.key);
    const std::string text = format_option(in_range_non_default(s, def));
    ASSERT_NE(text, format_option(def));
    Config cfg;
    cfg.set(s.key, text);
    const O parsed = parse(cfg);
    EXPECT_TRUE(cfg.unread_keys().empty());
    const std::string shown = dump(parsed, visit);
    EXPECT_EQ(Config::from_string(shown).get_string(s.key), text);
    std::istringstream got(shown), want(dump(defaults, visit));
    int changed = 0;
    for (std::string a, b; std::getline(got, a) && std::getline(want, b);)
      changed += a != b;
    EXPECT_EQ(changed, 1) << "the key's value reached another field";

    if constexpr (!std::is_arithmetic_v<T> || std::is_same_v<T, bool>) {
      EXPECT_FALSE(s.lo || s.hi) << "a range on a non-numeric key";
    }
    for (const std::string& past : past_bounds<T>(s)) {
      Config bad;
      bad.set(s.key, past);
      try {
        parse(bad);
        ADD_FAILURE() << "accepted " << past;
      } catch (const ConfigError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string("'") + s.key + "'"), std::string::npos)
            << what;
        EXPECT_NE(what.find("'" + past + "'"), std::string::npos) << what;
      }
    }
  });
}

TEST(OptionsIo, EveryDeclaredKeyParsesInRangeAndRejectsPastItsBounds) {
  expect_every_key_parses_in_range<SimOptions>(kVisitSim,
                                               sim_options_from_config);
  expect_every_key_parses_in_range<SyntheticWorkloadOptions>(
      kVisitSynthetic, options_from_config<SyntheticWorkloadOptions>);
  expect_every_key_parses_in_range<DnnWorkloadOptions>(
      [](DnnWorkloadOptions& o, auto&& v) { visit_options(o, v); },
      options_from_config<DnnWorkloadOptions>);
  expect_every_key_parses_in_range<RpcWorkloadOptions>(
      [](RpcWorkloadOptions& o, auto&& v) { visit_options(o, v); },
      options_from_config<RpcWorkloadOptions>);
  expect_every_key_parses_in_range<NackStormWorkloadOptions>(
      [](NackStormWorkloadOptions& o, auto&& v) { visit_options(o, v, 64); },
      [](const Config& cfg) {
        return options_from_config<NackStormWorkloadOptions>(cfg, 64);
      });
}

TEST(OptionsIo, RetiredKeysAreNotRead) {
  // Keys no config, bench, example or doc set; their fields keep their
  // defaults and stay settable from C++.
  for (const char* key :
       {"ctrl.core_base_w", "ctrl.core_per_flit_w", "ctrl.faults_enabled",
        "ctrl.feature_ema_alpha", "ctrl.reward_energy_weight", "ctrl.voltage",
        "noc.e2e_ack_cycles_per_hop", "noc.e2e_ack_fixed_cycles",
        "noc.local_vc_depth", "noc.ni_queue_limit", "power.leak_temp_coeff",
        "power.leak_w_at_ref", "thermal.r_ambient", "thermal.r_lateral",
        "thresholds.low", "thresholds.medium", "thresholds.high",
        "varius.droop_len", "varius.droop_rate", "varius.droop_scale",
        "varius.nominal_delay", "varius.sigma", "varius.temp_coeff",
        "varius.util_coeff"}) {
    const Config cfg = Config::from_string(std::string(key) + " = 1\n");
    sim_options_from_config(cfg);
    EXPECT_EQ(cfg.unread_keys(), (std::vector<std::string>{key}));
  }
}

TEST(OptionsIo, LegacyStepCyclesAliasIsNotRead) {
  const Config cfg = Config::from_string("step_cycles = 10\n");
  EXPECT_EQ(sim_options_from_config(cfg).controller.step_cycles,
            SimOptions{}.controller.step_cycles);
  EXPECT_EQ(cfg.unread_keys(), (std::vector<std::string>{"step_cycles"}));
}

TEST(OptionsIo, PolicySpellings) {
  EXPECT_EQ(policy_from_string("crc"), PolicyKind::kStaticCrc);
  EXPECT_EQ(policy_from_string("CRC"), PolicyKind::kStaticCrc);
  EXPECT_EQ(policy_from_string("arq"), PolicyKind::kStaticArqEcc);
  EXPECT_EQ(policy_from_string("ARQ+ECC"), PolicyKind::kStaticArqEcc);
  EXPECT_EQ(policy_from_string("dt"), PolicyKind::kDecisionTree);
  EXPECT_EQ(policy_from_string("rl"), PolicyKind::kRl);
  EXPECT_EQ(policy_from_string("Oracle"), PolicyKind::kOracle);
  EXPECT_THROW(policy_from_string("magic"), ConfigError);
}

TEST(OptionsIo, AuditKeysRoundTrip) {
  Config cfg;
  cfg.set("audit", "true");
  cfg.set("audit_interval", "64");
  const Config reparsed = Config::from_string(cfg.to_string());
  const SimOptions opt = sim_options_from_config(reparsed);
  EXPECT_TRUE(opt.audit);
  EXPECT_EQ(opt.audit_interval, 64u);
}

TEST(OptionsIo, HardFaultsKeyParses) {
  const Config cfg = Config::from_string(R"(
    noc.mesh_width = 4
    noc.mesh_height = 4
    hard_faults = link:5:E@100, router:9
  )");
  const SimOptions opt = sim_options_from_config(cfg);
  ASSERT_EQ(opt.hard_faults.size(), 2u);
  EXPECT_EQ(opt.hard_faults[0].kind, HardFault::Kind::kLink);
  EXPECT_EQ(opt.hard_faults[0].node, 5);
  EXPECT_EQ(opt.hard_faults[0].port, Port::kEast);
  EXPECT_EQ(opt.hard_faults[0].at_cycle, 100u);
  EXPECT_EQ(opt.hard_faults[1].kind, HardFault::Kind::kRouter);
  EXPECT_EQ(opt.hard_faults[1].node, 9);
}

TEST(OptionsIo, MalformedHardFaultsThrowConfigError) {
  const Config cfg = Config::from_string("hard_faults = link:oops\n");
  EXPECT_THROW(sim_options_from_config(cfg), ConfigError);
}

TEST(OptionsIo, HardFaultsRejectWestfirstRouting) {
  const Config cfg = Config::from_string(R"(
    noc.routing = westfirst
    hard_faults = link:5:E
  )");
  EXPECT_THROW(sim_options_from_config(cfg), ConfigError);
}

TEST(OptionsIo, InvalidStructuralValueThrows) {
  const Config cfg = Config::from_string("noc.mesh_width = 1\n");
  EXPECT_THROW(sim_options_from_config(cfg), std::invalid_argument);
}

TEST(OptionsIo, MalformedValueThrows) {
  const Config cfg = Config::from_string("rl.alpha = fast\n");
  EXPECT_THROW(sim_options_from_config(cfg), ConfigError);
}

TEST(OptionsIo, ConfiguredOptionsRunEndToEnd) {
  const Config cfg = Config::from_string(R"(
    policy = arq
    seed = 3
    noc.mesh_width = 4
    noc.mesh_height = 4
    pretrain_cycles = 0
    warmup_cycles = 1000
  )");
  SimOptions opt = sim_options_from_config(cfg);
  Simulator sim(opt);
  SyntheticTraffic::Options o;
  o.injection_rate = 0.08;
  o.total_packets = 1500;
  SyntheticTraffic gen(MeshTopology(opt.noc), o, opt.seed);
  const SimResult r = sim.run(gen);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.policy, "ARQ+ECC");
}

}  // namespace
}  // namespace rlftnoc
