// rlftnoc_run — config-file-driven simulation CLI.
//
// Usage:
//   rlftnoc_run <config-file> [--jobs N] [--sim-threads N] [--audit] [--trace]
//               [--trace-dir D] [--metrics-interval N]
//               [--workload W] [--record-workload PATH]
//               [--kill-link NODE:P[@CYCLE]] [--kill-router NODE[@CYCLE]]
//               [key=value ...]
//   rlftnoc_run --dump-defaults
//
// Config keys (all optional; defaults reproduce the paper's setup):
//   policy        = crc | arq | dt | rl | oracle
//   workload      = <parsec name> | uniform | transpose | hotspot | ... |
//                   dnn | rpc | nackstorm  (dependency-graph generators,
//                                           tuned with wl.* keys) |
//                   <path>.json | <path>.wkb  (rlftnoc-workload-v1 file,
//                                              dependency-gated replay;
//                                              also --workload W)
//   record_workload = <path>         (capture this run into a replayable
//                                     rlftnoc-workload-v1 file; .wkb =
//                                     binary; also --record-workload PATH)
//   trace         = <path>           (overrides workload: replay a
//                                     `cycle src dst len` text trace; cycles
//                                     count from the injection-window start)
//   seed          = 1
//   jobs          = 1                (campaign-mode parallelism; also --jobs N)
//   sim_threads   = 1                (threads inside one run's Network::step;
//                                     0 = hardware threads; also --sim-threads N.
//                                     Results are bit-identical for any value;
//                                     total threads ~= jobs x sim_threads)
//   audit         = false            (per-cycle invariant audit; also --audit)
//   audit_interval= 1                (cycles between audit sweeps)
//   telemetry     = false            (event trace + metrics; also --trace)
//   telemetry.dir = telemetry        (output directory; also --trace-dir D)
//   metrics_interval = 1000          (cycles/sample; also --metrics-interval N)
//   telemetry.series_rows / telemetry.trace_capacity   (ring sizes)
//   hard_faults   =                  (permanent faults: "link:NODE:P[@CYCLE],
//                                     router:NODE[@CYCLE], ..."; also the
//                                     --kill-link / --kill-router flags.
//                                     Needs xy|yx|adaptive routing)
//   injection_rate= 0.06             (synthetic workloads)
//   packets       = 50000            (synthetic workloads)
//   budget_pct    = 100              (PARSEC workloads)
//   error_scale   = 1.0
//   pretrain_cycles / warmup_cycles / step_cycles
//   rl_save       = <path>           (persist learned Q-tables after the run)
//   rl_load       = <path>           (start from previously saved Q-tables)
//   noc.mesh_width / noc.mesh_height / noc.vcs_per_port / ... (see NocConfig)
//
// Campaign mode (runs a benchmark x policy grid instead of one simulation):
//   campaign      = all | <bench1,bench2,...>
//   policies      = crc,arq,dt,rl     (default: the paper's four)
//   results_out   = <path>            (write the raw results TSV)
// `jobs` (or --jobs N) sets how many (benchmark, policy) runs execute
// concurrently; each run derives its own seed, so any value of jobs yields
// bit-identical results.
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "ftnoc/rl_policy.h"
#include "sim/campaign.h"
#include "sim/options_io.h"
#include "sim/results_io.h"
#include "sim/simulator.h"
#include "traffic/parsec.h"
#include "traffic/traffic.h"
#include "workload/generators.h"
#include "workload/replay.h"
#include "workload/workload.h"

using namespace rlftnoc;

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int run_campaign_mode(const Config& cfg, const SimOptions& opt) {
  std::vector<std::string> benchmarks;
  const std::string spec = cfg.get_string("campaign");
  if (spec == "all") {
    for (const ParsecProfile& p : parsec_suite()) benchmarks.push_back(p.name);
  } else {
    benchmarks = split_csv(spec);
  }
  if (benchmarks.empty()) throw ConfigError("campaign: empty benchmark list");

  std::vector<PolicyKind> policies;
  for (const std::string& p : split_csv(cfg.get_string("policies", "crc,arq,dt,rl")))
    policies.push_back(policy_from_string(p));
  if (policies.empty()) throw ConfigError("policies: empty policy list");

  const auto budget =
      static_cast<std::uint64_t>(cfg.get_int("budget_pct", 100));
  const CampaignResults res = run_campaign(opt, benchmarks, policies, budget);
  if (opt.audit)
    std::printf("invariant audit: every run completed with zero violations\n");
  if (cfg.contains("results_out"))
    write_results_file(cfg.get_string("results_out"), res);

  print_normalized_table(std::cout, res, "execution time (lower = faster)",
                         metric_exec_speedup_inverse, false);
  print_normalized_table(std::cout, res, "avg end-to-end latency",
                         metric_latency, false);
  print_normalized_table(std::cout, res, "energy efficiency",
                         metric_energy_efficiency, true);
  return 0;
}

std::unique_ptr<TrafficGenerator> make_workload(const Config& cfg,
                                                const SimOptions& opt) {
  const MeshTopology topo(opt.noc);
  // A text trace is an open-loop workload: it replays through the same
  // engine as workload files, its cycles relative to the injection window.
  if (cfg.contains("trace")) {
    return std::make_unique<WorkloadReplayTraffic>(
        read_trace_file(cfg.get_string("trace")), topo.num_nodes(), opt.seed);
  }
  const std::string w = cfg.get_string("workload", "uniform");
  // Dependency-gated replay: a workload file or a built-in graph generator.
  if (looks_like_workload_path(w)) {
    return std::make_unique<WorkloadReplayTraffic>(read_workload_file(w),
                                                   topo.num_nodes(), opt.seed);
  }
  if (is_builtin_workload(w)) {
    return std::make_unique<WorkloadReplayTraffic>(
        make_builtin_workload(w, topo, cfg, opt.seed), topo.num_nodes(),
        opt.seed);
  }
  for (const ParsecProfile& p : parsec_suite()) {
    if (p.name == w) {
      ParsecProfile prof = p;
      prof.total_packets =
          prof.total_packets *
          static_cast<std::uint64_t>(cfg.get_int("budget_pct", 100)) / 100;
      return std::make_unique<ParsecTraffic>(topo, prof, opt.seed);
    }
  }
  SyntheticTraffic::Options o;
  o.injection_rate = cfg.get_double("injection_rate", 0.06);
  o.total_packets = static_cast<std::uint64_t>(cfg.get_int("packets", 50000));
  bool found = false;
  for (const TrafficPattern pat :
       {TrafficPattern::kUniform, TrafficPattern::kTranspose,
        TrafficPattern::kBitComplement, TrafficPattern::kTornado,
        TrafficPattern::kNeighbor, TrafficPattern::kBitReverse,
        TrafficPattern::kShuffle, TrafficPattern::kHotspot}) {
    if (w == traffic_pattern_name(pat)) {
      o.pattern = pat;
      found = true;
      break;
    }
  }
  if (!found)
    throw ConfigError("unknown workload '" + w +
                      "' (a PARSEC profile, synthetic pattern, built-in "
                      "generator dnn|rpc|nackstorm, or workload file path)");
  return std::make_unique<SyntheticTraffic>(topo, o, opt.seed);
}

void print_result(const SimResult& r) {
  std::printf("workload            %s\n", r.workload.c_str());
  std::printf("policy              %s\n", r.policy.c_str());
  std::printf("drained             %s\n", r.drained ? "yes" : "NO");
  std::printf("execution cycles    %llu\n",
              static_cast<unsigned long long>(r.execution_cycles));
  std::printf("packets delivered   %llu / %llu injected\n",
              static_cast<unsigned long long>(r.packets_delivered),
              static_cast<unsigned long long>(r.packets_injected));
  if (r.enqueue_drops > 0)
    std::printf("enqueue drops       %llu (source NI queues overflowed)\n",
                static_cast<unsigned long long>(r.enqueue_drops));
  if (r.unreachable_drops > 0)
    std::printf("unreachable drops   %llu (dead or disconnected endpoints)\n",
                static_cast<unsigned long long>(r.unreachable_drops));
  std::printf("avg e2e latency     %.2f cycles\n", r.avg_packet_latency);
  std::printf("fault retx flits    %llu (e2e %llu, link %llu)\n",
              static_cast<unsigned long long>(r.retx_flits_e2e + r.retx_flits_hop),
              static_cast<unsigned long long>(r.retx_flits_e2e),
              static_cast<unsigned long long>(r.retx_flits_hop));
  std::printf("mode-2 duplicates   %llu\n",
              static_cast<unsigned long long>(r.dup_flits));
  std::printf("energy              %.2f uJ dynamic + %.2f uJ leakage\n",
              r.dynamic_energy_pj * 1e-6, r.leakage_energy_pj * 1e-6);
  std::printf("energy efficiency   %.3f flits/nJ\n", r.energy_efficiency);
  std::printf("dynamic power       %.3f W\n", r.avg_dynamic_power_w);
  std::printf("temperature         avg %.1f C, max %.1f C\n", r.avg_temperature_c,
              r.max_temperature_c);
  std::printf("mode residency      %.2f / %.2f / %.2f / %.2f\n", r.mode_fraction[0],
              r.mode_fraction[1], r.mode_fraction[2], r.mode_fraction[3]);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Config cfg;
    int first_override = 1;
    if (argc > 1 && std::string(argv[1]) == "--dump-defaults") {
      std::printf(
          "policy = rl\nworkload = canneal\nseed = 1\nbudget_pct = 100\n"
          "error_scale = 1.0\n# pretrain_cycles = 500000\n# warmup_cycles = 50000\n"
          "# noc.mesh_width = 8\n# noc.vcs_per_port = 4\n");
      return 0;
    }
    if (argc > 1 && std::string(argv[1]).find('=') == std::string::npos &&
        std::string(argv[1]).rfind("--", 0) != 0) {
      cfg = Config::from_file(argv[1]);
      first_override = 2;
    }
    for (int i = first_override; i < argc; ++i) {
      const std::string kv = argv[i];
      if (kv == "--jobs") {
        if (i + 1 >= argc) throw ConfigError("--jobs needs a value");
        cfg.set("jobs", argv[++i]);
        continue;
      }
      if (kv.rfind("--jobs=", 0) == 0) {
        cfg.set("jobs", kv.substr(7));
        continue;
      }
      if (kv == "--sim-threads") {
        if (i + 1 >= argc) throw ConfigError("--sim-threads needs a value");
        cfg.set("sim_threads", argv[++i]);
        continue;
      }
      if (kv.rfind("--sim-threads=", 0) == 0) {
        cfg.set("sim_threads", kv.substr(14));
        continue;
      }
      if (kv == "--audit") {
        cfg.set("audit", "true");
        continue;
      }
      if (kv == "--workload") {
        if (i + 1 >= argc) throw ConfigError("--workload needs a value");
        cfg.set("workload", argv[++i]);
        continue;
      }
      if (kv.rfind("--workload=", 0) == 0) {
        cfg.set("workload", kv.substr(11));
        continue;
      }
      if (kv == "--record-workload") {
        if (i + 1 >= argc) throw ConfigError("--record-workload needs a path");
        cfg.set("record_workload", argv[++i]);
        continue;
      }
      if (kv.rfind("--record-workload=", 0) == 0) {
        cfg.set("record_workload", kv.substr(18));
        continue;
      }
      // --kill-link NODE:P[@CYCLE] / --kill-router NODE[@CYCLE] append to the
      // `hard_faults` config key (same syntax, prefixed with the fault kind).
      const auto append_fault = [&cfg](const std::string& item) {
        const std::string prev = cfg.get_string("hard_faults", "");
        cfg.set("hard_faults", prev.empty() ? item : prev + "," + item);
      };
      if (kv == "--kill-link") {
        if (i + 1 >= argc) throw ConfigError("--kill-link needs NODE:P[@CYCLE]");
        append_fault(std::string("link:") + argv[++i]);
        continue;
      }
      if (kv.rfind("--kill-link=", 0) == 0) {
        append_fault("link:" + kv.substr(12));
        continue;
      }
      if (kv == "--kill-router") {
        if (i + 1 >= argc) throw ConfigError("--kill-router needs NODE[@CYCLE]");
        append_fault(std::string("router:") + argv[++i]);
        continue;
      }
      if (kv.rfind("--kill-router=", 0) == 0) {
        append_fault("router:" + kv.substr(14));
        continue;
      }
      if (kv == "--trace") {
        cfg.set("telemetry", "true");
        continue;
      }
      if (kv == "--trace-dir") {
        if (i + 1 >= argc) throw ConfigError("--trace-dir needs a value");
        cfg.set("telemetry.dir", argv[++i]);
        continue;
      }
      if (kv.rfind("--trace-dir=", 0) == 0) {
        cfg.set("telemetry.dir", kv.substr(12));
        continue;
      }
      if (kv == "--metrics-interval") {
        if (i + 1 >= argc) throw ConfigError("--metrics-interval needs a value");
        cfg.set("metrics_interval", argv[++i]);
        continue;
      }
      if (kv.rfind("--metrics-interval=", 0) == 0) {
        cfg.set("metrics_interval", kv.substr(19));
        continue;
      }
      const auto eq = kv.find('=');
      if (eq == std::string::npos) throw ConfigError("override must be key=value: " + kv);
      cfg.set(kv.substr(0, eq), kv.substr(eq + 1));
    }

    SimOptions opt = sim_options_from_config(cfg);
    if (!cfg.contains("policy")) opt.policy = PolicyKind::kRl;

    if (cfg.contains("campaign")) return run_campaign_mode(cfg, opt);

    // A pre-trained policy skips the synthetic pre-training phase.
    if (cfg.contains("rl_load")) opt.pretrain_cycles = 0;

    auto workload = make_workload(cfg, opt);
    Simulator sim(opt);
    if (cfg.contains("rl_load")) {
      auto* rl = dynamic_cast<RlPolicy*>(&sim.policy());
      if (rl == nullptr) throw ConfigError("rl_load requires policy = rl");
      rl->load_tables(cfg.get_string("rl_load"));
    }
    const SimResult r = sim.run(*workload);
    if (const NetworkAuditor* auditor = sim.auditor()) {
      std::printf("invariant audit: %llu clean sweeps, zero violations\n",
                  static_cast<unsigned long long>(auditor->clean_passes()));
    }
    if (cfg.contains("rl_save")) {
      if (auto* rl = dynamic_cast<RlPolicy*>(&sim.policy())) {
        rl->save_tables(cfg.get_string("rl_save"));
        std::fprintf(stderr, "saved Q-tables to %s\n",
                     cfg.get_string("rl_save").c_str());
      }
    }
    print_result(r);
    if (!sim.telemetry_files().empty()) {
      std::printf("telemetry manifest  %s\n",
                  sim.telemetry_manifest_path().c_str());
    }
    return r.drained ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rlftnoc_run: %s\n", e.what());
    return 2;
  }
}
