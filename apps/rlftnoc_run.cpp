// rlftnoc_run — config-file-driven simulation CLI.
//
// Usage:
//   rlftnoc_run <config-file> [--jobs N] [--sim-threads N] [--audit] [--trace]
//               [--trace-dir D] [--metrics-interval N]
//               [--workload W] [--record-workload PATH]
//               [--kill-link NODE:P[@CYCLE]] [--kill-router NODE[@CYCLE]]
//               [key=value ...]
//   rlftnoc_run --dump-defaults      (print the defaults as a config file)
//
// Config keys (all optional; defaults reproduce the paper's setup; a key
// that nothing reads -- a typo, or one that does not apply to this workload
// or mode -- is rejected with exit 2 before anything is simulated):
//   policy        = crc | arq | dt | rl | oracle
//   workload      = uniform (default) | transpose | hotspot | ... |
//                   <parsec name> |
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
//   budget_pct    = 100              (PARSEC workloads; at least 1 packet)
//   error_scale   = 1.0
//   pretrain_cycles / warmup_cycles / ctrl.step_cycles
//   rl_save       = <path>           (persist learned Q-tables after the run)
//   rl_load       = <path>           (start from previously saved Q-tables)
//   noc.mesh_width / noc.mesh_height / noc.vcs_per_port / ... (see NocConfig)
//
// Single runs and campaign cells resolve `workload` alike
// (make_workload_traffic in sim/campaign.h).
//
// Campaign mode (runs a benchmark x policy grid instead of one simulation):
//   campaign      = all | <bench1,bench2,...>  (any workload selectors;
//                                               wl.* / injection_rate /
//                                               packets do not apply)
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
#include "workload/replay.h"
#include "workload/workload.h"

using namespace rlftnoc;

namespace {

/// A CLI flag that sets a config key: `--flag V` or `--flag=V`, or the
/// bare `--flag` for one with a `fixed` value. A `list_prefix` flag appends
/// "<prefix>V" to the key's comma-separated list instead of replacing it.
struct CliFlag {
  const char* name;
  const char* key;
  const char* needs;  ///< what a missing value is called in the error
  const char* fixed = nullptr;
  const char* list_prefix = nullptr;
};

const CliFlag kCliFlags[] = {
    {"--jobs", "jobs", "a value"},
    {"--sim-threads", "sim_threads", "a value"},
    {"--audit", "audit", "", "true"},
    {"--workload", "workload", "a value"},
    {"--record-workload", "record_workload", "a path"},
    // --kill-link NODE:P[@CYCLE] / --kill-router NODE[@CYCLE] append to the
    // `hard_faults` key (same syntax, prefixed with the fault kind).
    {"--kill-link", "hard_faults", "NODE:P[@CYCLE]", nullptr, "link:"},
    {"--kill-router", "hard_faults", "NODE[@CYCLE]", nullptr, "router:"},
    {"--trace", "telemetry", "", "true"},
    {"--trace-dir", "telemetry.dir", "a value"},
    {"--metrics-interval", "metrics_interval", "a value"},
};

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// A key nothing read is a typo or does not apply to this run; either way,
/// ignoring it would silently simulate something else.
void reject_unread_keys(const Config& cfg) {
  std::string names;
  for (const std::string& k : cfg.unread_keys())
    names += (names.empty() ? "'" : ", '") + k + "'";
  if (!names.empty()) {
    throw ConfigError("unknown config key " + names +
                      " (misspelled, or not used by this workload or mode)");
  }
}

int run_campaign_mode(const Config& cfg, const SimOptions& opt,
                      std::uint64_t budget_pct) {
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

  const std::string results_out = cfg.get_string("results_out", "");
  reject_unread_keys(cfg);
  const CampaignResults res = run_campaign(opt, benchmarks, policies, budget_pct);
  if (opt.audit)
    std::printf("invariant audit: every run completed with zero violations\n");
  if (!results_out.empty()) write_results_file(results_out, res);

  print_normalized_table(std::cout, res, "execution time (lower = faster)",
                         metric_exec_speedup_inverse, false);
  print_normalized_table(std::cout, res, "avg end-to-end latency",
                         metric_latency, false);
  print_normalized_table(std::cout, res, "energy efficiency",
                         metric_energy_efficiency, true);
  return 0;
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
      std::fputs(default_options_text().c_str(), stdout);
      return 0;
    }
    if (argc > 1 && std::string(argv[1]).find('=') == std::string::npos &&
        std::string(argv[1]).rfind("--", 0) != 0) {
      cfg = Config::from_file(argv[1]);
      first_override = 2;
    }
    for (int i = first_override; i < argc; ++i) {
      const std::string arg = argv[i];
      const CliFlag* flag = nullptr;
      std::string value;
      for (const CliFlag& f : kCliFlags) {
        const std::string name = f.name;
        if (arg == name) {
          flag = &f;
          if (f.fixed != nullptr) {
            value = f.fixed;
          } else if (i + 1 < argc) {
            value = argv[++i];
          } else {
            throw ConfigError(name + " needs " + f.needs);
          }
          break;
        }
        if (f.fixed == nullptr && arg.rfind(name + "=", 0) == 0) {
          flag = &f;
          value = arg.substr(name.size() + 1);
          break;
        }
      }
      if (flag == nullptr) {
        const auto eq = arg.find('=');
        if (eq == std::string::npos)
          throw ConfigError("override must be key=value: " + arg);
        cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
      } else if (flag->list_prefix != nullptr) {
        const std::string prev = cfg.get_string(flag->key, "");
        value = flag->list_prefix + value;
        cfg.set(flag->key, prev.empty() ? value : prev + "," + value);
      } else {
        cfg.set(flag->key, value);
      }
    }

    SimOptions opt = sim_options_from_config(cfg);
    const auto budget_pct = static_cast<std::uint64_t>(cfg.get_int(
        "budget_pct", static_cast<std::int64_t>(kDefaultBudgetPct)));
    if (cfg.contains("campaign")) return run_campaign_mode(cfg, opt, budget_pct);

    const std::string rl_load = cfg.get_string("rl_load", "");
    const std::string rl_save = cfg.get_string("rl_save", "");
    // A pre-trained policy skips the synthetic pre-training phase.
    if (!rl_load.empty()) opt.pretrain_cycles = 0;

    const MeshTopology topo(opt.noc);
    std::unique_ptr<TrafficGenerator> workload;
    if (cfg.contains("trace")) {
      // A text trace overrides the selector: an open-loop workload replayed
      // through the same engine as workload files, its cycles relative to
      // the injection window.
      workload = std::make_unique<WorkloadReplayTraffic>(
          read_trace_file(cfg.get_string("trace")), topo.num_nodes(), opt.seed);
    } else {
      workload =
          make_workload_traffic(opt.workload, topo, cfg, opt.seed, budget_pct);
    }
    reject_unread_keys(cfg);

    Simulator sim(opt);
    if (!rl_load.empty()) {
      auto* rl = dynamic_cast<RlPolicy*>(&sim.policy());
      if (rl == nullptr) throw ConfigError("rl_load requires policy = rl");
      rl->load_tables(rl_load);
    }
    const SimResult r = sim.run(*workload);
    if (const NetworkAuditor* auditor = sim.auditor()) {
      std::printf("invariant audit: %llu clean sweeps, zero violations\n",
                  static_cast<unsigned long long>(auditor->clean_passes()));
    }
    if (!rl_save.empty()) {
      if (auto* rl = dynamic_cast<RlPolicy*>(&sim.policy())) {
        rl->save_tables(rl_save);
        std::fprintf(stderr, "saved Q-tables to %s\n", rl_save.c_str());
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
