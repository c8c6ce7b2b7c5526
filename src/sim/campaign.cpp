#include "sim/campaign.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <set>

#include "common/bitvec.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "telemetry/export.h"
#include "workload/generators.h"
#include "workload/replay.h"
#include "workload/workload.h"

namespace rlftnoc {

std::unique_ptr<TrafficGenerator> make_workload_traffic(
    const std::string& selector, const MeshTopology& topo,
    const Config& wl_cfg, std::uint64_t seed, std::uint64_t budget_pct) {
  const std::string w = selector.empty() ? kDefaultWorkload : selector;
  // Dependency-gated replay: a workload file or a built-in graph generator.
  if (looks_like_workload_path(w)) {
    return std::make_unique<WorkloadReplayTraffic>(read_workload_file(w),
                                                   topo.num_nodes(), seed);
  }
  if (is_builtin_workload(w)) {
    return std::make_unique<WorkloadReplayTraffic>(
        make_builtin_workload(w, topo, wl_cfg, seed), topo.num_nodes(), seed);
  }
  for (const ParsecProfile& p : parsec_suite()) {
    if (p.name == w) {
      ParsecProfile prof = p;
      // Scale the packet budget, but never to zero: an empty measured phase
      // would yield an all-zero row that the normalized tables silently skip.
      prof.total_packets =
          std::max<std::uint64_t>(1, prof.total_packets * budget_pct / 100);
      return std::make_unique<ParsecTraffic>(topo, prof, seed);
    }
  }
  if (const auto pattern = parse_spelling<TrafficPattern>(w)) {
    const auto synthetic = options_from_config<SyntheticWorkloadOptions>(wl_cfg);
    SyntheticTraffic::Options o;
    o.pattern = *pattern;
    o.injection_rate = synthetic.injection_rate;
    o.total_packets = synthetic.packets;
    return std::make_unique<SyntheticTraffic>(topo, o, seed);
  }
  throw std::invalid_argument(
      "unknown workload '" + w +
      "' (a PARSEC profile, synthetic pattern, built-in generator "
      "dnn|rpc|nackstorm, or workload file path)");
}

std::uint64_t campaign_run_seed(std::uint64_t base_seed,
                                const std::string& benchmark, PolicyKind pol) {
  return base_seed ^ fnv1a64(benchmark + "/" + policy_name(pol));
}

std::string campaign_record_path(const std::string& base_path,
                                 const std::string& benchmark, PolicyKind pol) {
  const std::string label =
      sanitize_run_label(benchmark + "_" + policy_name(pol));
  const std::size_t slash = base_path.find_last_of('/');
  const std::size_t dot = base_path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base_path + "-" + label;
  }
  return base_path.substr(0, dot) + "-" + label + base_path.substr(dot);
}

CampaignResults run_campaign(const SimOptions& base,
                             const std::vector<std::string>& benchmarks,
                             const std::vector<PolicyKind>& policies,
                             std::uint64_t packet_budget_scale_pct) {
  // Refuse duplicate (benchmark, policy) keys up front: the key names a
  // run's results row, derived seed and telemetry file set, so a duplicate
  // would silently overwrite one run's output with another's.
  {
    std::set<std::string> seen;
    for (const std::string& b : benchmarks) {
      for (const PolicyKind p : policies) {
        const std::string key = b + "/" + policy_name(p);
        if (!seen.insert(key).second) {
          throw std::invalid_argument(
              "run_campaign: duplicate (benchmark, policy) pair '" + key +
              "' would overwrite its twin's results");
        }
      }
    }
  }

  CampaignResults out;
  out.benchmarks = benchmarks;
  out.policies = policies;
  out.results.resize(benchmarks.size());
  for (auto& row : out.results) row.resize(policies.size());

  // The caller is one of the `jobs` executors; more than one per cell
  // would only idle.
  const std::size_t cells = benchmarks.size() * policies.size();
  const std::size_t executors =
      std::min<std::size_t>(resolve_thread_count(base.jobs), cells);

  std::mutex progress_mu;
  // Cell c is (benchmark c / P, policy c % P). Which executor runs a cell,
  // and when, does not matter: each run writes only its own pre-sized slot.
  auto run_one = [&](std::size_t cell) {
    const std::size_t b = cell / policies.size();
    const std::size_t p = cell % policies.size();
    const std::string& bench = benchmarks[b];
    SimOptions opt = base;
    opt.policy = policies[p];
    // Every run gets its own seed so results do not depend on how the jobs
    // are scheduled across threads (and policies never share RNG streams).
    opt.seed = campaign_run_seed(base.seed, bench, policies[p]);
    // Runs in flight at once, which decides whether a run's stepper may
    // spin (Network::set_sim_threads); never a simulation input.
    opt.jobs = static_cast<unsigned>(executors);
    // The warm-up consumes the benchmark's own packet budget; scale it with
    // the budget so a reduced campaign still leaves the bulk of the trace
    // for the measured phase. Pre-training is pure cycle count, but a
    // reduced campaign should not pay the full-scale learning phase either.
    opt.warmup_cycles = opt.warmup_cycles * packet_budget_scale_pct / 100;
    opt.pretrain_cycles = opt.pretrain_cycles * packet_budget_scale_pct / 100;
    if (!base.record_workload.empty()) {
      // One capture file per run: a shared path would have concurrent jobs
      // overwriting each other's recordings.
      opt.record_workload =
          campaign_record_path(base.record_workload, bench, policies[p]);
    }

    const auto traffic = make_workload_traffic(
        bench, MeshTopology(opt.noc), Config{}, opt.seed,
        packet_budget_scale_pct);
    Simulator sim(opt);
    SimResult res = sim.run(*traffic);
    {
      std::lock_guard<std::mutex> lk(progress_mu);
      std::fprintf(stderr, "[campaign] %-13s %-8s exec=%llu lat=%.1f retx=%llu\n",
                   res.workload.c_str(), policy_name(policies[p]),
                   static_cast<unsigned long long>(res.execution_cycles),
                   res.avg_packet_latency,
                   static_cast<unsigned long long>(res.retransmitted_flits));
    }
    out.results[b][p] = std::move(res);
  };

  PhasePool pool(static_cast<unsigned>(executors > 0 ? executors - 1 : 0),
                 spin_fits(executors * resolve_thread_count(base.sim_threads),
                           hardware_threads()));
  pool.run(cells, run_one);
  return out;
}

double normalized_geomean(const CampaignResults& campaign,
                          const MetricFn& metric, std::size_t column) {
  double log_sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t b = 0; b < campaign.benchmarks.size(); ++b) {
    const double base = metric(campaign.at(b, 0));
    if (base <= 0.0) continue;
    log_sum += std::log(std::max(metric(campaign.at(b, column)) / base, 1e-12));
    ++counted;
  }
  return counted ? std::exp(log_sum / static_cast<double>(counted)) : 0.0;
}

void print_normalized_table(std::ostream& out, const CampaignResults& campaign,
                            const std::string& title, const MetricFn& metric,
                            bool higher_is_better) {
  out << "\n== " << title << " (normalized to "
      << policy_name(campaign.policies.front()) << ") ==\n";
  out << std::left << std::setw(14) << "benchmark";
  for (const PolicyKind p : campaign.policies)
    out << std::right << std::setw(10) << policy_name(p);
  out << '\n';

  std::size_t counted = 0;
  for (std::size_t b = 0; b < campaign.benchmarks.size(); ++b) {
    const double base = metric(campaign.at(b, 0));
    if (base <= 0.0) continue;
    ++counted;
    out << std::left << std::setw(14) << campaign.benchmarks[b];
    for (std::size_t p = 0; p < campaign.policies.size(); ++p) {
      out << std::right << std::setw(10) << std::fixed << std::setprecision(3)
          << metric(campaign.at(b, p)) / base;
    }
    out << '\n';
  }
  out << std::left << std::setw(14) << "geomean";
  for (std::size_t p = 0; p < campaign.policies.size(); ++p) {
    out << std::right << std::setw(10) << std::fixed << std::setprecision(3)
        << normalized_geomean(campaign, metric, p);
  }
  out << '\n';
  // Improvement summary for the last (proposed) column vs the baseline.
  if (counted > 0 && campaign.policies.size() > 1) {
    const double g_last =
        normalized_geomean(campaign, metric, campaign.policies.size() - 1);
    const double delta = higher_is_better ? (g_last - 1.0) * 100.0
                                          : (1.0 - g_last) * 100.0;
    out << "-- " << policy_name(campaign.policies.back())
        << (higher_is_better ? " improvement over " : " reduction vs ")
        << policy_name(campaign.policies.front()) << ": " << std::setprecision(1)
        << delta << "%\n";
  }
}

double metric_fault_retransmissions(const SimResult& r) {
  return static_cast<double>(r.retx_flits_e2e + r.retx_flits_hop);
}
double metric_exec_speedup_inverse(const SimResult& r) {
  return static_cast<double>(r.execution_cycles);
}
double metric_latency(const SimResult& r) { return r.avg_packet_latency; }
double metric_energy_efficiency(const SimResult& r) { return r.energy_efficiency; }
double metric_dynamic_power(const SimResult& r) { return r.avg_dynamic_power_w; }

std::vector<TableIIRow> table_ii_rows(const SimOptions& opt) {
  using std::to_string;
  // "1.000000" -> "1.0": the paper prints one decimal.
  const auto one_decimal = [](double v) { return to_string(v).substr(0, 3); };
  return {
      {"# of cores", "64 out-of-order",
       to_string(opt.noc.num_nodes()) + " (traffic endpoints)", false},
      {"technology", "32 nm", "32 nm (ORION-lite coefficients)", false},
      {"voltage", "1.0 V", one_decimal(opt.controller.voltage) + " V", true},
      {"frequency", "2.0 GHz", one_decimal(opt.power.clock_hz / 1e9) + " GHz",
       true},
      {"topology", "8x8 2D mesh",
       to_string(opt.noc.mesh_width) + "x" + to_string(opt.noc.mesh_height) +
           " 2D mesh",
       true},
      {"routing", "X-Y", "X-Y (dimension ordered)", false},
      {"router pipeline", "4-stage", "RC/VA/SA+ST + link (see DESIGN.md)",
       false},
      {"VCs per port", "4", to_string(opt.noc.vcs_per_port), true},
      {"flit size", "128 bits", to_string(BitVec128::kBits) + " bits", true},
      {"packet size", "4 flits", to_string(opt.noc.flits_per_packet) + " flits",
       true},
      {"RL time-step", "1000 cycles",
       to_string(opt.controller.step_cycles) + " cycles", true},
      {"RL alpha", "0.1", one_decimal(opt.rl.alpha), true},
      {"RL epsilon", "0.1", one_decimal(opt.rl.epsilon), true},
      {"pre-training", "1M cycles",
       to_string(opt.pretrain_cycles) + " cycles (pretrain_cycles=1000000: 1M)",
       false},
      {"warm-up", "300K cycles",
       to_string(opt.warmup_cycles) + " cycles (warmup_cycles=300000: 300K)",
       false},
      {"temperature band", "50-100 C",
       "ambient " + to_string(static_cast<int>(opt.thermal.ambient_c)) +
           " C, throttle " +
           to_string(static_cast<int>(opt.thermal.max_temp_c)) + " C",
       false},
  };
}

}  // namespace rlftnoc
