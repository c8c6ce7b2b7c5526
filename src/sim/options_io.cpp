#include "sim/options_io.h"

#include <sstream>
#include <stdexcept>

#include "fault/hard_faults.h"
#include "sim/campaign.h"

namespace rlftnoc {

PolicyKind policy_from_string(const std::string& s) {
  if (s == "crc" || s == "CRC") return PolicyKind::kStaticCrc;
  if (s == "arq" || s == "ARQ+ECC") return PolicyKind::kStaticArqEcc;
  if (s == "dt" || s == "DT") return PolicyKind::kDecisionTree;
  if (s == "rl" || s == "RL") return PolicyKind::kRl;
  if (s == "oracle" || s == "Oracle") return PolicyKind::kOracle;
  throw ConfigError("unknown policy '" + s + "' (crc|arq|dt|rl|oracle)");
}

std::string default_options_text() {
  const SimOptions d;
  std::ostringstream out;
  out << "policy = " << policy_name(d.policy) << '\n'
      << "workload = " << kDefaultWorkload << '\n'
      << "seed = " << d.seed << '\n'
      << "budget_pct = " << kDefaultBudgetPct << '\n'
      << "error_scale = " << d.error_scale << '\n'
      << "pretrain_cycles = " << d.pretrain_cycles << '\n'
      << "warmup_cycles = " << d.warmup_cycles << '\n'
      << "ctrl.step_cycles = " << d.controller.step_cycles << '\n'
      << "noc.mesh_width = " << d.noc.mesh_width << '\n'
      << "noc.mesh_height = " << d.noc.mesh_height << '\n'
      << "noc.vcs_per_port = " << d.noc.vcs_per_port << '\n';
  return out.str();
}

SimOptions sim_options_from_config(const Config& cfg) {
  SimOptions opt;
  opt.noc = NocConfig::from_config(cfg);
  if (cfg.contains("policy")) opt.policy = policy_from_string(cfg.get_string("policy"));
  cfg.read("seed", opt.seed);
  cfg.read("jobs", opt.jobs);
  cfg.read("sim_threads", opt.sim_threads);
  cfg.read("audit", opt.audit);
  cfg.read("audit_interval", opt.audit_interval);
  cfg.read("error_scale", opt.error_scale);
  if (cfg.contains("hard_faults")) {
    try {
      opt.hard_faults = parse_hard_faults(cfg.get_string("hard_faults"));
    } catch (const std::invalid_argument& e) {
      throw ConfigError(std::string("hard_faults: ") + e.what());
    }
    if (!opt.hard_faults.empty() &&
        opt.noc.routing == RoutingAlgorithm::kWestFirst) {
      throw ConfigError(
          "hard_faults requires xy, yx or adaptive routing (westfirst has no "
          "fault-adaptive fallback)");
    }
  }
  cfg.read("pretrain_cycles", opt.pretrain_cycles);
  cfg.read("warmup_cycles", opt.warmup_cycles);
  cfg.read("max_measure_cycles", opt.max_measure_cycles);
  cfg.read("freeze_rl_on_measure", opt.freeze_rl_on_measure);
  // Workload selection / capture (see src/workload): `workload` names a
  // synthetic pattern, parsec benchmark, built-in dependency-graph generator
  // or a workload file path; `record_workload` captures the run.
  cfg.read("workload", opt.workload);
  cfg.read("record_workload", opt.record_workload);
  cfg.read("per_port_state", opt.per_port_state);
  cfg.read("rl_shared_table", opt.rl_shared_table);

  // telemetry.* (see src/telemetry): `telemetry` switches the subsystem on
  // (the CLI spells it --trace; the key `trace` is taken by trace replay).
  cfg.read("telemetry", opt.telemetry.enabled);
  cfg.read("telemetry.dir", opt.telemetry.out_dir);
  cfg.read("metrics_interval", opt.telemetry.metrics_interval);
  cfg.read("telemetry.series_rows", opt.telemetry.series_rows);
  cfg.read("telemetry.trace_capacity", opt.telemetry.trace_capacity);

  cfg.read("rl.alpha", opt.rl.alpha);
  cfg.read("rl.gamma", opt.rl.gamma);
  cfg.read("rl.epsilon", opt.rl.epsilon);
  cfg.read("rl.optimistic_init", opt.rl.optimistic_init);
  cfg.read("rl.confidence_penalty", opt.rl.confidence_penalty);
  cfg.read("rl.action_cost_prior", opt.rl.action_cost_prior);

  cfg.read("ctrl.step_cycles", opt.controller.step_cycles);
  cfg.read("ctrl.voltage", opt.controller.voltage);
  cfg.read("ctrl.faults_enabled", opt.controller.faults_enabled);
  cfg.read("ctrl.core_base_w", opt.controller.core_base_w);
  cfg.read("ctrl.core_per_flit_w", opt.controller.core_per_flit_w);
  cfg.read("ctrl.reward_energy_weight", opt.controller.reward_energy_weight);
  cfg.read("ctrl.feature_ema_alpha", opt.controller.feature_ema_alpha);

  cfg.read("varius.nominal_delay", opt.varius.nominal_delay);
  cfg.read("varius.temp_coeff", opt.varius.temp_coeff);
  cfg.read("varius.util_coeff", opt.varius.util_coeff);
  cfg.read("varius.sigma", opt.varius.sigma);
  cfg.read("varius.droop_rate", opt.varius.droop_rate);
  cfg.read("varius.droop_scale", opt.varius.droop_scale);
  cfg.read("varius.droop_len", opt.varius.droop_len_traversals);

  cfg.read("thermal.ambient_c", opt.thermal.ambient_c);
  cfg.read("thermal.r_ambient", opt.thermal.r_ambient);
  cfg.read("thermal.r_lateral", opt.thermal.r_lateral);
  cfg.read("thermal.max_temp_c", opt.thermal.max_temp_c);

  cfg.read("power.leak_w_at_ref", opt.power.leak_w_at_ref);
  cfg.read("power.leak_temp_coeff", opt.power.leak_temp_coeff);

  cfg.read("thresholds.low", opt.thresholds.low);
  cfg.read("thresholds.medium", opt.thresholds.medium);
  cfg.read("thresholds.high", opt.thresholds.high);

  return opt;
}

}  // namespace rlftnoc
