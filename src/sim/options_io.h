// SimOptions <-> flat Config mapping, so experiments are fully describable
// as `key = value` text (CLI, config files, sweep scripts).
//
// visit_options below declares every SimOptions key once (common/options.h);
// parsing, `--dump-defaults` and the telemetry manifest are visitors over
// it. Keys it does not declare stay unread; the caller owns workload keys
// etc. and rejects whatever nothing read (Config::unread_keys).
#pragma once

#include <string>

#include "common/config.h"
#include "common/options.h"
#include "fault/hard_faults.h"
#include "sim/simulator.h"

namespace rlftnoc {

/// Calls `v(spec, field)` for every SimOptions config key. `noc.*` ranges
/// are NocConfig::validate's, which also guards options built in C++.
template <class V>
void visit_options(SimOptions& o, V&& v) {
  v({"policy", "fault-tolerance policy"}, o.policy);
  v({"seed", "base RNG seed"}, o.seed);
  v({.key = "jobs", .doc = "campaign runs in flight (0: hardware threads)",
     .recorded = false}, o.jobs);
  v({.key = "sim_threads", .doc = "threads per run (0: hardware threads)",
     .recorded = false}, o.sim_threads);
  v({"audit", "check the network invariants while running"}, o.audit);
  v({"audit_interval", "cycles between audit sweeps", 1}, o.audit_interval);
  v({"error_scale", "multiplier on injected error probabilities", 0}, o.error_scale);
  v({"hard_faults", "dead links/routers: link:N:P[@C], router:N[@C]"}, o.hard_faults);
  v({"pretrain_cycles", "learning-policy pre-training cycles"}, o.pretrain_cycles);
  v({"warmup_cycles", "warm-up cycles, metrics discarded"}, o.warmup_cycles);
  v({"max_measure_cycles", "measure-phase livelock guard", 1}, o.max_measure_cycles);
  v({"freeze_rl_on_measure", "RL greedy while measured"}, o.freeze_rl_on_measure);
  v({"workload", "pattern, PARSEC, dnn|rpc|nackstorm or file; empty: uniform"},
    o.workload);
  v({.key = "record_workload", .doc = "capture the run into this workload file",
     .recorded = false}, o.record_workload);
  v({"per_port_state", "paper-literal Table I per-port RL state"}, o.per_port_state);
  v({"rl_shared_table", "one Q-table for all routers"}, o.rl_shared_table);
  v({"telemetry", "write trace, metrics, heatmaps, manifest"}, o.telemetry.enabled);
  v({.key = "telemetry.dir", .doc = "telemetry output directory", .recorded = false},
    o.telemetry.out_dir);
  v({"metrics_interval", "cycles per metric sample", 1}, o.telemetry.metrics_interval);
  v({"telemetry.series_rows", "metric samples kept", 1}, o.telemetry.series_rows);
  v({"telemetry.trace_capacity", "trace events kept", 1}, o.telemetry.trace_capacity);
  v({"rl.alpha", "Q-learning rate", 0, 1}, o.rl.alpha);
  v({"rl.gamma", "Q-learning discount", 0, 1}, o.rl.gamma);
  v({"rl.epsilon", "exploration probability", 0, 1}, o.rl.epsilon);
  v({"rl.optimistic_init", "Q-value of an unvisited state"}, o.rl.optimistic_init);
  v({"rl.confidence_penalty", "greedy-rule pessimism", 0}, o.rl.confidence_penalty);
  v({"rl.action_cost_prior", "greedy-rule cost tie-break", 0}, o.rl.action_cost_prior);
  v({"ctrl.step_cycles", "cycles per control step", 1}, o.controller.step_cycles);
  v({"thermal.ambient_c", "ambient temperature (C)"}, o.thermal.ambient_c);
  v({"thermal.max_temp_c", "thermal-throttle ceiling (C)"}, o.thermal.max_temp_c);
  v({"noc.mesh_width", "mesh columns"}, o.noc.mesh_width);
  v({"noc.mesh_height", "mesh rows"}, o.noc.mesh_height);
  v({"noc.topology", "network shape"}, o.noc.topology);
  v({"noc.routing", "route computation"}, o.noc.routing);
  v({"noc.vcs_per_port", "virtual channels per port"}, o.noc.vcs_per_port);
  v({"noc.vc_depth", "flit slots per VC buffer"}, o.noc.vc_depth);
  v({"noc.flits_per_packet", "flits per packet"}, o.noc.flits_per_packet);
  v({"noc.retention_depth", "ARQ retention entries per port"}, o.noc.retention_depth);
}

/// Builds SimOptions from a flat Config; missing keys keep defaults.
/// Malformed or out-of-range values throw ConfigError naming the key and
/// value; structural parameters NocConfig::validate rejects throw
/// std::invalid_argument.
SimOptions sim_options_from_config(const Config& cfg);

/// The `key = value` defaults rlftnoc_run starts from (its --dump-defaults
/// output), one line per declared key with its meaning and range. The live
/// lines parse back to the SimOptions and workload of an empty config; the
/// generator keys, which that workload does not read, are commented out.
std::string default_options_text();

/// Parses a policy spelling ("crc" | "arq" | "dt" | "rl" | "oracle", or the
/// display names used in result files); throws ConfigError otherwise.
PolicyKind policy_from_string(const std::string& s);

}  // namespace rlftnoc
