// SimOptions <-> flat Config mapping, so experiments are fully describable
// as `key = value` text (CLI, config files, sweep scripts).
//
// Key namespaces: top-level experiment keys (policy, seed, jobs,
// error_scale, phase lengths), `noc.*` (NocConfig::from_config), `rl.*` (Q-learning
// hyper-parameters), `ctrl.*` (controller/coupling), `varius.*`,
// `thermal.*`, `power.leak_*`. Keys it does not know stay unread; the
// caller owns workload keys etc. and rejects whatever nothing read
// (Config::unread_keys).
#pragma once

#include <string>

#include "common/config.h"
#include "sim/simulator.h"

namespace rlftnoc {

/// Builds SimOptions from a flat Config; missing keys keep defaults,
/// malformed values throw ConfigError, out-of-range structural parameters
/// throw std::invalid_argument (NocConfig::validate).
SimOptions sim_options_from_config(const Config& cfg);

/// The `key = value` defaults rlftnoc_run starts from (its --dump-defaults
/// output): parsing them back yields the same SimOptions and workload
/// selector as an empty config.
std::string default_options_text();

/// Parses a policy spelling ("crc" | "arq" | "dt" | "rl" | "oracle", or the
/// display names used in result files); throws ConfigError otherwise.
PolicyKind policy_from_string(const std::string& s);

}  // namespace rlftnoc
