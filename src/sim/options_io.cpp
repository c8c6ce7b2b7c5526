#include "sim/options_io.h"

#include <sstream>

#include "sim/campaign.h"
#include "workload/generators.h"

namespace rlftnoc {

PolicyKind policy_from_string(const std::string& s) {
  if (const auto k = parse_spelling<PolicyKind>(s)) return *k;
  throw ConfigError("unknown policy '" + s + "' (" + spelling_choices<PolicyKind>() +
                    ")");
}

std::string default_options_text() {
  std::ostringstream out;
  const OptionPrinter live{out}, generator{out, "# "};
  SimOptions sim;
  SyntheticWorkloadOptions synthetic;
  std::uint64_t budget_pct = kDefaultBudgetPct;  // rlftnoc_run's own key
  DnnWorkloadOptions dnn;
  RpcWorkloadOptions rpc;
  NackStormWorkloadOptions storm;
  visit_options(sim, live);
  visit_options(synthetic, live);
  live({"budget_pct", "PARSEC workloads: percent of each budget"}, budget_pct);
  out << "# Read only by workload = dnn, rpc or nackstorm:\n";
  visit_options(dnn, generator);
  visit_options(rpc, generator);
  visit_options(storm, generator, sim.noc.num_nodes());
  return out.str();
}

SimOptions sim_options_from_config(const Config& cfg) {
  SimOptions opt = options_from_config<SimOptions>(cfg);
  opt.noc.validate();
  if (!opt.hard_faults.empty() && opt.noc.routing == RoutingAlgorithm::kWestFirst)
    throw ConfigError("hard_faults requires xy, yx or adaptive routing (westfirst "
                      "has no fault-adaptive fallback)");
  return opt;
}

}  // namespace rlftnoc
