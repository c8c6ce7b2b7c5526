#include "sim/results_io.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rlftnoc {
namespace {

/// Columns written by write_row, in order; the TSV header prefixes them
/// with the (benchmark, policy) key.
constexpr const char* kRowColumns =
    "exec_cycles\ttotal_cycles\tdrained\tavg_latency\tp50_latency\t"
    "p95_latency\tp99_latency\tpackets_injected\t"
    "packets_delivered\tflits_delivered\tenqueue_drops\tunreachable_drops\t"
    "retx_total\tretx_e2e\t"
    "retx_hop\tdup_flits\tcrc_failures\tdyn_pj\tleak_pj\ttotal_pj\tefficiency\t"
    "dyn_power_w\ttotal_power_w\tavg_temp\tmax_temp\tmode0\tmode1\tmode2\t"
    "mode3\trl_entries\tdt_accuracy";

const std::string kHeader = std::string("benchmark\tpolicy\t") + kRowColumns;

/// Visits every SimResult scalar in kRowColumns order: the one column list
/// the row printer and the row parser both walk.
template <class Result, class Fn>
void for_each_column(Result& r, Fn&& f) {
  f(r.execution_cycles); f(r.total_cycles); f(r.drained);
  f(r.avg_packet_latency); f(r.p50_latency); f(r.p95_latency);
  f(r.p99_latency); f(r.packets_injected); f(r.packets_delivered);
  f(r.flits_delivered); f(r.enqueue_drops); f(r.unreachable_drops);
  f(r.retransmitted_flits); f(r.retx_flits_e2e); f(r.retx_flits_hop);
  f(r.dup_flits); f(r.crc_packet_failures); f(r.dynamic_energy_pj);
  f(r.leakage_energy_pj); f(r.total_energy_pj); f(r.energy_efficiency);
  f(r.avg_dynamic_power_w); f(r.avg_total_power_w); f(r.avg_temperature_c);
  f(r.max_temperature_c);
  for (auto& m : r.mode_fraction) f(m);
  f(r.rl_table_entries); f(r.dt_training_accuracy);
}

/// The one row printer: every SimResult scalar, tab-separated. Shortest
/// round-trippable decimal form, so read_results(write_results(x))
/// reproduces every double bit-for-bit and a cached campaign cannot drift
/// from a fresh one.
void write_row(std::ostream& out, const SimResult& r) {
  out.precision(std::numeric_limits<double>::max_digits10);
  const char* sep = "";
  for_each_column(r, [&](const auto& v) {
    out << sep << v;
    sep = "\t";
  });
}

PolicyKind policy_from_name(const std::string& name) {
  for (const PolicyKind k :
       {PolicyKind::kStaticCrc, PolicyKind::kStaticArqEcc, PolicyKind::kDecisionTree,
        PolicyKind::kRl, PolicyKind::kOracle}) {
    if (name == policy_name(k)) return k;
  }
  throw std::runtime_error("results_io: unknown policy name: " + name);
}

/// Index of `name` in `names`, in declaration order. Linear scan on purpose:
/// campaigns have a handful of benchmarks/policies, and a flat vector makes
/// the first-seen ordering (which report tables must follow) structural
/// rather than an accident of the lookup container.
std::size_t first_seen_index(const std::vector<std::string>& names,
                             const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  return static_cast<std::size_t>(it - names.begin());
}

}  // namespace

void PrintTo(const SimResult& r, std::ostream* os) {
  std::ostringstream row;
  write_row(row, r);
  std::istringstream names(kRowColumns);
  std::istringstream values(row.str());
  *os << r.workload << '/' << r.policy;
  std::string name;
  std::string value;
  while (std::getline(names, name, '\t') && std::getline(values, value, '\t'))
    *os << ' ' << name << '=' << value;
}

void write_results(std::ostream& out, const CampaignResults& results) {
  out << kHeader << '\n';
  for (std::size_t b = 0; b < results.benchmarks.size(); ++b) {
    for (std::size_t p = 0; p < results.policies.size(); ++p) {
      out << results.benchmarks[b] << '\t' << policy_name(results.policies[p])
          << '\t';
      write_row(out, results.at(b, p));
      out << '\n';
    }
  }
}

void write_results_file(const std::string& path, const CampaignResults& results) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("results_io: cannot write " + path);
  write_results(out, results);
}

CampaignResults read_results(std::istream& in) {
  // Leading `#` lines are annotations (the bench cache prepends an
  // options-hash comment); skip them before the header check.
  std::string header;
  while (std::getline(in, header)) {
    if (!header.empty() && header[0] != '#') break;
  }
  if (header != kHeader)
    throw std::runtime_error("results_io: header mismatch (stale cache?)");

  CampaignResults out;
  std::vector<std::string> policy_names;  // first-seen, mirrors out.policies
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string bench;
    std::string policy;
    SimResult r;
    if (!(std::getline(ls, bench, '\t') && std::getline(ls, policy, '\t')))
      throw std::runtime_error("results_io: malformed row");
    r.workload = bench;
    r.policy = policy;
    bool parsed = true;
    for_each_column(r, [&](auto& v) { parsed = parsed && (ls >> v); });
    if (!parsed) throw std::runtime_error("results_io: malformed row values");

    const std::size_t bi = first_seen_index(out.benchmarks, bench);
    if (bi == out.benchmarks.size()) {
      out.benchmarks.push_back(bench);
      out.results.emplace_back();
    }
    const std::size_t pi = first_seen_index(policy_names, policy);
    if (pi == policy_names.size()) {
      policy_names.push_back(policy);
      out.policies.push_back(policy_from_name(policy));
    }
    auto& row = out.results[bi];
    if (row.size() != pi)
      throw std::runtime_error("results_io: rows out of order");
    row.push_back(std::move(r));
  }
  if (out.benchmarks.empty()) throw std::runtime_error("results_io: empty file");
  for (const auto& row : out.results) {
    if (row.size() != out.policies.size())
      throw std::runtime_error("results_io: ragged results");
  }
  return out;
}

CampaignResults read_results_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("results_io: cannot open " + path);
  return read_results(in);
}

}  // namespace rlftnoc
