// Experiment campaign runner: executes a benchmark suite across policies
// and renders the normalized tables behind Figs. 6-10.
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/options.h"
#include "sim/simulator.h"
#include "traffic/parsec.h"

namespace rlftnoc {

/// One grid of results: row = benchmark, column = policy.
struct CampaignResults {
  std::vector<std::string> benchmarks;
  std::vector<PolicyKind> policies;
  /// results[b][p] aligned with the vectors above.
  std::vector<std::vector<SimResult>> results;

  const SimResult& at(std::size_t bench, std::size_t pol) const {
    return results.at(bench).at(pol);
  }
};

/// Extracts the metric a figure plots from one run.
using MetricFn = std::function<double(const SimResult&)>;

/// What an empty workload selector means.
inline constexpr const char* kDefaultWorkload = "uniform";
/// PARSEC packet-budget percentage when none is given (full budgets).
inline constexpr std::uint64_t kDefaultBudgetPct = 100;

/// The run-config keys of a synthetic pattern (make_workload_traffic).
struct SyntheticWorkloadOptions {
  double injection_rate = 0.06;   ///< flits/node/cycle
  std::uint64_t packets = 50000;  ///< packets to inject
};

template <class V>
void visit_options(SyntheticWorkloadOptions& o, V&& v) {
  v({"injection_rate", "synthetic patterns: flits/node/cycle", 0, 1, true},
    o.injection_rate);
  v({"packets", "synthetic patterns: packets to inject", 1}, o.packets);
}

/// Resolves a workload selector into the run's traffic, for single runs and
/// campaign cells alike. Tried in order: an rlftnoc-workload-v1 file path
/// and a built-in generator ("dnn", "rpc", "nackstorm"; wl.* keys of
/// `wl_cfg`), both replayed with dependency gating; a PARSEC profile, its
/// packet budget scaled by `budget_pct` but never below one packet; a
/// synthetic pattern (SyntheticWorkloadOptions of `wl_cfg`). An empty
/// selector means kDefaultWorkload; any other name throws
/// std::invalid_argument.
std::unique_ptr<TrafficGenerator> make_workload_traffic(
    const std::string& selector, const MeshTopology& topo,
    const Config& wl_cfg, std::uint64_t seed, std::uint64_t budget_pct);

/// Seed for one (benchmark, policy) run of a campaign: the base experiment
/// seed XOR a hash of the configuration's identity. Every run gets its own
/// deterministic stream, so campaign results are bit-identical regardless
/// of `SimOptions::jobs` or the order jobs happen to finish in.
std::uint64_t campaign_run_seed(std::uint64_t base_seed,
                                const std::string& benchmark, PolicyKind pol);

/// Runs every (benchmark, policy) pair, `base.jobs` configurations at a
/// time (1 = serial, 0 = one job per hardware thread; never more than the
/// grid size). Each job derives its seed via campaign_run_seed() and writes
/// into its own results slot, so output is independent of thread count. If
/// a run throws, the remaining runs still complete and the first exception
/// is rethrown. `packet_budget_scale_pct` scales
/// the packet budget (clamped to at least one packet) and the pretrain /
/// warm-up phase lengths together. Progress lines go to stderr, one
/// complete line per finished run.
///
/// Benchmark entries are workload selectors resolved by
/// make_workload_traffic with an empty wl_cfg (generators and synthetic
/// patterns run with their default options). Replayed workloads — files and
/// generators — are their own budget: packet_budget_scale_pct does not
/// scale them. When
/// `base.record_workload` is set, each run captures into a derived path
/// with "-<benchmark>_<policy>" inserted before the extension.
CampaignResults run_campaign(const SimOptions& base,
                             const std::vector<std::string>& benchmarks,
                             const std::vector<PolicyKind>& policies,
                             std::uint64_t packet_budget_scale_pct =
                                 kDefaultBudgetPct);

/// The derived per-run record_workload path: "-<benchmark>_<policy>"
/// (sanitized) inserted before the filename's extension.
std::string campaign_record_path(const std::string& base_path,
                                 const std::string& benchmark, PolicyKind pol);

/// Geometric mean over benchmarks of metric(policy column) / metric(first
/// column): the "average normalized bar" of a figure (the paper normalizes
/// everything to the CRC baseline). A row whose baseline is <= 0 is skipped
/// and a zero value counts as 1e-12; 0.0 when no row counts.
double normalized_geomean(const CampaignResults& campaign,
                          const MetricFn& metric, std::size_t column);

/// Prints a per-benchmark table of `metric`, normalized to the first policy
/// column, plus the normalized_geomean row; rows normalized_geomean skips
/// are left out. `higher_is_better` flips the improvement arithmetic in the
/// summary line.
void print_normalized_table(std::ostream& out, const CampaignResults& campaign,
                            const std::string& title, const MetricFn& metric,
                            bool higher_is_better);

/// Metric extractors matching the paper's figures.
double metric_fault_retransmissions(const SimResult& r);  ///< e2e + hop re-sends
double metric_exec_speedup_inverse(const SimResult& r);  ///< execution cycles
double metric_latency(const SimResult& r);
double metric_energy_efficiency(const SimResult& r);
double metric_dynamic_power(const SimResult& r);

enum class FigureDirection {
  kLowerIsBetter,
  kHigherIsBetter,
  /// The metric is a time; the figure plots its inverse, the speed-up.
  kSpeedup,
};

/// One of the paper's Figs. 6-10: what it plots and what the paper reports,
/// each normalized to CRC. Fig. 6 counts fault-caused re-sends only
/// (end-to-end plus NACK-triggered link resends); mode-2 duplicates are
/// deliberate traffic.
struct PaperFigure {
  int number;
  const char* title;
  double (*metric)(const SimResult&);
  FigureDirection direction;
  std::array<double, 3> paper;  ///< ARQ+ECC, DT, RL

  bool higher_is_better() const {
    return direction == FigureDirection::kHigherIsBetter;
  }
};

inline constexpr PaperFigure kPaperFigures[] = {
    {6, "fault-caused retransmitted flits", metric_fault_retransmissions,
     FigureDirection::kLowerIsBetter, {0.67, 0.60, 0.52}},
    {7, "execution time", metric_exec_speedup_inverse,
     FigureDirection::kSpeedup, {1.15, 1.15, 1.25}},
    {8, "average end-to-end latency", metric_latency,
     FigureDirection::kLowerIsBetter, {0.70, 0.50, 0.45}},
    {9, "energy efficiency", metric_energy_efficiency,
     FigureDirection::kHigherIsBetter, {1.25, 1.49, 1.64}},
    {10, "dynamic power", metric_dynamic_power,
     FigureDirection::kLowerIsBetter, {0.75, 0.65, 0.54}},
};

/// One row of the paper's Table II (simulation parameters): the paper's
/// value next to this build's. A must-match row's two strings must be equal;
/// the other rows differ by design (DESIGN.md, EXPERIMENTS.md).
struct TableIIRow {
  const char* parameter;
  const char* paper;
  std::string ours;
  bool must_match;

  bool matches() const { return !must_match || ours == paper; }
};

/// Table II with this build's values read from `opt` (a default SimOptions
/// is the campaign configuration).
std::vector<TableIIRow> table_ii_rows(const SimOptions& opt);

}  // namespace rlftnoc
