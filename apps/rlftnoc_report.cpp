// rlftnoc_report — renders a campaign's raw results (the results_out TSV of
// `rlftnoc_run configs/paper_campaign.cfg`) as a Markdown report: Table II
// (this build's parameters next to the paper's), one table per figure of
// the paper, normalized to the CRC baseline, with the paper's values under
// the measured geomean, plus the raw per-run data.
//
//   rlftnoc_report [campaign_results.tsv] [--telemetry DIR] > report.md
//
// With --telemetry, the report also renders every run's telemetry found in
// DIR (written by --trace runs; see src/telemetry): one summary table per
// *.metrics.tsv with an ASCII sparkline of each metric over time, and every
// *.heatmap.*.tsv as a preformatted grid. An unknown flag or a second
// results file exits 2, naming the argument.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/results_io.h"

using namespace rlftnoc;

namespace {

void table_ii_section() {
  std::printf("\n## Table II — simulation parameters\n\n");
  std::printf("| parameter | paper | this build | check |\n|---|---|---|---|\n");
  int drifted = 0;
  for (const TableIIRow& row : table_ii_rows(SimOptions{})) {
    drifted += row.matches() ? 0 : 1;
    std::printf("| %s | %s | %s | %s |\n", row.parameter, row.paper,
                row.ours.c_str(),
                !row.must_match ? "not checked"
                : row.matches() ? "match"
                                : "**MISMATCH**");
  }
  if (drifted == 0) {
    std::printf("\n*(every checked parameter matches Table II)*\n");
  } else {
    std::printf("\n**%d checked parameter(s) drifted from Table II**\n", drifted);
  }
}

/// The paper's bar for `p` in a figure table's own normalization (Fig. 7:
/// execution time, the inverse of the plotted speed-up); NaN where the
/// paper has no bar.
double paper_bar(const PaperFigure& f, PolicyKind p) {
  double v = std::nan("");
  switch (p) {
    case PolicyKind::kStaticCrc: v = 1.0; break;
    case PolicyKind::kStaticArqEcc: v = f.paper[0]; break;
    case PolicyKind::kDecisionTree: v = f.paper[1]; break;
    case PolicyKind::kRl: v = f.paper[2]; break;
    default: break;
  }
  return f.direction == FigureDirection::kSpeedup ? 1.0 / v : v;
}

void markdown_table(const CampaignResults& res, const PaperFigure& f) {
  std::printf("\n## Fig. %d — %s\n\n", f.number, f.title);
  std::printf("| benchmark |");
  for (const PolicyKind p : res.policies) std::printf(" %s |", policy_name(p));
  std::printf("\n|---|");
  for (std::size_t i = 0; i < res.policies.size(); ++i) std::printf("---|");
  std::printf("\n");

  // Cells normalized_geomean floors to 1e-12, per policy column.
  std::vector<std::size_t> zero_cells(res.policies.size(), 0);
  for (std::size_t b = 0; b < res.benchmarks.size(); ++b) {
    const double base = f.metric(res.at(b, 0));
    if (base <= 0.0) continue;
    std::printf("| %s |", res.benchmarks[b].c_str());
    for (std::size_t p = 0; p < res.policies.size(); ++p) {
      const double norm = f.metric(res.at(b, p)) / base;
      if (norm < 1e-12) ++zero_cells[p];
      std::printf(" %.3f |", norm);
    }
    std::printf("\n");
  }
  std::printf("| **geomean** |");
  for (std::size_t p = 0; p < res.policies.size(); ++p)
    std::printf(" **%.3f** |", normalized_geomean(res, f.metric, p));
  std::printf("\n| *paper* |");
  const double paper_base = paper_bar(f, res.policies.front());
  for (const PolicyKind p : res.policies) {
    const double v = paper_bar(f, p) / paper_base;
    if (std::isnan(v)) {
      std::printf(" — |");
    } else {
      std::printf(" *%.3f* |", v);
    }
  }
  std::printf("\n");
  std::printf("\n*(normalized to %s; %s is better. The geomean skips a row "
              "whose %s value is 0 and counts a zero cell as 1e-12; zero "
              "cells:",
              policy_name(res.policies.front()),
              f.higher_is_better() ? "higher" : "lower",
              policy_name(res.policies.front()));
  for (std::size_t p = 0; p < res.policies.size(); ++p) {
    std::printf("%s %s %zu", p == 0 ? "" : ",", policy_name(res.policies[p]),
                zero_cells[p]);
  }
  std::printf("%s)*\n", f.direction == FigureDirection::kSpeedup
                             ? "; the paper row is 1 / the paper's speed-up"
                             : "");
}

/// One metric's per-sample aggregate (mean over routers/ports per cycle).
struct MetricSeries {
  std::vector<double> values;  ///< one aggregate per sample row, time order
  double min = 0.0, max = 0.0, last = 0.0;
};

/// Eight-level ASCII sparkline of `v` scaled to its own [min, max].
std::string sparkline(const std::vector<double>& v, std::size_t max_chars) {
  static const char levels[] = " .:-=+*#";
  if (v.empty()) return "";
  double lo = v.front(), hi = v.front();
  for (const double x : v) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  // Downsample long series by striding so the line fits a report column.
  const std::size_t stride = std::max<std::size_t>(1, v.size() / max_chars);
  std::string out;
  for (std::size_t i = 0; i < v.size(); i += stride) {
    const double norm = hi > lo ? (v[i] - lo) / (hi - lo) : 0.0;
    out += levels[static_cast<std::size_t>(norm * 7.0 + 0.5)];
  }
  return out;
}

/// Renders one <label>.metrics.tsv as a per-metric summary table.
void render_metrics_file(const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) return;
  std::string line;
  std::getline(in, line);  // header
  // metric -> cycle -> (sum, count); std::map keeps output deterministic.
  std::map<std::string, std::map<long long, std::pair<double, long long>>> acc;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::string cycle_s, metric, router_s, port_s, value_s;
    if (!std::getline(ss, cycle_s, '\t') || !std::getline(ss, metric, '\t') ||
        !std::getline(ss, router_s, '\t') || !std::getline(ss, port_s, '\t') ||
        !std::getline(ss, value_s, '\t')) {
      continue;
    }
    auto& cell = acc[metric][std::stoll(cycle_s)];
    cell.first += std::stod(value_s);
    ++cell.second;
  }
  if (acc.empty()) return;

  std::printf("\n### %s\n\n", file.filename().string().c_str());
  std::printf("| metric | min | max | last | trend |\n|---|---|---|---|---|\n");
  for (const auto& [metric, by_cycle] : acc) {
    MetricSeries s;
    for (const auto& [cycle, cell] : by_cycle) {
      (void)cycle;
      s.values.push_back(cell.first / static_cast<double>(cell.second));
    }
    s.min = *std::min_element(s.values.begin(), s.values.end());
    s.max = *std::max_element(s.values.begin(), s.values.end());
    s.last = s.values.back();
    std::printf("| %s | %.4g | %.4g | %.4g | `%s` |\n", metric.c_str(), s.min,
                s.max, s.last, sparkline(s.values, 48).c_str());
  }
  std::printf(
      "\n*(per-router metrics averaged over routers; counters are "
      "per-interval deltas)*\n");
}

void render_heatmap_file(const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) return;
  std::printf("\n### %s\n\n```\n", file.filename().string().c_str());
  std::string line;
  while (std::getline(in, line)) std::printf("%s\n", line.c_str());
  std::printf("```\n");
}

/// Renders every run's telemetry found in `dir` (sorted for determinism).
void render_telemetry_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> metrics, heatmaps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 12 && name.rfind(".metrics.tsv") == name.size() - 12) {
      metrics.push_back(entry.path());
    } else if (name.find(".heatmap.") != std::string::npos &&
               name.rfind(".tsv") == name.size() - 4) {
      heatmaps.push_back(entry.path());
    }
  }
  if (ec) {
    std::fprintf(stderr, "rlftnoc_report: cannot read telemetry dir %s: %s\n",
                 dir.c_str(), ec.message().c_str());
    return;
  }
  std::sort(metrics.begin(), metrics.end());
  std::sort(heatmaps.begin(), heatmaps.end());

  std::printf("\n## Telemetry (%s)\n", dir.c_str());
  if (metrics.empty() && heatmaps.empty())
    std::printf("\nno telemetry files found\n");
  for (const auto& f : metrics) render_metrics_file(f);
  for (const auto& f : heatmaps) render_heatmap_file(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string telemetry_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--telemetry") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rlftnoc_report: --telemetry needs a directory\n");
        return 2;
      }
      telemetry_dir = argv[++i];
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      telemetry_dir = arg.substr(12);
    } else if (arg.rfind('-', 0) == 0) {
      std::fprintf(stderr,
                   "rlftnoc_report: unknown flag '%s' (supported: --telemetry "
                   "DIR)\n",
                   arg.c_str());
      return 2;
    } else if (!path.empty()) {
      std::fprintf(stderr,
                   "rlftnoc_report: one results file only, got '%s' after "
                   "'%s'\n",
                   arg.c_str(), path.c_str());
      return 2;
    } else {
      path = arg;
    }
  }
  if (path.empty()) path = "campaign_results.tsv";

  CampaignResults res;
  try {
    res = read_results_file(path);
  } catch (const std::exception& e) {
    // Telemetry-only reports are fine without campaign results.
    if (!telemetry_dir.empty()) {
      std::printf("# rlftnoc telemetry report\n");
      render_telemetry_dir(telemetry_dir);
      return 0;
    }
    std::fprintf(stderr,
                 "rlftnoc_report: %s\nrun `rlftnoc_run "
                 "configs/paper_campaign.cfg` first to produce the campaign "
                 "results\n",
                 e.what());
    return 2;
  }

  std::printf("# rlftnoc campaign report\n");
  std::printf("\n%zu benchmarks x %zu policies (source: %s)\n",
              res.benchmarks.size(), res.policies.size(), path.c_str());

  table_ii_section();
  for (const PaperFigure& f : kPaperFigures) markdown_table(res, f);

  std::printf("\n## Raw per-run data\n\n");
  std::printf("| benchmark | policy | exec (cyc) | latency | fault retx | dup "
              "| eff (flits/nJ) | dyn (uJ) | leak (uJ) | dyn (W) | T avg/max "
              "| modes 0/1/2/3 |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
  for (std::size_t b = 0; b < res.benchmarks.size(); ++b) {
    for (std::size_t p = 0; p < res.policies.size(); ++p) {
      const SimResult& r = res.at(b, p);
      std::printf("| %s | %s | %llu | %.1f | %llu | %llu | %.2f | %.2f | %.2f "
                  "| %.3f | %.0f/%.0f | %.2f/%.2f/%.2f/%.2f |\n",
                  r.workload.c_str(), r.policy.c_str(),
                  static_cast<unsigned long long>(r.execution_cycles),
                  r.avg_packet_latency,
                  static_cast<unsigned long long>(r.retx_flits_e2e + r.retx_flits_hop),
                  static_cast<unsigned long long>(r.dup_flits),
                  r.energy_efficiency, r.dynamic_energy_pj * 1e-6,
                  r.leakage_energy_pj * 1e-6, r.avg_dynamic_power_w,
                  r.avg_temperature_c, r.max_temperature_c, r.mode_fraction[0],
                  r.mode_fraction[1], r.mode_fraction[2], r.mode_fraction[3]);
    }
  }

  if (!telemetry_dir.empty()) render_telemetry_dir(telemetry_dir);
  return 0;
}
