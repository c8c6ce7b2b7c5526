// rlftnoc_report — renders a cached campaign (campaign_results.tsv) as a
// Markdown report: one table per figure of the paper, normalized to the CRC
// baseline, plus the raw per-run data.
//
//   rlftnoc_report [campaign_results.tsv] [--telemetry DIR] > report.md
//
// With --telemetry, the report also renders every run's telemetry found in
// DIR (written by --trace runs; see src/telemetry): one summary table per
// *.metrics.tsv with an ASCII sparkline of each metric over time, and every
// *.heatmap.*.tsv as a preformatted grid.
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

void markdown_table(const CampaignResults& res, const char* title,
                    const MetricFn& metric, bool higher_is_better) {
  std::printf("\n## %s\n\n", title);
  std::printf("| benchmark |");
  for (const PolicyKind p : res.policies) std::printf(" %s |", policy_name(p));
  std::printf("\n|---|");
  for (std::size_t i = 0; i < res.policies.size(); ++i) std::printf("---|");
  std::printf("\n");

  std::vector<double> geo(res.policies.size(), 0.0);
  std::size_t counted = 0;
  for (std::size_t b = 0; b < res.benchmarks.size(); ++b) {
    const double base = metric(res.at(b, 0));
    if (base <= 0.0) continue;
    ++counted;
    std::printf("| %s |", res.benchmarks[b].c_str());
    for (std::size_t p = 0; p < res.policies.size(); ++p) {
      const double norm = metric(res.at(b, p)) / base;
      geo[p] += std::log(std::max(norm, 1e-12));
      std::printf(" %.3f |", norm);
    }
    std::printf("\n");
  }
  std::printf("| **geomean** |");
  for (std::size_t p = 0; p < res.policies.size(); ++p) {
    std::printf(" **%.3f** |",
                counted ? std::exp(geo[p] / static_cast<double>(counted)) : 0.0);
  }
  std::printf("\n");
  std::printf("\n*(normalized to %s; %s is better)*\n",
              policy_name(res.policies.front()),
              higher_is_better ? "higher" : "lower");
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
    } else {
      path = arg;
    }
  }
  if (path.empty()) path = "campaign_results.tsv";

  CampaignResults res;
  try {
    res = read_results_file(path);
  } catch (const std::exception& e) {
    // Telemetry-only reports are fine without a campaign cache.
    if (!telemetry_dir.empty()) {
      std::printf("# rlftnoc telemetry report\n");
      render_telemetry_dir(telemetry_dir);
      return 0;
    }
    std::fprintf(stderr,
                 "rlftnoc_report: %s\nrun bench_paper_figures first to produce "
                 "the campaign cache\n",
                 e.what());
    return 2;
  }

  std::printf("# rlftnoc campaign report\n");
  std::printf("\n%zu benchmarks x %zu policies (source: %s)\n",
              res.benchmarks.size(), res.policies.size(), path.c_str());

  markdown_table(res, "Fig. 6 — fault-caused retransmitted flits",
                 [](const SimResult& r) {
                   return static_cast<double>(r.retx_flits_e2e + r.retx_flits_hop);
                 },
                 false);
  markdown_table(res, "Fig. 7 — execution time", metric_exec_speedup_inverse,
                 false);
  markdown_table(res, "Fig. 8 — average end-to-end latency", metric_latency,
                 false);
  markdown_table(res, "Fig. 9 — energy efficiency", metric_energy_efficiency,
                 true);
  markdown_table(res, "Fig. 10 — dynamic power", metric_dynamic_power, false);

  std::printf("\n## Raw per-run data\n\n");
  std::printf("| benchmark | policy | exec (cyc) | latency | fault retx | dup "
              "| eff (flits/nJ) | dyn (W) | T avg/max | modes 0/1/2/3 |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|---|\n");
  for (std::size_t b = 0; b < res.benchmarks.size(); ++b) {
    for (std::size_t p = 0; p < res.policies.size(); ++p) {
      const SimResult& r = res.at(b, p);
      std::printf("| %s | %s | %llu | %.1f | %llu | %llu | %.2f | %.3f | "
                  "%.0f/%.0f | %.2f/%.2f/%.2f/%.2f |\n",
                  r.workload.c_str(), r.policy.c_str(),
                  static_cast<unsigned long long>(r.execution_cycles),
                  r.avg_packet_latency,
                  static_cast<unsigned long long>(r.retx_flits_e2e + r.retx_flits_hop),
                  static_cast<unsigned long long>(r.dup_flits),
                  r.energy_efficiency, r.avg_dynamic_power_w, r.avg_temperature_c,
                  r.max_temperature_c, r.mode_fraction[0], r.mode_fraction[1],
                  r.mode_fraction[2], r.mode_fraction[3]);
    }
  }

  if (!telemetry_dir.empty()) render_telemetry_dir(telemetry_dir);
  return 0;
}
