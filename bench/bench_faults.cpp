// Hard-fault sweep benchmark: throughput/latency degradation vs the
// fraction of failed links on an 8x8 torus with fault-adaptive routing.
//
// For each fraction in the sweep a deterministic sample of undirected links
// (node, port in {E, N} — each physical wire exactly once) is killed at
// t = 0, a pinned uniform workload runs to drain, and the JSON (schema
// rlftnoc-bench-faults-v1) records delivery, latency and unreachable-drop
// numbers per cell. The 0% cell doubles as the baseline every other cell is
// normalized against. Every faulted cell is also re-run at sim_threads=4
// and cross-checked against the serial results — the stepper's bit-identity
// contract must hold under hard faults too, so any divergence is a hard
// failure, exactly like bench_scaling.
//
// The configuration is pinned; --out=PATH is the only knob.
// tools/bench_summary.py prints the sweep table from the JSON.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"

namespace {

using namespace rlftnoc;

constexpr std::uint64_t kSeed = 23;
constexpr int kWidth = 8;
constexpr std::uint64_t kPackets = 4000;
constexpr double kFractions[] = {0.0, 0.02, 0.05, 0.10};

struct Cell {
  double fraction = 0.0;
  int links_killed = 0;
  double wall_seconds = 0.0;
  SimResult r;
};

/// Deterministic sample of `count` distinct undirected torus links. Each
/// wire appears once as (node, E) or (node, N) — on a torus every node owns
/// exactly its east and north wire, so the universe has 2 * W * H entries.
std::vector<HardFault> sample_links(int count, std::uint64_t seed) {
  std::vector<HardFault> all;
  for (NodeId n = 0; n < kWidth * kWidth; ++n) {
    for (const Port p : {Port::kEast, Port::kNorth}) {
      HardFault f;
      f.kind = HardFault::Kind::kLink;
      f.node = n;
      f.port = p;
      all.push_back(f);
    }
  }
  Rng rng(seed, "bench_faults");
  // Partial Fisher-Yates: the first `count` entries are the sample.
  for (int i = 0; i < count && i < static_cast<int>(all.size()); ++i) {
    const auto j = i + static_cast<int>(rng.next_below(all.size() - static_cast<std::size_t>(i)));
    std::swap(all[static_cast<std::size_t>(i)], all[static_cast<std::size_t>(j)]);
  }
  all.resize(static_cast<std::size_t>(count));
  return all;
}

SimOptions make_options(const std::vector<HardFault>& faults,
                        unsigned sim_threads) {
  SimOptions opt;
  opt.seed = kSeed;
  opt.policy = PolicyKind::kStaticArqEcc;  // no RL updates: isolates routing
  opt.sim_threads = sim_threads;
  opt.noc.mesh_width = kWidth;
  opt.noc.mesh_height = kWidth;
  opt.noc.topology = TopologyKind::kTorus;
  opt.noc.routing = RoutingAlgorithm::kAdaptive;  // fault-adaptive up*/down*
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 0;
  opt.hard_faults = faults;
  return opt;
}

SimResult run_cell(const std::vector<HardFault>& faults, unsigned sim_threads,
                   double& wall_seconds) {
  const SimOptions opt = make_options(faults, sim_threads);
  Simulator sim(opt);
  SyntheticTraffic::Options to;
  to.injection_rate = 0.05;
  to.total_packets = kPackets;
  SyntheticTraffic gen(MeshTopology(opt.noc), to, opt.seed);
  SimResult r;
  wall_seconds = bench::time_seconds([&] { r = sim.run(gen); });
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      bench::out_path_arg(argc, argv, "BENCH_faults.json");

  const int total_links = 2 * kWidth * kWidth;
  std::fprintf(stderr,
               "[bench_faults] %dx%d torus, adaptive routing, %d undirected "
               "links, seed %llu\n",
               kWidth, kWidth, total_links,
               static_cast<unsigned long long>(kSeed));

  std::vector<Cell> cells;
  bool identical = true;
  double base_delivered = 0.0;
  for (const double frac : kFractions) {
    Cell c;
    c.fraction = frac;
    c.links_killed = static_cast<int>(frac * total_links + 0.5);
    const std::vector<HardFault> faults = sample_links(c.links_killed, kSeed);
    c.r = run_cell(faults, 1, c.wall_seconds);
    if (frac == 0.0) base_delivered = static_cast<double>(c.r.packets_delivered);
    if (!faults.empty()) {
      double mt_wall = 0.0;
      const SimResult mt = run_cell(faults, 4, mt_wall);
      if (mt != c.r) {
        identical = false;
        std::fprintf(stderr,
                     "[bench_faults] DIVERGENCE: %d dead links, "
                     "sim_threads=4 differs from serial\n",
                     c.links_killed);
      }
    }
    std::printf(
        "faults %5.1f%%  (%2d links)  delivered %5llu/%5llu  "
        "unreachable %4llu  latency %7.2f  cycles %8llu  %s\n",
        frac * 100.0, c.links_killed,
        static_cast<unsigned long long>(c.r.packets_delivered),
        static_cast<unsigned long long>(c.r.packets_injected),
        static_cast<unsigned long long>(c.r.unreachable_drops),
        c.r.avg_packet_latency,
        static_cast<unsigned long long>(c.r.total_cycles),
        c.r.drained ? "drained" : "NOT DRAINED");
    cells.push_back(c);
  }

  // Degradation sanity: every faulted cell must still move real traffic.
  bool nonzero = true;
  for (const Cell& c : cells) {
    if (c.r.packets_delivered == 0) {
      nonzero = false;
      std::fprintf(stderr,
                   "[bench_faults] FAILURE: zero throughput at %d dead links\n",
                   c.links_killed);
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"schema\": \"rlftnoc-bench-faults-v1\",\n"
      << "  \"seed\": " << kSeed << ",\n"
      << "  \"topology\": \"torus\",\n"
      << "  \"routing\": \"adaptive\",\n"
      << "  \"mesh\": " << kWidth << ",\n"
      << "  \"total_links\": " << total_links << ",\n"
      << "  \"results_identical\": " << (identical ? "true" : "false")
      << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const double delivered_frac =
        base_delivered > 0.0
            ? static_cast<double>(c.r.packets_delivered) / base_delivered
            : 0.0;
    out << "    {\"fraction\": " << c.fraction
        << ", \"links_killed\": " << c.links_killed
        << ", \"packets_injected\": " << c.r.packets_injected
        << ", \"packets_delivered\": " << c.r.packets_delivered
        << ", \"unreachable_drops\": " << c.r.unreachable_drops
        << ", \"avg_latency\": " << c.r.avg_packet_latency
        << ", \"total_cycles\": " << c.r.total_cycles
        << ", \"drained\": " << (c.r.drained ? "true" : "false")
        << ", \"delivered_vs_faultfree\": " << delivered_frac
        << ", \"wall_seconds\": " << c.wall_seconds << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "[bench_faults] wrote %s\n", out_path.c_str());
  return identical && nonzero ? 0 : 1;
}
