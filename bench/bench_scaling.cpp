// Intra-run scaling benchmark for the phase-parallel network stepper.
//
// Runs a pinned uniform-traffic workload on 16x16, 32x32 and 64x64 meshes
// for sim_threads in {1, 2, 4, 8} and reports simulated cycles per
// wall-clock second per cell, plus each cell's speedup over the serial run
// of the same mesh. Because the stepper's contract is bit-identical results
// for any thread count, every threaded run is also cross-checked against
// the serial one — a mismatch is a hard failure, so the perf numbers can
// never come from a run that silently diverged.
//
// The configuration is pinned: --out=PATH is
// the only knob, and the JSON (schema rlftnoc-bench-scaling-v2) records
// hardware_threads so consumers can judge whether a speedup gate is
// meaningful on the machine that produced it. tools/bench_summary.py
// --scaling applies that gate in CI.
//
// v2 over v1: a 64x64 cell (the scale the paper's per-router agents need),
// longer measure phases per mesh, `wall_seconds_serial` in every cell so
// `speedup_vs_serial` is recomputable from the JSON alone, and a per-phase
// wall-time breakdown (serial window / fused receive / execute / merge)
// from Network::set_phase_timing so a scaling regression names the phase
// that regressed.
//
// Each cell runs kRepetitions times. `wall_seconds` (and the throughput and
// speedup derived from it) is the median run, also written as
// `wall_seconds_median`; `wall_seconds_min` and `wall_spread` ((max - min)
// / median) are added fields, so one noisy run can neither make nor break a
// cell. `phase_seconds` comes from the median run. Every repetition must
// match its cell's first run, as every threaded cell must match serial.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"

namespace {

using namespace rlftnoc;

constexpr std::uint64_t kSeed = 17;
constexpr unsigned kThreadSweep[] = {1, 2, 4, 8};
constexpr int kRepetitions = 5;

struct MeshCase {
  int width;
  std::uint64_t packets;
};

// Larger meshes step more nodes per cycle, so they get smaller packet
// budgets to keep the full sweep in CI-smoke territory. The 16x16 budget
// carries the speedup gate, so its serial cell runs >= 2 s (about 2.3 s on
// a 4-thread x86 host): at 8,000 packets a 0.2 s cell let other tenants of
// a shared host flip the gate from run to run. Each cell records its budget.
constexpr MeshCase kMeshes[] = {{16, 120000}, {32, 4000}, {64, 2000}};

struct Cell {
  int mesh = 0;
  std::uint64_t packets = 0;  ///< the mesh's packet budget
  unsigned sim_threads = 0;
  double wall_seconds = 0.0;         ///< median of kRepetitions runs
  double wall_seconds_min = 0.0;
  double wall_spread = 0.0;          ///< (max - min) / median
  double wall_seconds_serial = 0.0;  ///< the mesh's sim_threads=1 wall time
  std::uint64_t simulated_cycles = 0;
  double cycles_per_second = 0.0;
  double speedup_vs_serial = 0.0;
  Network::PhaseTimings phases;  ///< the median run's per-phase breakdown
};

struct Run {
  double wall_seconds = 0.0;
  Network::PhaseTimings phases;
};

SimResult run_cell(const MeshCase& mc, unsigned sim_threads,
                   double& wall_seconds, Network::PhaseTimings& phases) {
  SimOptions opt;
  opt.seed = kSeed;
  opt.policy = PolicyKind::kStaticArqEcc;  // no RL updates: isolates stepping
  opt.sim_threads = sim_threads;
  opt.noc.mesh_width = mc.width;
  opt.noc.mesh_height = mc.width;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 0;

  Simulator sim(opt);
  sim.network().set_phase_timing(true);
  SyntheticTraffic::Options to;
  to.injection_rate = 0.06;
  to.total_packets = mc.packets;
  SyntheticTraffic gen(MeshTopology(opt.noc), to, opt.seed);

  SimResult r;
  wall_seconds = bench::time_seconds([&] { r = sim.run(gen); });
  phases = sim.network().phase_timings();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      bench::out_path_arg(argc, argv, "BENCH_scaling.json");

  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(stderr,
               "[bench_scaling] uniform traffic, seed %llu, "
               "hardware threads: %u\n",
               static_cast<unsigned long long>(kSeed), hw);

  std::vector<Cell> cells;
  bool identical = true;
  for (const MeshCase& mc : kMeshes) {
    SimResult serial;
    double serial_cps = 0.0;
    double serial_wall = 0.0;
    for (const unsigned t : kThreadSweep) {
      Cell c;
      c.mesh = mc.width;
      c.packets = mc.packets;
      c.sim_threads = t;
      std::vector<Run> runs(kRepetitions);
      SimResult r;
      for (std::size_t k = 0; k < runs.size(); ++k) {
        const SimResult rk = run_cell(mc, t, runs[k].wall_seconds, runs[k].phases);
        if (k == 0) {
          r = rk;
        } else if (rk != r) {
          identical = false;
          std::fprintf(stderr,
                       "[bench_scaling] DIVERGENCE: %dx%d sim_threads=%u "
                       "repetition %zu differs from the first\n",
                       mc.width, mc.width, t, k);
        }
      }
      std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
        return a.wall_seconds < b.wall_seconds;
      });
      const Run& median = runs[runs.size() / 2];
      c.wall_seconds = median.wall_seconds;
      c.phases = median.phases;
      c.wall_seconds_min = runs.front().wall_seconds;
      c.wall_spread = median.wall_seconds > 0.0
                          ? (runs.back().wall_seconds - runs.front().wall_seconds) /
                                median.wall_seconds
                          : 0.0;
      c.simulated_cycles = r.total_cycles;
      c.cycles_per_second =
          c.wall_seconds > 0.0
              ? static_cast<double>(r.total_cycles) / c.wall_seconds
              : 0.0;
      if (t == 1) {
        serial = r;
        serial_cps = c.cycles_per_second;
        serial_wall = c.wall_seconds;
        c.speedup_vs_serial = 1.0;
      } else {
        c.speedup_vs_serial =
            serial_cps > 0.0 ? c.cycles_per_second / serial_cps : 0.0;
        // The determinism contract, spot-checked from the bench itself: a
        // cell whose results differ from the serial run would make its
        // timing numbers meaningless, so any divergence fails the bench.
        if (r != serial) {
          identical = false;
          std::fprintf(stderr,
                       "[bench_scaling] DIVERGENCE: %dx%d sim_threads=%u "
                       "differs from serial\n",
                       mc.width, mc.width, t);
        }
      }
      c.wall_seconds_serial = serial_wall;
      std::printf("%3dx%-3d sim_threads=%u  %9llu cycles  %7.3f s "
                  "(min %.3f, spread %4.1f%%)  "
                  "%10.0f cycles/s  speedup %.2fx  "
                  "[ser %.3f rx %.3f ex %.3f mg %.3f]\n",
                  c.mesh, c.mesh, c.sim_threads,
                  static_cast<unsigned long long>(c.simulated_cycles),
                  c.wall_seconds, c.wall_seconds_min, 100.0 * c.wall_spread,
                  c.cycles_per_second, c.speedup_vs_serial,
                  c.phases.serial_seconds, c.phases.receive_seconds,
                  c.phases.execute_seconds, c.phases.merge_seconds);
      cells.push_back(c);
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"schema\": \"rlftnoc-bench-scaling-v2\",\n"
      << "  \"seed\": " << kSeed << ",\n"
      << "  \"hardware_threads\": " << hw << ",\n"
      << "  \"results_identical\": " << (identical ? "true" : "false")
      << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"mesh\": " << c.mesh
        << ", \"packets\": " << c.packets
        << ", \"sim_threads\": " << c.sim_threads
        << ", \"wall_seconds\": " << c.wall_seconds
        << ", \"repetitions\": " << kRepetitions
        << ", \"wall_seconds_median\": " << c.wall_seconds
        << ", \"wall_seconds_min\": " << c.wall_seconds_min
        << ", \"wall_spread\": " << c.wall_spread
        << ", \"wall_seconds_serial\": " << c.wall_seconds_serial
        << ", \"simulated_cycles\": " << c.simulated_cycles
        << ", \"cycles_per_second\": " << c.cycles_per_second
        << ", \"speedup_vs_serial\": " << c.speedup_vs_serial
        << ", \"phase_seconds\": {\"serial\": " << c.phases.serial_seconds
        << ", \"receive\": " << c.phases.receive_seconds
        << ", \"execute\": " << c.phases.execute_seconds
        << ", \"merge\": " << c.phases.merge_seconds << "}}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "[bench_scaling] wrote %s\n", out_path.c_str());
  return identical ? 0 : 1;
}
