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
// The configuration is pinned (same spirit as bench_campaign): --out=PATH is
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

struct MeshCase {
  int width;
  std::uint64_t packets;
};

// Larger meshes step more nodes per cycle, so they get smaller packet
// budgets to keep the full sweep in CI-smoke territory; the budgets are
// still ~2x v1's so each measure phase is long enough to damp timer noise.
constexpr MeshCase kMeshes[] = {{16, 8000}, {32, 4000}, {64, 2000}};

struct Cell {
  int mesh = 0;
  unsigned sim_threads = 0;
  double wall_seconds = 0.0;
  double wall_seconds_serial = 0.0;  ///< the mesh's sim_threads=1 wall time
  std::uint64_t simulated_cycles = 0;
  double cycles_per_second = 0.0;
  double speedup_vs_serial = 0.0;
  Network::PhaseTimings phases;  ///< per-phase wall-time breakdown
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
      c.sim_threads = t;
      const SimResult r = run_cell(mc, t, c.wall_seconds, c.phases);
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
      std::printf("%3dx%-3d sim_threads=%u  %9llu cycles  %7.3f s  "
                  "%10.0f cycles/s  speedup %.2fx  "
                  "[ser %.3f rx %.3f ex %.3f mg %.3f]\n",
                  c.mesh, c.mesh, c.sim_threads,
                  static_cast<unsigned long long>(c.simulated_cycles),
                  c.wall_seconds, c.cycles_per_second, c.speedup_vs_serial,
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
        << ", \"sim_threads\": " << c.sim_threads
        << ", \"wall_seconds\": " << c.wall_seconds
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
