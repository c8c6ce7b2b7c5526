// Dependency-gated replay benchmark: open-loop vs closed-loop injection of
// the built-in workload graphs on a pinned 8x8 mesh.
//
// For each built-in workload (dnn, rpc) two cells run: open-loop (the
// dependency graph is ignored and every transfer injects at its
// earliest_cycle) and dependency-gated (transfers wait for their deps'
// end-to-end completions). The JSON (schema rlftnoc-bench-workload-v1)
// records per-cell transfer progress, delivery, latency and makespan; the
// gap between the open and gated cells is the cost of honoring the graph.
// Every gated cell is re-run at sim_threads=4 and cross-checked against the
// serial results — the completion feed drains at the stepper's canonical
// serial point, so bit-identity must hold for closed-loop traffic too and
// any divergence is a hard failure, exactly like bench_faults.
//
// The configuration is pinned; --out=PATH is the only knob. The exit code
// is the gate: 1 on a divergence, or on a cell that left transfers
// unretired or did not drain.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/config.h"
#include "sim/simulator.h"
#include "workload/generators.h"
#include "workload/replay.h"

namespace {

using namespace rlftnoc;

constexpr std::uint64_t kSeed = 29;
constexpr int kWidth = 8;

struct Cell {
  std::string workload;
  bool gated = false;
  double wall_seconds = 0.0;
  std::uint64_t transfers = 0;
  std::uint64_t retired = 0;
  std::uint64_t abandoned = 0;
  SimResult r;
};

SimOptions make_options(unsigned sim_threads) {
  SimOptions opt;
  opt.seed = kSeed;
  opt.policy = PolicyKind::kStaticArqEcc;  // no RL updates: isolates gating
  opt.sim_threads = sim_threads;
  opt.noc.mesh_width = kWidth;
  opt.noc.mesh_height = kWidth;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 0;
  return opt;
}

Cell run_cell(const std::string& name, bool gated, unsigned sim_threads) {
  const SimOptions opt = make_options(sim_threads);
  const MeshTopology topo(opt.noc);
  WorkloadReplayTraffic::Options ro;
  ro.gate_on_deps = gated;
  WorkloadReplayTraffic gen(make_builtin_workload(name, topo, Config{}, kSeed),
                            topo.num_nodes(), kSeed, ro);
  Simulator sim(opt);
  Cell c;
  c.workload = name;
  c.gated = gated;
  c.wall_seconds = bench::time_seconds([&] { c.r = sim.run(gen); });
  c.transfers = gen.transfers_total();
  c.retired = gen.transfers_retired();
  c.abandoned = gen.transfers_abandoned();
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      bench::out_path_arg(argc, argv, "BENCH_workload.json");

  std::fprintf(stderr,
               "[bench_workload] %dx%d mesh, arq+ecc policy, seed %llu\n",
               kWidth, kWidth, static_cast<unsigned long long>(kSeed));

  const char* kWorkloads[] = {"dnn", "rpc"};
  std::vector<Cell> cells;
  bool identical = true;
  bool complete = true;
  for (const char* name : kWorkloads) {
    for (const bool gated : {false, true}) {
      Cell c = run_cell(name, gated, 1);
      if (gated) {
        const Cell mt = run_cell(name, gated, 4);
        if (mt.r != c.r) {
          identical = false;
          std::fprintf(stderr,
                       "[bench_workload] DIVERGENCE: %s gated, sim_threads=4 "
                       "differs from serial\n",
                       name);
        }
      }
      // Every transfer must retire and the run must drain: a fault-free mesh
      // never abandons, so an incomplete graph means the gating logic
      // deadlocked.
      if (c.retired != c.transfers || !c.r.drained) {
        complete = false;
        std::fprintf(stderr,
                     "[bench_workload] FAILURE: %s %s retired %llu/%llu "
                     "transfers%s\n",
                     name, gated ? "gated" : "open",
                     static_cast<unsigned long long>(c.retired),
                     static_cast<unsigned long long>(c.transfers),
                     c.r.drained ? "" : ", did not drain");
      }
      std::printf(
          "%-9s %-5s  transfers %4llu  retired %4llu  latency %7.2f  "
          "cycles %8llu  %s\n",
          name, gated ? "gated" : "open",
          static_cast<unsigned long long>(c.transfers),
          static_cast<unsigned long long>(c.retired), c.r.avg_packet_latency,
          static_cast<unsigned long long>(c.r.total_cycles),
          c.r.drained ? "drained" : "NOT DRAINED");
      cells.push_back(std::move(c));
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"schema\": \"rlftnoc-bench-workload-v1\",\n"
      << "  \"seed\": " << kSeed << ",\n"
      << "  \"mesh\": " << kWidth << ",\n"
      << "  \"results_identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"workload\": \"" << c.workload << "\""
        << ", \"gated\": " << (c.gated ? "true" : "false")
        << ", \"transfers\": " << c.transfers
        << ", \"retired\": " << c.retired
        << ", \"abandoned\": " << c.abandoned
        << ", \"packets_injected\": " << c.r.packets_injected
        << ", \"packets_delivered\": " << c.r.packets_delivered
        << ", \"avg_latency\": " << c.r.avg_packet_latency
        << ", \"total_cycles\": " << c.r.total_cycles
        << ", \"drained\": " << (c.r.drained ? "true" : "false")
        << ", \"wall_seconds\": " << c.wall_seconds << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::fprintf(stderr, "[bench_workload] wrote %s\n", out_path.c_str());
  return identical && complete ? 0 : 1;
}
