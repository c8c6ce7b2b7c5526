// Execute-phase micro-benchmark for the PR-10 kernel overhaul.
//
// Times the three kernels that dominate the execute phase, in isolation,
// so a regression names the kernel that regressed instead of showing up as
// a few percent on bench_scaling:
//
//   * router_step   — serial full-network stepping of a loaded 16x16 mesh
//                     (static policy, no RL updates) with the per-phase
//                     wall-time breakdown, i.e. the bitmask router datapath
//                     under realistic occupancy. `execute_share` is the
//                     fraction of run wall time spent in the execute phase.
//   * error_draw    — LinkFaultInjector traversal decisions: the legacy
//                     `inject` (per-call gate compile), the skip-sampled
//                     `inject_gated` with a precompiled gate, and the
//                     draw-free zero-probability gate (the fault-free fast
//                     path every healthy link takes).
//   * control_step  — FtController::control_step on a 16x16 mesh with the
//                     RL policy: thermal step, feature build, VARIUS
//                     refresh and per-router Q-update, now allocation-free.
//
// The configuration is pinned (same spirit as bench_scaling): --out=PATH is
// the only knob. Schema rlftnoc-bench-router-v1; tools/bench_summary.py
// --router renders it and the perf-smoke CI job gates on it.
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_common.h"
#include "fault/injector.h"
#include "fault/varius.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"

namespace {

using namespace rlftnoc;

constexpr std::uint64_t kSeed = 17;

/// Kernel 1: full-network serial stepping, phase share included.
struct RouterStepResult {
  double wall_seconds = 0.0;
  double cycles_per_second = 0.0;
  double execute_share = 0.0;  ///< execute phase / total run wall time
  std::uint64_t simulated_cycles = 0;
  Network::PhaseTimings phases;
};

RouterStepResult run_router_step() {
  SimOptions opt;
  opt.seed = kSeed;
  opt.policy = PolicyKind::kStaticArqEcc;  // no RL updates: isolates stepping
  opt.noc.mesh_width = 16;
  opt.noc.mesh_height = 16;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 0;

  Simulator sim(opt);
  sim.network().set_phase_timing(true);
  SyntheticTraffic::Options to;
  to.injection_rate = 0.06;
  to.total_packets = 8000;
  SyntheticTraffic gen(MeshTopology(opt.noc), to, opt.seed);

  RouterStepResult r;
  SimResult sr;
  r.wall_seconds = bench::time_seconds([&] { sr = sim.run(gen); });
  r.simulated_cycles = sr.total_cycles;
  r.cycles_per_second =
      r.wall_seconds > 0.0
          ? static_cast<double>(sr.total_cycles) / r.wall_seconds
          : 0.0;
  r.phases = sim.network().phase_timings();
  r.execute_share = r.wall_seconds > 0.0
                        ? r.phases.execute_seconds / r.wall_seconds
                        : 0.0;
  return r;
}

/// Kernel 2: injector traversal decisions, million traversals per second.
struct ErrorDrawResult {
  double legacy_mps = 0.0;      ///< inject(): gate compiled per call
  double gated_mps = 0.0;       ///< inject_gated(): precompiled gate
  double zero_prob_mps = 0.0;   ///< kGateNever: the healthy-link fast path
};

ErrorDrawResult run_error_draw() {
  constexpr std::uint64_t kTraversals = 4'000'000;
  constexpr double kProb = 0.01;  // typical elevated-error steady state
  const VariusModel model{};      // droops on by default, like the network

  ErrorDrawResult r;
  const auto run = [&](double p, std::uint64_t gate, bool legacy) {
    LinkFaultInjector inj(&model, kSeed, "bench-router:error-draw");
    BitVec128 payload{};
    payload.set_word(0, 0x0123456789abcdefULL);
    std::uint64_t flips = 0;  // data dependency so the loop cannot be hoisted
    const double s = bench::time_seconds([&] {
      for (std::uint64_t i = 0; i < kTraversals; ++i) {
        const InjectionResult out =
            legacy ? inj.inject(payload, nullptr, p)
                   : inj.inject_gated(payload, nullptr, p, gate);
        flips += static_cast<std::uint64_t>(out.bits_flipped);
      }
    });
    std::fprintf(stderr, "[bench_router]   (%llu bit flips drawn)\n",
                 static_cast<unsigned long long>(flips));
    return s > 0.0 ? static_cast<double>(kTraversals) / s / 1e6 : 0.0;
  };

  r.legacy_mps = run(kProb, 0, /*legacy=*/true);
  r.gated_mps = run(kProb, Rng::bernoulli_gate(kProb), /*legacy=*/false);
  r.zero_prob_mps = run(0.0, Rng::kGateNever, /*legacy=*/false);
  return r;
}

/// Kernel 3: full control step (thermal + features + VARIUS + RL decide).
struct ControlStepResult {
  double steps_per_second = 0.0;
  double micros_per_step = 0.0;
  int routers = 0;
};

ControlStepResult run_control_step() {
  constexpr int kSteps = 2000;
  SimOptions opt;
  opt.seed = kSeed;
  opt.policy = PolicyKind::kRl;
  opt.noc.mesh_width = 16;
  opt.noc.mesh_height = 16;

  Simulator sim(opt);  // constructor performs the first control step
  FtController& ctl = sim.controller();
  ControlStepResult r;
  r.routers = opt.noc.num_nodes();
  const double s = bench::time_seconds([&] {
    for (int i = 0; i < kSteps; ++i) ctl.control_step();
  });
  r.steps_per_second = s > 0.0 ? kSteps / s : 0.0;
  r.micros_per_step = s / kSteps * 1e6;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      bench::out_path_arg(argc, argv, "BENCH_router.json");

  std::fprintf(stderr, "[bench_router] router_step: 16x16 uniform, serial\n");
  const RouterStepResult rs = run_router_step();
  std::printf("router_step   %9llu cycles  %6.3f s  %10.0f cycles/s  "
              "execute share %.1f%%  [ser %.3f rx %.3f ex %.3f mg %.3f]\n",
              static_cast<unsigned long long>(rs.simulated_cycles),
              rs.wall_seconds, rs.cycles_per_second, rs.execute_share * 100.0,
              rs.phases.serial_seconds, rs.phases.receive_seconds,
              rs.phases.execute_seconds, rs.phases.merge_seconds);

  std::fprintf(stderr, "[bench_router] error_draw: 4M traversals per variant\n");
  const ErrorDrawResult ed = run_error_draw();
  std::printf("error_draw    legacy %7.1f M/s   gated %7.1f M/s   "
              "zero-prob %7.1f M/s\n",
              ed.legacy_mps, ed.gated_mps, ed.zero_prob_mps);

  std::fprintf(stderr, "[bench_router] control_step: 16x16 RL policy\n");
  const ControlStepResult cs = run_control_step();
  std::printf("control_step  %d routers  %8.0f steps/s  %7.1f us/step\n",
              cs.routers, cs.steps_per_second, cs.micros_per_step);

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << "{\n"
      << "  \"schema\": \"rlftnoc-bench-router-v1\",\n"
      << "  \"seed\": " << kSeed << ",\n"
      << "  \"router_step\": {\"mesh\": 16"
      << ", \"simulated_cycles\": " << rs.simulated_cycles
      << ", \"wall_seconds\": " << rs.wall_seconds
      << ", \"cycles_per_second\": " << rs.cycles_per_second
      << ", \"execute_share\": " << rs.execute_share
      << ", \"phase_seconds\": {\"serial\": " << rs.phases.serial_seconds
      << ", \"receive\": " << rs.phases.receive_seconds
      << ", \"execute\": " << rs.phases.execute_seconds
      << ", \"merge\": " << rs.phases.merge_seconds << "}},\n"
      << "  \"error_draw\": {\"traversals\": 4000000, \"prob\": 0.01"
      << ", \"legacy_mtraversals_per_second\": " << ed.legacy_mps
      << ", \"gated_mtraversals_per_second\": " << ed.gated_mps
      << ", \"zero_prob_mtraversals_per_second\": " << ed.zero_prob_mps
      << "},\n"
      << "  \"control_step\": {\"mesh\": 16, \"routers\": " << cs.routers
      << ", \"steps_per_second\": " << cs.steps_per_second
      << ", \"micros_per_step\": " << cs.micros_per_step << "}\n"
      << "}\n";
  std::fprintf(stderr, "[bench_router] wrote %s\n", out_path.c_str());
  return 0;
}
