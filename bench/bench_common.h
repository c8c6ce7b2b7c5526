// Shared harness for the benches.
//
// Every bench reads the wall clock through time_seconds(), the one
// wall-clock lint exemption under bench/, and the pinned bench
// (bench_scaling) takes its only knob, --out=PATH, through out_path_arg().
// The forced-mode benches (E8
// bench_ablation_modes, E10 bench_latency_throughput) drive a bare Network
// through run_forced_mode(), which counts the packets a full NI queue
// refused.
//
// Table II and Figs. 6-10 are not a bench: `rlftnoc_run
// configs/paper_campaign.cfg` runs the campaign and `rlftnoc_report` renders
// them (README, "Reproducing the paper's figures").
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "noc/network.h"
#include "traffic/traffic.h"

namespace rlftnoc::bench {

/// Wall-clock seconds `fn` takes to run. Timing is what a bench reports;
/// it never feeds a simulation input.
double time_seconds(const std::function<void()>& fn);

/// The `--out=PATH` argument of a pinned bench (`def` when absent). Any
/// other argument prints "unknown flag '<arg>' (supported: --out=PATH)"
/// and exits 2.
std::string out_path_arg(int argc, char** argv, const std::string& def);

/// One run on a bare Network with no controller: every router held in
/// `mode`, every live link at error probability `p_error`.
struct ForcedModeRun {
  NocConfig noc;
  OpMode mode = OpMode::kMode0;
  double p_error = 0.0;
  SyntheticTraffic::Options traffic;
  std::uint64_t traffic_seed = 0;
  Cycle warmup = 0;      ///< metrics reset when the clock reaches this cycle
  Cycle max_cycles = 0;  ///< stop here even if traffic or network is not done
};

struct ForcedModeResult {
  NetworkMetrics metrics;          ///< since the warm-up reset
  double dynamic_energy_pj = 0.0;  ///< whole run
  std::uint64_t offered = 0;       ///< packets the traffic generated
  std::uint64_t rejected = 0;      ///< of those, refused by a full NI queue
};

/// Steps the network until the traffic is exhausted and the network has
/// drained, or until `max_cycles`.
ForcedModeResult run_forced_mode(const ForcedModeRun& run);

}  // namespace rlftnoc::bench
