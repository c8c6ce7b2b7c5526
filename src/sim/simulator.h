// Simulation driver: wires Network + FtController + policy + traffic into
// the paper's three-phase experiment protocol (Section V.B):
//
//   1. pre-training  - 1M cycles of synthetic traffic for the learning
//                      policies (DT collects labels and trains; RL learns
//                      online),
//   2. warm-up       - 300K cycles of the benchmark's own traffic with
//                      metrics discarded,
//   3. testing       - the benchmark runs to completion ("a full
//                      application execution time"); all figures are
//                      computed over this phase.
//
// Defaults here are scaled down ~4x from the paper so the whole 8-benchmark
// x 4-policy campaign stays laptop-scale; pass `--full` to benches (or set
// SimOptions accordingly) for paper-scale runs.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "dt/decision_tree.h"
#include "fault/varius.h"
#include "ftnoc/controller.h"
#include "ftnoc/policy.h"
#include "noc/audit.h"
#include "noc/network.h"
#include "noc/noc_config.h"
#include "power/orion_lite.h"
#include "rl/agent.h"
#include "telemetry/telemetry.h"
#include "thermal/hotspot_lite.h"
#include "traffic/traffic.h"

namespace rlftnoc {

class SimTelemetryProbe;

/// Everything needed to reproduce one run.
struct SimOptions {
  NocConfig noc;
  PolicyKind policy = PolicyKind::kRl;
  std::uint64_t seed = 1;

  /// Worker threads for campaign runs (run_campaign): 1 = serial (default),
  /// 0 = one per hardware thread. Results are bit-identical for any value
  /// because every (benchmark, policy) job derives its own seed.
  unsigned jobs = 1;

  /// Threads used *inside* one run by the phase-parallel network stepper
  /// (Network::set_sim_threads): 1 = serial (default), 0 = one per hardware
  /// thread. Results are bit-identical for any value — cross-shard effects
  /// are staged and merged in canonical node order. Composes with `jobs`:
  /// a campaign spawns roughly jobs x sim_threads threads in total, so keep
  /// the product near the core count (jobs parallelism amortizes better;
  /// prefer raising sim_threads only for single-run latency).
  unsigned sim_threads = 1;

  /// Run the NetworkAuditor (noc/audit.h) after every simulated cycle and
  /// abort the run with AuditError on the first violated invariant. Costs a
  /// full sweep of the network state per audited cycle, so this is an
  /// opt-in debugging / CI mode, not a default.
  bool audit = false;
  /// Cycles between audit sweeps when `audit` is set (1 = every cycle).
  Cycle audit_interval = 1;

  /// Event tracing + time-series metrics (opt-in; see src/telemetry). When
  /// `telemetry.enabled`, run() exports the trace/metrics/heatmap/manifest
  /// file set into `telemetry.out_dir` under a "<workload>_<policy>" label.
  TelemetryOptions telemetry;

  Cycle pretrain_cycles = 500000;  ///< paper: 1,000,000
  Cycle warmup_cycles = 50000;     ///< paper: 300,000
  Cycle max_measure_cycles = 8'000'000;  ///< hard guard against livelock
  Cycle drain_grace_cycles = 400000;     ///< post-exhaustion drain budget

  /// Workload selector (config key `workload=`, CLI `--workload`): a
  /// synthetic pattern / parsec name, a built-in dependency-graph generator
  /// ("dnn", "rpc", "nackstorm"), or a path to an `rlftnoc-workload-v1`
  /// file (JSON or binary) replayed with dependency gating. Resolved by the
  /// drivers (rlftnoc_run / run_campaign); the Simulator itself is handed
  /// the constructed TrafficGenerator.
  std::string workload;
  /// When non-empty, wrap the run's traffic in a WorkloadRecorder and write
  /// the captured `rlftnoc-workload-v1` file here after a successful run
  /// (`.wkb` suffix selects the binary encoding). Recording is a transparent
  /// decorator: it never perturbs the run being recorded.
  std::string record_workload;

  ControllerOptions controller;
  VariusParams varius;
  PowerParams power;
  ThermalParams thermal;
  QLearningParams rl;
  ErrorLevelThresholds thresholds;
  DtParams dt;

  /// Global multiplier on injected error probability (fault sweeps).
  double error_scale = 1.0;

  /// Permanent faults (dead links / routers), applied at their at_cycle
  /// (0 = before traffic). Config key `hard_faults`, CLI `--kill-link` /
  /// `--kill-router`. Requires a routing policy that can route around them
  /// (xy, yx or adaptive — not westfirst).
  std::vector<HardFault> hard_faults;
  /// Freeze RL exploration during measurement. Default true: the policy
  /// acts greedily (and keeps applying the TD rule) while being measured;
  /// set false for the paper-literal always-exploring epsilon = 0.1
  /// (ablation: bench_ablation_rl).
  bool freeze_rl_on_measure = true;
  /// Paper-literal Table I per-port state layout instead of the default
  /// aggregated 8-feature layout (ablation; see FeatureSnapshot).
  bool per_port_state = false;
  /// Shared Q-table across the per-router agents (default; see RlPolicy).
  /// false = paper-literal independent per-router tables.
  bool rl_shared_table = true;

  /// Applies paper-scale phase lengths.
  void use_paper_scale() {
    pretrain_cycles = 1'000'000;
    warmup_cycles = 300'000;
  }
};

/// Metrics of one measured run (one bar of one figure).
struct SimResult {
  std::string workload;
  std::string policy;

  Cycle execution_cycles = 0;  ///< measure start -> last successful delivery
  /// Every cycle the network stepped across all phases (pretrain + warmup +
  /// measure + drain). execution_cycles only spans the measure window, so
  /// this is the honest denominator for simulated-cycles-per-second
  /// throughput tracking.
  Cycle total_cycles = 0;
  bool drained = false;        ///< everything delivered before the guard

  double avg_packet_latency = 0.0;  ///< cycles, successful packets
  double p50_latency = 0.0;         ///< median end-to-end latency (cycles)
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_delivered = 0;
  /// Packets dropped at full source-NI queues (all phases). Non-zero means
  /// the offered load exceeded what the NoC accepted; latency averages over
  /// the surviving packets only, so compare policies with this in view.
  std::uint64_t enqueue_drops = 0;
  /// Generated packets never offered to the network because a hard fault
  /// had killed or disconnected their source or destination (all phases).
  std::uint64_t unreachable_drops = 0;

  std::uint64_t retransmitted_flits = 0;  ///< e2e + hop + duplicates
  std::uint64_t retx_flits_e2e = 0;
  std::uint64_t retx_flits_hop = 0;
  std::uint64_t dup_flits = 0;
  std::uint64_t crc_packet_failures = 0;

  double dynamic_energy_pj = 0.0;
  double leakage_energy_pj = 0.0;
  double total_energy_pj = 0.0;
  double energy_efficiency = 0.0;   ///< delivered flits per nJ
  double avg_dynamic_power_w = 0.0; ///< network total over the measure phase
  double avg_total_power_w = 0.0;

  double avg_temperature_c = 0.0;
  double max_temperature_c = 0.0;

  std::array<double, kNumOpModes> mode_fraction{};  ///< time share per mode
  std::size_t rl_table_entries = 0;   ///< RL only
  double dt_training_accuracy = 0.0;  ///< DT only

  /// The bit-identity contract: two runs agree when every field compares
  /// equal. Benches and tests check --sim-threads / --jobs determinism with
  /// this and nothing else, so a new field is covered the moment it exists.
  bool operator==(const SimResult&) const = default;
};

/// Readable `name=value` rendering of every field (the results-TSV row
/// printer, labelled); gtest picks it up for failing EXPECT_EQ(a, b).
void PrintTo(const SimResult& r, std::ostream* os);

/// Owns one complete simulation instance.
///
/// Privately implements PacketResolutionListener to fan the network's
/// serial completion feed (noc/completion.h) out to the run's workload
/// consumers — the dependency-gated replay engine and/or the run recorder —
/// and to report boundary drops (enqueue_batch) as abandonments so
/// dependency gating can never deadlock on a packet that was never offered
/// to the network.
class Simulator : private PacketResolutionListener {
 public:
  explicit Simulator(SimOptions opt);
  /// Variant with a caller-supplied policy (e.g. a user-defined one); the
  /// `opt.policy` field is ignored for construction but used for labels.
  Simulator(SimOptions opt, std::unique_ptr<ControlPolicy> policy);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs pretrain (learning policies) + warm-up + measurement and returns
  /// the measured metrics.
  SimResult run(TrafficGenerator& workload);

  Network& network() noexcept { return *net_; }
  FtController& controller() noexcept { return *controller_; }
  ControlPolicy& policy() noexcept { return *policy_; }
  const SimOptions& options() const noexcept { return opt_; }

  /// The per-cycle invariant auditor; nullptr unless SimOptions::audit.
  const NetworkAuditor* auditor() const noexcept { return auditor_.get(); }

  /// Telemetry collector; nullptr unless SimOptions::telemetry.enabled.
  Telemetry* telemetry() noexcept { return telemetry_.get(); }

  /// Files written by the last run()'s telemetry export (names within the
  /// telemetry out_dir; empty when telemetry is off). Manifest is last.
  const std::vector<std::string>& telemetry_files() const noexcept {
    return telemetry_files_;
  }
  /// Path of the run-manifest JSON ("" when telemetry is off).
  std::string telemetry_manifest_path() const;

 private:
  void advance_cycle();
  void run_cycles_with(TrafficGenerator* gen, Cycle cycles);
  void enqueue_batch(std::vector<Packet>& batch);
  SimResult run_guarded(TrafficGenerator& workload);
  SimResult run_impl(TrafficGenerator& workload);
  void export_telemetry(const std::string& workload_name);

  // -- PacketResolutionListener: fan-out to the run's workload consumers --
  void on_packet_delivered(Cycle now, NodeId src, PacketId id) override;
  void on_packet_abandoned(Cycle now, PacketId id) override;
  void notify_abandoned(PacketId id);

  SimOptions opt_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<ControlPolicy> policy_;
  std::unique_ptr<FtController> controller_;
  std::unique_ptr<SimTelemetryProbe> probe_;
  std::unique_ptr<NetworkAuditor> auditor_;
  /// Consumers of the completion feed for the current run() (replay engine,
  /// recorder); empty outside a run or when neither is attached.
  std::vector<PacketResolutionListener*> resolution_listeners_;
  std::uint64_t enqueue_drops_ = 0;
  std::uint64_t unreachable_drops_ = 0;
  Cycle measure_start_ = 0;
  std::string telemetry_dir_;
  std::vector<std::string> telemetry_files_;
};

/// Builds the policy object for a PolicyKind (shared by Simulator and the
/// benches/examples that want a bare policy).
std::unique_ptr<ControlPolicy> make_policy(const SimOptions& opt);

}  // namespace rlftnoc
