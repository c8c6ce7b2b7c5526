#include "sim/simulator.h"

#include <algorithm>
#include <optional>

#include "common/log.h"
#include "ftnoc/dt_policy.h"
#include "ftnoc/rl_policy.h"
#include "sim/options_io.h"
#include "sim/telemetry_probe.h"
#include "telemetry/export.h"
#include "workload/recorder.h"
#include "workload/replay.h"

namespace rlftnoc {

std::unique_ptr<ControlPolicy> make_policy(const SimOptions& opt) {
  switch (opt.policy) {
    case PolicyKind::kStaticCrc:
      return std::make_unique<StaticPolicy>(OpMode::kMode0);
    case PolicyKind::kStaticArqEcc:
      return std::make_unique<StaticPolicy>(OpMode::kMode1);
    case PolicyKind::kDecisionTree:
      return std::make_unique<DtPolicy>(opt.thresholds, opt.dt, opt.per_port_state);
    case PolicyKind::kRl: {
      auto rl = std::make_unique<RlPolicy>(opt.noc.num_nodes(), opt.rl, opt.seed,
                                           opt.per_port_state, opt.rl_shared_table);
      rl->set_freeze_on_measure(opt.freeze_rl_on_measure);
      return rl;
    }
    case PolicyKind::kOracle:
      return std::make_unique<OraclePolicy>(opt.thresholds);
  }
  return std::make_unique<StaticPolicy>(OpMode::kMode0);
}

Simulator::Simulator(SimOptions opt) : Simulator(std::move(opt), nullptr) {}

Simulator::Simulator(SimOptions opt, std::unique_ptr<ControlPolicy> policy)
    : opt_(std::move(opt)) {
  opt_.noc.validate();
  net_ = std::make_unique<Network>(opt_.noc, opt_.seed, opt_.varius, opt_.power);
  // A campaign steps `jobs` runs at once; the stepper's executors spin
  // between phases only when all of them fit the machine.
  net_->set_sim_threads(opt_.sim_threads, opt_.jobs);
  // Telemetry must attach before the controller: its constructor already
  // runs a control step, and we want those initial mode decisions traced.
  if (opt_.telemetry.enabled) {
    telemetry_ =
        std::make_unique<Telemetry>(opt_.telemetry, opt_.noc.num_nodes());
    net_->set_tracer(&telemetry_->tracer());
  }
  policy_ = policy ? std::move(policy) : make_policy(opt_);
  controller_ = std::make_unique<FtController>(net_.get(), policy_.get(),
                                               opt_.controller, opt_.thermal,
                                               opt_.error_scale);
  if (telemetry_) {
    probe_ = std::make_unique<SimTelemetryProbe>(*telemetry_, *net_,
                                                 *controller_, policy_.get());
  }
  if (opt_.audit) {
    if (opt_.audit_interval == 0) opt_.audit_interval = 1;
    auditor_ = std::make_unique<NetworkAuditor>();
  }
  // Register hard faults last so their validation (routing policy, node
  // ranges) sees the final configuration; at_cycle 0 faults apply here,
  // before any traffic.
  net_->schedule_hard_faults(opt_.hard_faults);
}

Simulator::~Simulator() = default;

void Simulator::enqueue_batch(std::vector<Packet>& batch) {
  const bool faults = net_->has_hard_faults();
  const Topology& topo = net_->topology();
  for (Packet& p : batch) {
    const NodeId src = p.src;
    if (faults && (!topo.router_alive(src) || !topo.router_alive(p.dst) ||
                   !topo.reachable(src, p.dst))) {
      // The traffic model keeps generating for dead / disconnected
      // endpoints; such packets are dropped at the boundary and counted.
      ++unreachable_drops_;
      notify_abandoned(p.id);
      continue;
    }
    const PacketId id = p.id;
    if (!net_->ni(src).enqueue_packet(std::move(p))) {
      ++enqueue_drops_;
      // Boundary drops resolve the transfer too: dependency gating must not
      // wait forever on a packet the network never accepted.
      notify_abandoned(id);
    }
  }
  batch.clear();
}

void Simulator::on_packet_delivered(Cycle now, NodeId src, PacketId id) {
  for (PacketResolutionListener* l : resolution_listeners_) {
    l->on_packet_delivered(now, src, id);
  }
}

void Simulator::on_packet_abandoned(Cycle now, PacketId id) {
  for (PacketResolutionListener* l : resolution_listeners_) {
    l->on_packet_abandoned(now, id);
  }
}

void Simulator::notify_abandoned(PacketId id) {
  for (PacketResolutionListener* l : resolution_listeners_) {
    l->on_packet_abandoned(net_->now(), id);
  }
}

void Simulator::advance_cycle() {
  net_->step();
  controller_->on_cycle();
  if (probe_ && telemetry_->due(net_->now())) probe_->sample(net_->now());
  // Audit between steps, when delay lines, buffers and counters are settled
  // for the cycle; a violation aborts the run pointing at the broken state.
  if (auditor_ && net_->now() % opt_.audit_interval == 0) {
    try {
      auditor_->check_or_throw(*net_);
    } catch (const AuditError&) {
      RLFTNOC_TRACE(net_->tracer(), TraceEventKind::kAuditViolation,
                    net_->now(), kInvalidNode);
      throw;  // run() exports the trace before propagating
    }
  }
}

void Simulator::run_cycles_with(TrafficGenerator* gen, Cycle cycles) {
  std::vector<Packet> batch;
  const Cycle end = net_->now() + cycles;
  while (net_->now() < end) {
    if (gen != nullptr && !gen->exhausted()) {
      gen->tick(net_->now(), batch);
      if (!batch.empty()) enqueue_batch(batch);
    }
    advance_cycle();
  }
}

SimResult Simulator::run(TrafficGenerator& workload) {
  // Attach the run's completion-feed consumers. The replay engine gates
  // transfer injection on observed completions; the recorder captures the
  // run into a replayable workload file. Both observe the feed through this
  // Simulator's fan-out, hooked into the network's serial notification
  // sites (noc/completion.h).
  resolution_listeners_.clear();
  if (auto* replay = dynamic_cast<WorkloadReplayTraffic*>(&workload)) {
    resolution_listeners_.push_back(replay);
    if (probe_) probe_->set_workload(replay);
  }
  std::optional<WorkloadRecorder> recorder;
  TrafficGenerator* active = &workload;
  if (!opt_.record_workload.empty()) {
    recorder.emplace(workload);
    resolution_listeners_.push_back(&*recorder);
    active = &*recorder;
  }
  if (!resolution_listeners_.empty()) net_->set_resolution_listener(this);
  SimResult res;
  try {
    res = run_guarded(*active);
  } catch (...) {
    net_->set_resolution_listener(nullptr);
    resolution_listeners_.clear();
    if (probe_) probe_->set_workload(nullptr);
    throw;
  }
  net_->set_resolution_listener(nullptr);
  resolution_listeners_.clear();
  if (probe_) probe_->set_workload(nullptr);
  if (recorder) {
    write_workload_file(opt_.record_workload, recorder->finish());
    LOG_INFO("simulator: recorded " << recorder->transfers_recorded()
                                    << " transfers to " << opt_.record_workload);
  }
  return res;
}

SimResult Simulator::run_guarded(TrafficGenerator& workload) {
  if (!telemetry_) return run_impl(workload);
  try {
    SimResult res = run_impl(workload);
    // Force one final sample so the series covers the full run, then write
    // the trace / metrics / heatmap / manifest file set.
    if (probe_) probe_->sample(net_->now());
    export_telemetry(res.workload);
    return res;
  } catch (...) {
    // An aborted run (audit violation, livelock guard, ...) is exactly when
    // the trace matters most: export best-effort, then propagate.
    try {
      export_telemetry(workload.name());
    } catch (...) {
      // Keep the original error.
    }
    throw;
  }
}

std::string Simulator::telemetry_manifest_path() const {
  if (telemetry_files_.empty()) return "";
  return telemetry_dir_ + "/" + telemetry_files_.back();
}

void Simulator::export_telemetry(const std::string& workload_name) {
  TelemetryExportInfo info;
  info.out_dir = telemetry_->options().out_dir;
  info.workload = workload_name;
  info.policy = policy_->name();
  info.label = sanitize_run_label(workload_name + "_" + info.policy);
  info.seed = opt_.seed;
  info.mesh_width = net_->topology().width();
  info.mesh_height = net_->topology().height();
  info.measure_start = measure_start_;
  info.end_cycle = net_->now();
  // Every declared option that determines the result; thread counts and
  // output paths are left out, so exports stay byte-identical across them.
  SimOptions recorded = opt_;
  visit_options(recorded, [&info](const OptionSpec& s, const auto& field) {
    if (s.recorded) info.options.emplace_back(s.key, format_option(field));
  });
  telemetry_dir_ = info.out_dir;
  telemetry_files_ = export_run_telemetry(
      *telemetry_, info,
      probe_ ? probe_->heatmaps() : std::vector<HeatmapGrid>{});
}

SimResult Simulator::run_impl(TrafficGenerator& workload) {
  const bool learning =
      opt_.policy == PolicyKind::kDecisionTree || opt_.policy == PolicyKind::kRl;

  // Phase 1: pre-training on synthetic traffic (learning policies only).
  controller_->begin_phase(SimPhase::kPretrain);
  RLFTNOC_TRACE(net_->tracer(), TraceEventKind::kPhaseBegin, net_->now(),
                kInvalidNode, -1, static_cast<std::int32_t>(SimPhase::kPretrain));
  if (learning && opt_.pretrain_cycles > 0) {
    PretrainTraffic pretrain(net_->topology(), opt_.seed);
    run_cycles_with(&pretrain, opt_.pretrain_cycles);
    // Let pre-training traffic drain so it does not pollute the benchmark.
    Cycle guard = opt_.drain_grace_cycles;
    while (!net_->drained() && guard-- > 0) advance_cycle();
  }

  // Phase 2: warm-up with the benchmark's own traffic.
  controller_->begin_phase(SimPhase::kWarmup);
  RLFTNOC_TRACE(net_->tracer(), TraceEventKind::kPhaseBegin, net_->now(),
                kInvalidNode, -1, static_cast<std::int32_t>(SimPhase::kWarmup));
  if (opt_.warmup_cycles > 0) run_cycles_with(&workload, opt_.warmup_cycles);

  // Reset measured state; in-flight packets keep their injection stamps.
  net_->metrics().reset();
  net_->power().reset_totals();

  // Phase 3: testing — run the benchmark to completion, then drain.
  controller_->begin_phase(SimPhase::kMeasure);
  RLFTNOC_TRACE(net_->tracer(), TraceEventKind::kPhaseBegin, net_->now(),
                kInvalidNode, -1, static_cast<std::int32_t>(SimPhase::kMeasure));
  const Cycle measure_start = net_->now();
  measure_start_ = measure_start;
  if (probe_) probe_->begin_measure(measure_start);
  std::vector<Packet> batch;
  std::array<double, kNumOpModes> mode_accum{};
  std::uint64_t mode_samples = 0;
  StatAccumulator temp_accum;
  double max_temp = 0.0;

  const Cycle hard_stop = measure_start + opt_.max_measure_cycles;
  Cycle drain_deadline = hard_stop;
  const std::uint64_t steps_before = controller_->steps();
  std::uint64_t last_seen_steps = steps_before;

  while (net_->now() < hard_stop) {
    if (!workload.exhausted()) {
      workload.tick(net_->now(), batch);
      if (!batch.empty()) enqueue_batch(batch);
    }
    advance_cycle();

    if (controller_->steps() != last_seen_steps) {
      last_seen_steps = controller_->steps();
      ++mode_samples;
      for (NodeId r = 0; r < opt_.noc.num_nodes(); ++r) {
        mode_accum[static_cast<std::size_t>(controller_->current_mode(r))] += 1.0;
        const double t = controller_->thermal().temperature(r);
        temp_accum.add(t);
        max_temp = std::max(max_temp, t);
      }
    }

    if (workload.exhausted()) {
      if (drain_deadline == hard_stop) {
        drain_deadline =
            std::min(hard_stop, net_->now() + opt_.drain_grace_cycles);
      }
      if (net_->drained() || net_->now() >= drain_deadline) break;
    }
  }

  // Integrate the leakage tail of the last partial control window.
  controller_->control_step();

  const NetworkMetrics& m = net_->metrics();
  const PowerModel& pw = net_->power();

  SimResult res;
  res.workload = workload.name();
  res.policy = policy_->name();
  res.drained = net_->drained();
  const Cycle last = std::max(m.last_delivery_cycle, measure_start);
  res.execution_cycles = last - measure_start;
  res.total_cycles = net_->now();
  res.avg_packet_latency = m.packet_latency.mean();
  res.p50_latency = m.latency_hist.quantile(0.50);
  res.p95_latency = m.latency_hist.quantile(0.95);
  res.p99_latency = m.latency_hist.quantile(0.99);
  res.packets_injected = m.packets_injected;
  res.packets_delivered = m.packets_delivered;
  res.flits_delivered = m.flits_delivered;
  res.enqueue_drops = enqueue_drops_;
  res.unreachable_drops = unreachable_drops_;
  res.retransmitted_flits = m.total_retransmitted_flits();
  res.retx_flits_e2e = m.retx_flits_e2e;
  res.retx_flits_hop = m.retx_flits_hop;
  res.dup_flits = m.dup_flits;
  res.crc_packet_failures = m.crc_packet_failures;

  res.dynamic_energy_pj = pw.total_dynamic_energy_pj();
  res.leakage_energy_pj = pw.total_leakage_energy_pj();
  res.total_energy_pj = res.dynamic_energy_pj + res.leakage_energy_pj;
  res.energy_efficiency =
      res.total_energy_pj > 0.0
          ? static_cast<double>(res.flits_delivered) / (res.total_energy_pj * 1e-3)
          : 0.0;  // flits per nJ
  const double measure_seconds =
      static_cast<double>(std::max<Cycle>(res.execution_cycles, 1)) /
      pw.params().clock_hz;
  res.avg_dynamic_power_w = res.dynamic_energy_pj * 1e-12 / measure_seconds;
  res.avg_total_power_w = res.total_energy_pj * 1e-12 / measure_seconds;

  res.avg_temperature_c = temp_accum.mean();
  res.max_temperature_c = max_temp;

  if (mode_samples > 0) {
    const double denom =
        static_cast<double>(mode_samples) * opt_.noc.num_nodes();
    for (std::size_t a = 0; a < kNumOpModes; ++a) mode_accum[a] /= denom;
  }
  res.mode_fraction = mode_accum;

  if (auto* rl = dynamic_cast<RlPolicy*>(policy_.get()))
    res.rl_table_entries = rl->total_table_entries();
  if (auto* dt = dynamic_cast<DtPolicy*>(policy_.get()))
    res.dt_training_accuracy = dt->training_accuracy();

  if (enqueue_drops_ > 0)
    LOG_WARN("simulator: " << enqueue_drops_ << " packets dropped at full NI queues");
  if (unreachable_drops_ > 0)
    LOG_WARN("simulator: " << unreachable_drops_
                           << " packets dropped for dead or disconnected endpoints");
  if (!res.drained)
    LOG_WARN("simulator: " << res.workload << "/" << res.policy
                           << " did not fully drain before the cycle guard");
  return res;
}

}  // namespace rlftnoc
