// perfbench_noc — runs the repository benchmark's workloads (see perfbench/README.md).
//
//   perfbench_noc --workload NAME --seed N --seconds S --trace 0|1
//                 [--reference-digest HEX] [--scratch DIR]
//   perfbench_noc --selftest [--scratch DIR]
//
// Untraced (--trace 0): repeats the workload until S seconds have passed and
// prints the end-to-end metrics (medians over the repetitions). Traced
// (--trace 1): pairs every untraced repetition with a traced one — network
// phase timing on, timing decorators around the control policy and the
// traffic generator, campaign jobs one by one — and prints the per-layer
// metrics of the traced repetition with the median wall time.
//
// Every layer is measured from outside, through public API only: calls into a
// layer are timed by a decorator, or counters the layer already exposes are
// read after the run. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed check sets "correct" to false and the exit code to 1.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "fault/hard_faults.h"
#include "sim/campaign.h"
#include "sim/simulator.h"
#include "telemetry/export.h"
#include "traffic/parsec.h"
#include "traffic/traffic.h"
#include "workload/generators.h"
#include "workload/replay.h"

namespace {

using namespace rlftnoc;
using Clock = std::chrono::steady_clock;  // rlftnoc-lint: allow(R2) wall-clock is the benchmark's measurement, never a sim input

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// sim_digest: FNV-1a over every SimResult field a wrapped policy can report
// (rl_table_entries and dt_training_accuracy need the unwrapped policy).
// Doubles are hashed by bit pattern, so any change in a result shows.
// ---------------------------------------------------------------------------

class DigestBuilder {
 public:
  void add(std::uint64_t v) {
    char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    bytes_.append(b, sizeof v);
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof v);
    add(bits);
  }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes_ += s;
  }
  std::uint64_t value() const { return fnv1a64(bytes_); }

 private:
  std::string bytes_;
};

std::uint64_t sim_digest(const SimResult& r) {
  DigestBuilder d;
  d.add(r.workload);
  d.add(r.policy);
  d.add(std::uint64_t{r.execution_cycles});
  d.add(std::uint64_t{r.total_cycles});
  d.add(std::uint64_t{r.drained});
  for (double v : {r.avg_packet_latency, r.p50_latency, r.p95_latency, r.p99_latency})
    d.add(v);
  for (std::uint64_t v :
       {r.packets_injected, r.packets_delivered, r.flits_delivered, r.enqueue_drops,
        r.unreachable_drops, r.retransmitted_flits, r.retx_flits_e2e, r.retx_flits_hop,
        r.dup_flits, r.crc_packet_failures})
    d.add(v);
  for (double v : {r.dynamic_energy_pj, r.leakage_energy_pj, r.total_energy_pj,
                   r.energy_efficiency, r.avg_dynamic_power_w, r.avg_total_power_w,
                   r.avg_temperature_c, r.max_temperature_c})
    d.add(v);
  for (double v : r.mode_fraction) d.add(v);
  return d.value();
}

/// Digest of a set of runs (one workload repetition), in job order.
std::uint64_t sim_digest(const std::vector<SimResult>& runs) {
  if (runs.size() == 1) return sim_digest(runs.front());
  DigestBuilder d;
  for (const SimResult& r : runs) d.add(sim_digest(r));
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Timing decorators. Each forwards every virtual of its interface unchanged,
// so a decorated run reproduces the undecorated run's digest.
// ---------------------------------------------------------------------------

class TimedPolicy final : public ControlPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<ControlPolicy> inner) : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  OpMode decide(NodeId router, const FeatureSnapshot& state, double reward) override {
    const auto t0 = Clock::now();
    const OpMode m = inner_->decide(router, state, reward);
    seconds_ += seconds_since(t0);
    ++calls_;
    return m;
  }
  void begin_phase(SimPhase phase) override { inner_->begin_phase(phase); }
  std::optional<PowerEvent> control_energy_event() const override {
    return inner_->control_energy_event();
  }

  std::uint64_t calls() const noexcept { return calls_; }
  double seconds() const noexcept { return seconds_; }

 private:
  std::unique_ptr<ControlPolicy> inner_;
  std::uint64_t calls_ = 0;
  double seconds_ = 0.0;
};

class TimedTraffic final : public TrafficGenerator {
 public:
  explicit TimedTraffic(std::unique_ptr<TrafficGenerator> inner) : inner_(std::move(inner)) {}

  void tick(Cycle now, std::vector<Packet>& out) override {
    const std::size_t before = out.size();
    const auto t0 = Clock::now();
    inner_->tick(now, out);
    seconds_ += seconds_since(t0);
    packets_ += out.size() - before;
  }
  bool exhausted() const override { return inner_->exhausted(); }
  const std::string& name() const override { return inner_->name(); }

  std::uint64_t packets() const noexcept { return packets_; }
  double seconds() const noexcept { return seconds_; }

 private:
  std::unique_ptr<TrafficGenerator> inner_;
  std::uint64_t packets_ = 0;
  double seconds_ = 0.0;
};

/// Wraps `traffic` in a TimedTraffic unless it is a WorkloadReplayTraffic:
/// Simulator::run finds that type by dynamic_cast to attach the completion
/// feed, so a wrapped replay would silently run open-loop. Returns the timer,
/// or nullptr when the traffic was left unwrapped.
TimedTraffic* wrap_traffic(std::unique_ptr<TrafficGenerator>& traffic) {
  if (dynamic_cast<WorkloadReplayTraffic*>(traffic.get()) != nullptr) return nullptr;
  auto timed = std::make_unique<TimedTraffic>(std::move(traffic));
  TimedTraffic* raw = timed.get();
  traffic = std::move(timed);
  return raw;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class TrafficKind { kUniform, kParsec, kRpc };

/// One Simulator run: fully resolved options plus how to build its traffic.
/// `opt.seed` fixes the simulated chip (process variation, error draws,
/// learning); `traffic_seed` generates the workload's input traffic.
struct Job {
  SimOptions opt;
  std::uint64_t traffic_seed = 0;
  TrafficKind kind = TrafficKind::kUniform;
  SyntheticTraffic::Options synthetic;
  ParsecProfile parsec;
  Config rpc;  ///< wl.* keys for make_builtin_workload("rpc", ...)
  std::size_t expected_faults = 0;
};

/// A workload: its jobs, and for a campaign the run_campaign arguments that
/// must reproduce them.
struct Plan {
  std::uint64_t seed = 0;
  std::vector<Job> jobs;
  bool campaign = false;
  SimOptions campaign_base;
  std::vector<std::string> benchmarks;
  std::vector<PolicyKind> policies;
  std::uint64_t budget_pct = 100;
};

struct WorkloadInfo {
  const char* name;
  std::uint64_t default_seed;
};

constexpr std::array<WorkloadInfo, 3> kWorkloads{{
    {"mesh32_uniform", 17},
    {"parsec_campaign", 11},
    {"torus12_rpc_faults", 23},
}};

/// `quick` shrinks each workload to a fraction of a second for the self-test
/// while keeping its shape (layers, policy, traffic kind, faults).
Plan make_plan(const std::string& workload, std::uint64_t seed,
               const std::string& scratch, bool quick) {
  Plan plan;
  plan.seed = seed;
  if (workload == "mesh32_uniform") {
    Job job;
    job.opt.seed = 17;
    job.traffic_seed = seed;
    job.opt.policy = PolicyKind::kStaticArqEcc;
    job.opt.noc.mesh_width = 32;
    job.opt.noc.mesh_height = 32;
    job.opt.sim_threads = 4;
    job.opt.pretrain_cycles = 0;
    job.opt.warmup_cycles = 0;
    // Enough link errors that ARQ retransmission is steady work rather than
    // a handful of droop bursts.
    job.opt.error_scale = 8.0;
    job.kind = TrafficKind::kUniform;
    job.synthetic.pattern = TrafficPattern::kUniform;
    job.synthetic.injection_rate = 0.06;
    job.synthetic.total_packets = quick ? 3000 : 60000;
    plan.jobs.push_back(std::move(job));
  } else if (workload == "parsec_campaign") {
    // The paper's campaign; each job replicates run_campaign's derivation
    // of its seed and phase/packet budgets (sim/campaign.cpp).
    plan.campaign = true;
    plan.campaign_base.seed = seed;
    plan.campaign_base.jobs = 4;
    plan.budget_pct = quick ? 1 : 3;
    for (const ParsecProfile& p : parsec_suite()) plan.benchmarks.push_back(p.name);
    if (quick) plan.benchmarks.resize(2);
    plan.policies = {PolicyKind::kStaticCrc, PolicyKind::kStaticArqEcc,
                     PolicyKind::kDecisionTree, PolicyKind::kRl};
    for (const std::string& bench : plan.benchmarks) {
      for (const PolicyKind pol : plan.policies) {
        Job job;
        job.opt = plan.campaign_base;
        job.opt.policy = pol;
        job.opt.seed = campaign_run_seed(seed, bench, pol);
        job.traffic_seed = job.opt.seed;
        job.opt.warmup_cycles = job.opt.warmup_cycles * plan.budget_pct / 100;
        job.opt.pretrain_cycles = job.opt.pretrain_cycles * plan.budget_pct / 100;
        job.kind = TrafficKind::kParsec;
        job.parsec = parsec_profile(bench);
        job.parsec.total_packets = std::max<std::uint64_t>(
            1, job.parsec.total_packets * plan.budget_pct / 100);
        plan.jobs.push_back(std::move(job));
      }
    }
  } else if (workload == "torus12_rpc_faults") {
    // A fixed RPC scenario on a fixed chip; the seed picks when the two
    // mid-run link faults strike. The decision tree, unlike online RL, does
    // not amplify that perturbation into a different run altogether.
    Job job;
    job.opt.seed = 23;
    job.traffic_seed = 23;
    job.opt.policy = PolicyKind::kDecisionTree;
    job.opt.noc.topology = TopologyKind::kTorus;
    job.opt.noc.routing = RoutingAlgorithm::kAdaptive;
    job.opt.noc.mesh_width = 12;
    job.opt.noc.mesh_height = 12;
    job.opt.pretrain_cycles = quick ? 2000 : 20000;
    job.opt.warmup_cycles = 0;
    job.opt.error_scale = 5.0;
    // Two links dead from the start, two more struck while the RPC traffic
    // runs (after pretraining), each within a seed-chosen window.
    const Cycle span = quick ? 400 : 20000;
    Rng strike(seed, "perfbench.strike");
    const auto at = [&](Cycle base) {
      return std::to_string(job.opt.pretrain_cycles + base + strike.next_below(span / 10));
    };
    job.opt.hard_faults = parse_hard_faults("link:27:E, link:10:N, link:77:E@" +
                                            at(span / 2) + ", link:100:N@" + at(span));
    job.expected_faults = job.opt.hard_faults.size();
    job.opt.telemetry.enabled = true;
    job.opt.telemetry.out_dir = scratch + "/telemetry";
    job.kind = TrafficKind::kRpc;
    job.rpc.set("wl.clients", "48");
    job.rpc.set("wl.servers", "48");
    job.rpc.set("wl.requests", quick ? "4" : "200");
    job.rpc.set("wl.fanout", "3");
    plan.jobs.push_back(std::move(job));
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return plan;
}

std::unique_ptr<TrafficGenerator> make_traffic(const Job& job) {
  const MeshTopology topo(job.opt.noc);
  switch (job.kind) {
    case TrafficKind::kUniform:
      return std::make_unique<SyntheticTraffic>(topo, job.synthetic, job.traffic_seed);
    case TrafficKind::kParsec:
      return std::make_unique<ParsecTraffic>(topo, job.parsec, job.traffic_seed);
    case TrafficKind::kRpc:
      return std::make_unique<WorkloadReplayTraffic>(
          make_builtin_workload("rpc", topo, job.rpc, job.traffic_seed), topo.num_nodes(),
          job.traffic_seed);
  }
  throw std::logic_error("unhandled traffic kind");
}

// ---------------------------------------------------------------------------
// Running jobs
// ---------------------------------------------------------------------------

/// Per-layer figures of one or more runs; sums across campaign jobs.
struct LayerStats {
  double build_s = 0, construct_s = 0, wall_s = 0;
  double serial_s = 0, receive_s = 0, execute_s = 0, merge_s = 0;
  double decide_s = 0, tick_s = 0;
  double export_s = 0;
  std::uint64_t node_cycles = 0, router_skipped = 0, ni_skipped = 0;
  std::uint64_t slept = 0, dispatches = 0, merges = 0, staged = 0;
  std::uint64_t decide_calls = 0, tick_packets = 0;
  std::uint64_t transfers = 0, retired = 0, abandoned = 0;
  std::uint64_t export_bytes = 0, trace_dropped = 0;
  std::array<double, kNumOpModes> mode_sum{};
  std::size_t runs = 0;

  void add(const LayerStats& o) {
    build_s += o.build_s, construct_s += o.construct_s, wall_s += o.wall_s;
    serial_s += o.serial_s, receive_s += o.receive_s, execute_s += o.execute_s;
    merge_s += o.merge_s, decide_s += o.decide_s, tick_s += o.tick_s;
    export_s += o.export_s;
    node_cycles += o.node_cycles, router_skipped += o.router_skipped;
    ni_skipped += o.ni_skipped, slept += o.slept, dispatches += o.dispatches;
    merges += o.merges, staged += o.staged, decide_calls += o.decide_calls;
    tick_packets += o.tick_packets, transfers += o.transfers, retired += o.retired;
    abandoned += o.abandoned, export_bytes += o.export_bytes;
    trace_dropped += o.trace_dropped;
    for (std::size_t m = 0; m < kNumOpModes; ++m) mode_sum[m] += o.mode_sum[m];
    runs += o.runs;
  }
};

struct JobRun {
  SimResult res;
  LayerStats stats;
};

/// Checks that fail the invocation; each message also goes to stderr.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    failures.push_back(what);
  }
};

/// Packets offered to the network (enqueued, or dropped at the boundary) and
/// how many of them were not delivered. A run that did not drain loses all.
struct Tally {
  std::uint64_t offered = 0, lost = 0;
  void add(const SimResult& r) {
    const std::uint64_t drops = r.enqueue_drops + r.unreachable_drops;
    const std::uint64_t offer = r.packets_injected + drops;
    offered += offer;
    if (!r.drained) {
      lost += offer;
    } else {
      lost += drops + (r.packets_injected > r.packets_delivered
                           ? r.packets_injected - r.packets_delivered
                           : 0);
    }
  }
};

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    if (e.is_regular_file()) bytes += e.file_size();
  return bytes;
}

/// One complete run. `traced` turns on phase timing and the decorators, and
/// re-exports the run's telemetry into a second scratch directory.
JobRun run_job(const Job& job, bool traced, const std::string& scratch) {
  JobRun out;
  LayerStats& s = out.stats;
  const auto t0 = Clock::now();
  std::unique_ptr<TrafficGenerator> traffic = make_traffic(job);
  const auto t1 = Clock::now();
  TimedTraffic* traffic_timer = traced ? wrap_traffic(traffic) : nullptr;
  TimedPolicy* policy_timer = nullptr;
  std::unique_ptr<ControlPolicy> policy;
  if (traced) {
    auto timed = std::make_unique<TimedPolicy>(make_policy(job.opt));
    policy_timer = timed.get();
    policy = std::move(timed);
  }
  Simulator sim(job.opt, std::move(policy));
  sim.network().set_phase_timing(traced);
  const auto t2 = Clock::now();
  out.res = sim.run(*traffic);
  s.wall_s = seconds_since(t2);
  s.build_s = std::chrono::duration<double>(t1 - t0).count();
  s.construct_s = std::chrono::duration<double>(t2 - t1).count();
  s.runs = 1;

  const Network& net = sim.network();
  const Network::PhaseTimings& pt = net.phase_timings();
  s.serial_s = pt.serial_seconds;
  s.receive_s = pt.receive_seconds;
  s.execute_s = pt.execute_seconds;
  s.merge_s = pt.merge_seconds;
  s.node_cycles = out.res.total_cycles * static_cast<std::uint64_t>(job.opt.noc.num_nodes());
  s.router_skipped = net.router_steps_skipped();
  s.ni_skipped = net.ni_steps_skipped();
  s.slept = net.lookahead_cycles_slept();
  s.dispatches = net.phase_dispatches();
  s.merges = net.merges_run();
  s.staged = net.staged_effects_merged();
  for (std::size_t m = 0; m < kNumOpModes; ++m) s.mode_sum[m] = out.res.mode_fraction[m];
  if (policy_timer) {
    s.decide_calls = policy_timer->calls();
    s.decide_s = policy_timer->seconds();
  }
  if (traffic_timer) {
    s.tick_packets = traffic_timer->packets();
    s.tick_s = traffic_timer->seconds();
  }
  if (const auto* replay = dynamic_cast<const WorkloadReplayTraffic*>(traffic.get())) {
    s.transfers = replay->transfers_total();
    s.retired = replay->transfers_retired();
    s.abandoned = replay->transfers_abandoned();
  }
  if (traced && sim.telemetry() != nullptr) {
    const Telemetry& tel = *sim.telemetry();
    TelemetryExportInfo info;
    info.out_dir = scratch + "/reexport";
    info.workload = out.res.workload;
    info.policy = out.res.policy;
    info.label = sanitize_run_label(info.workload + "_" + info.policy);
    info.seed = job.opt.seed;
    info.mesh_width = job.opt.noc.mesh_width;
    info.mesh_height = job.opt.noc.mesh_height;
    info.end_cycle = out.res.total_cycles;
    const auto e0 = Clock::now();
    export_run_telemetry(tel, info, {});
    s.export_s = seconds_since(e0);
    s.export_bytes = directory_bytes(info.out_dir);
    s.trace_dropped = tel.tracer().dropped();
  }
  if (net.hard_faults_applied() != job.expected_faults) {
    throw std::runtime_error("hard faults applied: " +
                             std::to_string(net.hard_faults_applied()) + " of " +
                             std::to_string(job.expected_faults));
  }
  return out;
}

/// Set-up cost of a job: traffic construction plus Simulator construction,
/// everything before the first simulated cycle.
double setup_seconds(const Job& job) {
  const auto t0 = Clock::now();
  std::unique_ptr<TrafficGenerator> traffic = make_traffic(job);
  Simulator sim(job.opt);
  return seconds_since(t0);
}

/// One repetition of a workload, untraced: the single run, or the whole
/// campaign through run_campaign (wall = makespan).
struct Rep {
  std::vector<SimResult> runs;
  double wall_s = 0;
  double setup_s = -1;  ///< set for single-run workloads
};

Rep run_rep(const Plan& plan, const std::string& scratch) {
  Rep rep;
  if (plan.campaign) {
    const auto t0 = Clock::now();
    const CampaignResults cr =
        run_campaign(plan.campaign_base, plan.benchmarks, plan.policies, plan.budget_pct);
    rep.wall_s = seconds_since(t0);
    for (const auto& row : cr.results)
      for (const SimResult& r : row) rep.runs.push_back(r);
    return rep;
  }
  JobRun jr = run_job(plan.jobs.front(), false, scratch);
  rep.runs.push_back(jr.res);
  rep.wall_s = jr.stats.wall_s;
  rep.setup_s = jr.stats.build_s + jr.stats.construct_s;
  return rep;
}

std::uint64_t total_cycles(const std::vector<SimResult>& runs) {
  std::uint64_t c = 0;
  for (const SimResult& r : runs) c += r.total_cycles;
  return c;
}

/// Geometric mean of a per-run statistic (the value itself for one run).
template <typename F>
double geomean(const std::vector<SimResult>& runs, F f) {
  double log_sum = 0;
  for (const SimResult& r : runs) log_sum += std::log(std::max(f(r), 1e-300));
  return std::exp(log_sum / static_cast<double>(runs.size()));
}

void check_runs(const Plan& plan, const std::vector<SimResult>& runs, Checks& checks) {
  checks.expect(runs.size() == plan.jobs.size(), "one result per job");
  for (const SimResult& r : runs) {
    checks.expect(r.drained, r.workload + "/" + r.policy + " drained");
    Tally t;
    t.add(r);
    checks.expect(t.lost == 0, r.workload + "/" + r.policy + " delivered every packet");
  }
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("perfbench metric %-32s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void print_environment(const std::string& workload, std::uint64_t seed, int trace) {
  std::printf(
      "perfbench env {\"hardware_threads\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"g++ %s\", \"rlftnoc_telemetry\": \"%s\", \"git_sha\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, __VERSION__,
      PERFBENCH_TELEMETRY, telemetry_git_sha(), workload.c_str(),
      static_cast<unsigned long long>(seed), trace);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10;
  int trace = 0;
  std::string reference_digest;
  std::string scratch = "perfbench-scratch-" + std::to_string(getpid());
  bool selftest = false;
};

constexpr int kMinSetupSamples = 9;

/// An invocation measures kInputs inputs drawn from its seed, the seed itself
/// first. Repetition i runs input i % kInputs, so the simulated statistics
/// average over kInputs inputs and the timings over all of them.
constexpr int kInputs = 4;

std::vector<Plan> make_inputs(const std::string& workload, std::uint64_t seed,
                              const std::string& scratch) {
  std::vector<Plan> inputs;
  Rng derive(seed, "perfbench.inputs");
  for (int i = 0; i < kInputs; ++i)
    inputs.push_back(make_plan(workload, i == 0 ? seed : derive.next_u64(), scratch, false));
  return inputs;
}

/// Checks one repetition of input `in`: every run drained and delivered,
/// and the digest matches the input's first repetition.
void check_rep(const Plan& plan, const std::vector<SimResult>& runs, std::size_t in,
               std::vector<std::uint64_t>& digests, Checks& checks) {
  check_runs(plan, runs, checks);
  const std::uint64_t d = sim_digest(runs);
  if (digests[in] == 0) digests[in] = d;
  checks.expect(d == digests[in], "input " + std::to_string(in) +
                                      " reproduces its sim_digest on every repetition");
}

/// Untraced: end-to-end metrics, timings as medians over repetitions.
std::vector<Metric> measure_untraced(const std::vector<Plan>& inputs, const Args& args,
                                     Checks& checks, Tally& tally,
                                     std::vector<std::uint64_t>& digests) {
  std::vector<double> setup, wall, cps;
  std::vector<std::vector<SimResult>> results(inputs.size());
  const auto start = Clock::now();
  for (std::size_t rep_no = 0; rep_no < inputs.size() || seconds_since(start) < args.seconds;
       ++rep_no) {
    const std::size_t in = rep_no % inputs.size();
    const Rep rep = run_rep(inputs[in], args.scratch);
    check_rep(inputs[in], rep.runs, in, digests, checks);
    for (const SimResult& r : rep.runs) tally.add(r);
    if (rep_no < inputs.size()) results[in] = rep.runs;
    if (rep.setup_s >= 0) setup.push_back(rep.setup_s);
    std::fprintf(stderr, "perfbench: repetition %zu input %zu run_wall_s %.4f\n", rep_no, in,
                 rep.wall_s);
    wall.push_back(rep.wall_s);
    cps.push_back(static_cast<double>(total_cycles(rep.runs)) / rep.wall_s);
  }
  // Set-up samples beyond the repetitions' own: a campaign sample sets up
  // every job once.
  while (setup.size() < kMinSetupSamples) {
    double s = 0;
    for (const Job& job : inputs[setup.size() % inputs.size()].jobs) s += setup_seconds(job);
    setup.push_back(s);
  }

  // A simulated statistic: the mean over inputs of its per-input value.
  const auto over_inputs = [&](auto stat) {
    double sum = 0;
    for (const auto& runs : results) sum += stat(runs);
    return sum / static_cast<double>(results.size());
  };
  const auto geo = [&](auto field) {
    return over_inputs([&](const std::vector<SimResult>& runs) { return geomean(runs, field); });
  };
  return {
      {"setup_s", median(setup), "s"},
      {"run_wall_s", median(wall), "s"},
      {"sim_cycles_per_s", median(cps), "cycles/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"packets_delivered_frac",
       1.0 - static_cast<double>(tally.lost) /
                 static_cast<double>(std::max<std::uint64_t>(tally.offered, 1)),
       "fraction"},
      {"sim.exec_cycles",
       geo([](const SimResult& r) { return static_cast<double>(r.execution_cycles); }),
       "cycles"},
      {"sim.latency_p50_cycles", geo([](const SimResult& r) { return r.p50_latency; }),
       "cycles"},
      {"sim.latency_p99_cycles", geo([](const SimResult& r) { return r.p99_latency; }),
       "cycles"},
      {"sim.energy_eff_flits_per_nj", geo([](const SimResult& r) { return r.energy_efficiency; }),
       "flits/nJ"},
      // Fault-caused retransmissions, Fig. 6's metric; mode-2 duplicates are
      // deliberate traffic, charged to energy. Shifted by one flit so the
      // campaign's runs that retransmit nothing keep the geometric mean
      // finite; a single run reads its exact count.
      {"sim.retx_flits",
       geo([](const SimResult& r) {
         return static_cast<double>(r.retx_flits_e2e + r.retx_flits_hop) + 1.0;
       }) - 1.0,
       "flits"},
  };
}

/// One traced repetition: untraced reference + traced runs of every job.
struct TracedRep {
  LayerStats traced;           ///< summed over jobs (serial)
  double untraced_wall = 0;    ///< makespan / single run wall
  double untraced_serial = 0;  ///< sum of untraced job walls
  std::vector<double> job_walls;
};

TracedRep run_traced_rep(const Plan& plan, std::size_t in, const Args& args, Checks& checks,
                         Tally& tally, std::vector<std::uint64_t>& digests) {
  TracedRep tr;
  const Rep rep = run_rep(plan, args.scratch);
  check_rep(plan, rep.runs, in, digests, checks);
  for (const SimResult& r : rep.runs) tally.add(r);
  tr.untraced_wall = rep.wall_s;

  if (plan.campaign) {
    // Campaign replication: each job rebuilt here reproduces its row.
    for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
      const JobRun jr = run_job(plan.jobs[j], false, args.scratch);
      tally.add(jr.res);
      checks.expect(sim_digest(jr.res) == sim_digest(rep.runs[j]),
                    "job " + std::to_string(j) + " (" + jr.res.workload + "/" +
                        jr.res.policy + ") reproduces its run_campaign row");
      tr.job_walls.push_back(jr.stats.wall_s);
      tr.untraced_serial += jr.stats.wall_s;
    }
  } else {
    tr.job_walls.push_back(rep.wall_s);
    tr.untraced_serial = rep.wall_s;
  }

  std::vector<SimResult> traced_runs;
  for (const Job& job : plan.jobs) {
    JobRun jr = run_job(job, true, args.scratch);
    tr.traced.add(jr.stats);
    traced_runs.push_back(jr.res);
    tally.add(jr.res);
  }
  check_runs(plan, traced_runs, checks);
  checks.expect(sim_digest(traced_runs) == digests[in],
                "traced run reproduces the untraced sim_digest");
  return tr;
}

std::vector<Metric> measure_traced(const std::vector<Plan>& inputs, const Args& args,
                                   Checks& checks, Tally& tally,
                                   std::vector<std::uint64_t>& digests) {
  std::vector<TracedRep> reps;
  const auto start = Clock::now();
  do {
    const std::size_t in = reps.size() % inputs.size();
    reps.push_back(run_traced_rep(inputs[in], in, args, checks, tally, digests));
  } while (seconds_since(start) < args.seconds);
  const Plan& plan = inputs.front();

  std::vector<double> overhead;
  for (const TracedRep& r : reps) overhead.push_back(r.traced.wall_s / r.untraced_serial - 1.0);
  // Report the repetition with the median traced wall, so its layer times
  // and residual add up to its own wall.
  std::sort(reps.begin(), reps.end(), [](const TracedRep& a, const TracedRep& b) {
    return a.traced.wall_s < b.traced.wall_s;
  });
  const TracedRep& m = reps[(reps.size() - 1) / 2];
  const LayerStats& s = m.traced;
  const double visits = static_cast<double>(s.node_cycles - s.router_skipped);
  const double node_cycles = static_cast<double>(std::max<std::uint64_t>(s.node_cycles, 1));
  const double residual = s.wall_s - s.serial_s - s.receive_s - s.execute_s - s.merge_s -
                          s.decide_s - s.tick_s;
  const std::vector<double>& walls = m.job_walls;
  const double job_max = *std::max_element(walls.begin(), walls.end());
  const double executor_overhead =
      plan.campaign ? m.untraced_wall - m.untraced_serial / plan.campaign_base.jobs : 0.0;
  const auto runs = static_cast<double>(std::max<std::size_t>(s.runs, 1));

  return {
      {"trace.run_wall_s", s.wall_s, "s"},
      {"noc.step.serial_s", s.serial_s, "s"},
      {"noc.step.receive_s", s.receive_s, "s"},
      {"noc.step.execute_s", s.execute_s, "s"},
      {"noc.step.merge_s", s.merge_s, "s"},
      {"noc.router_visits", visits, "count"},
      {"noc.router_skip_frac", static_cast<double>(s.router_skipped) / node_cycles, "fraction"},
      {"noc.ni_skip_frac", static_cast<double>(s.ni_skipped) / node_cycles, "fraction"},
      {"noc.host_ns_per_router_visit",
       visits > 0 ? (s.receive_s + s.execute_s) * 1e9 / visits : 0.0, "ns"},
      {"noc.lookahead_cycles_slept", static_cast<double>(s.slept), "count"},
      {"noc.phase_dispatches", static_cast<double>(s.dispatches), "count"},
      {"noc.merges_run", static_cast<double>(s.merges), "count"},
      {"noc.staged_effects_merged", static_cast<double>(s.staged), "count"},
      {"ftnoc.decide_calls", static_cast<double>(s.decide_calls), "count"},
      {"ftnoc.decide_s", s.decide_s, "s"},
      {"ftnoc.mode0_frac", s.mode_sum[0] / runs, "fraction"},
      {"ftnoc.mode1_frac", s.mode_sum[1] / runs, "fraction"},
      {"ftnoc.mode2_frac", s.mode_sum[2] / runs, "fraction"},
      {"ftnoc.mode3_frac", s.mode_sum[3] / runs, "fraction"},
      {"traffic.tick_s", s.tick_s, "s"},
      {"traffic.packets", static_cast<double>(s.tick_packets), "count"},
      {"workload.build_s", s.build_s, "s"},
      {"workload.transfers", static_cast<double>(s.transfers), "count"},
      {"workload.retired", static_cast<double>(s.retired), "count"},
      {"workload.abandoned", static_cast<double>(s.abandoned), "count"},
      {"sim.construct_s", s.construct_s, "s"},
      {"sim.residual_s", residual, "s"},
      {"campaign.job_s_p50", median(walls), "s"},
      {"campaign.job_s_max", job_max, "s"},
      {"campaign.executor_overhead_s", executor_overhead, "s"},
      {"telemetry.export_s", s.export_s, "s"},
      {"telemetry.bytes_written", static_cast<double>(s.export_bytes), "bytes"},
      {"telemetry.trace_dropped", static_cast<double>(s.trace_dropped), "count"},
      {"trace_overhead_frac", median(overhead), "fraction"},
  };
}

/// Decorator transparency on shrunken versions of every workload: the
/// decorated run reproduces the plain run's digest, a replay workload is
/// never wrapped, and run_campaign rows match the rebuilt jobs.
bool selftest(const std::string& scratch) {
  Checks checks;
  for (const WorkloadInfo& w : kWorkloads) {
    const Plan plan = make_plan(w.name, w.default_seed, scratch, true);
    std::vector<SimResult> plain, traced;
    for (const Job& job : plan.jobs) {
      plain.push_back(run_job(job, false, scratch).res);
      traced.push_back(run_job(job, true, scratch).res);
      std::unique_ptr<TrafficGenerator> t = make_traffic(job);
      const bool replay = dynamic_cast<WorkloadReplayTraffic*>(t.get()) != nullptr;
      checks.expect((wrap_traffic(t) == nullptr) == replay,
                    std::string(w.name) + ": only non-replay traffic is wrapped");
    }
    checks.expect(sim_digest(plain) == sim_digest(traced),
                  std::string(w.name) + ": decorators leave sim_digest unchanged");
    if (plan.campaign) {
      const CampaignResults cr =
          run_campaign(plan.campaign_base, plan.benchmarks, plan.policies, plan.budget_pct);
      std::vector<SimResult> rows;
      for (const auto& row : cr.results)
        for (const SimResult& r : row) rows.push_back(r);
      checks.expect(sim_digest(rows) == sim_digest(plain),
                    std::string(w.name) + ": rebuilt jobs reproduce run_campaign");
    }
    std::printf("perfbench selftest %-20s sim_digest %s\n", w.name,
                hex(sim_digest(plain)).c_str());
  }
  return checks.failures.empty();
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_noc: %s\n"
               "usage: perfbench_noc --workload NAME --seed N --seconds S --trace 0|1\n"
               "                     [--reference-digest HEX] [--scratch DIR]\n"
               "       perfbench_noc --selftest [--scratch DIR]\n"
               "workloads: mesh32_uniform parsec_campaign torus12_rpc_faults\n",
               msg);
  return 2;
}

int run(const Args& args) {
  const WorkloadInfo* info = find_workload(args.workload);
  print_environment(args.workload, args.seed, args.trace);
  const std::vector<Plan> inputs = make_inputs(args.workload, args.seed, args.scratch);

  Checks checks;
  Tally tally;
  std::vector<std::uint64_t> digests(inputs.size(), 0);
  std::vector<Metric> metrics;
  try {
    if (args.trace) {
      checks.expect(selftest(args.scratch), "decorator self-test");
      metrics = measure_traced(inputs, args, checks, tally, digests);
    } else {
      metrics = measure_untraced(inputs, args, checks, tally, digests);
    }
    for (std::size_t in = 0; in < inputs.size(); ++in) {
      if (digests[in] == 0) continue;  // a traced invocation may not reach every input
      std::printf("perfbench sim_digest %s (workload %s, input %zu, seed %llu)\n",
                  hex(digests[in]).c_str(), args.workload.c_str(), in,
                  static_cast<unsigned long long>(inputs[in].seed));
    }
    if (!args.reference_digest.empty()) {
      // The recorded digest belongs to the workload's default seed.
      std::uint64_t ref = digests.front();
      if (args.seed != info->default_seed) {
        ref = sim_digest(
            run_rep(make_plan(args.workload, info->default_seed, args.scratch, false),
                    args.scratch)
                .runs);
      }
      std::printf("perfbench reference sim_digest %s at default seed %llu, recorded %s\n",
                  hex(ref).c_str(), static_cast<unsigned long long>(info->default_seed),
                  args.reference_digest.c_str());
      checks.expect(hex(ref) == args.reference_digest,
                    "default-seed sim_digest matches the recorded digest");
    }
  } catch (const std::exception& e) {
    checks.expect(false, std::string("run threw: ") + e.what());
    tally.lost = tally.offered;
  }
  const bool correct = checks.failures.empty();
  const std::uint64_t attempted = std::max<std::uint64_t>(tally.offered, 1);
  print_result(correct, attempted, correct ? tally.lost : attempted, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      args.selftest = true;
    } else if (!has_value) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      args.workload = argv[++i];
    } else if (a == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
      args.seed_set = true;
    } else if (a == "--seconds") {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      args.trace = std::atoi(argv[++i]);
    } else if (a == "--reference-digest") {
      args.reference_digest = argv[++i];
    } else if (a == "--scratch") {
      args.scratch = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  namespace fs = std::filesystem;
  int rc = 0;
  try {
    fs::create_directories(args.scratch);
    if (args.selftest) {
      rc = selftest(args.scratch) ? 0 : 1;
      std::printf("perfbench selftest %s\n", rc == 0 ? "passed" : "FAILED");
    } else if (find_workload(args.workload) == nullptr) {
      rc = usage(("unknown workload '" + args.workload + "'").c_str());
    } else if (!args.seed_set || args.seconds <= 0 || (args.trace != 0 && args.trace != 1)) {
      rc = usage("--seed, a positive --seconds and --trace 0|1 are required");
    } else {
      rc = run(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_noc: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(args.scratch, ec);
  return rc;
}
