// Micro-performance benchmarks (google-benchmark): the hot inner kernels of
// the simulator. Useful when hacking on the router datapath — a regression
// here multiplies directly into campaign wall-time. tools/bench_summary.py
// gates the kernels in its GATED_KERNELS list against BENCH_microperf.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>

#include "coding/crc.h"
#include "coding/secded.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fault/injector.h"
#include "noc/network.h"
#include "noc/ni.h"
#include "rl/agent.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"

namespace rlftnoc {
namespace {

void BM_Crc32Flit(benchmark::State& state) {
  Rng rng(1);
  const BitVec128 payload(rng.next_u64(), rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(default_crc32().compute(payload));
  }
}
BENCHMARK(BM_Crc32Flit);

void BM_SecdedEncodeFlit(benchmark::State& state) {
  Rng rng(2);
  const BitVec128 payload(rng.next_u64(), rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_flit_ecc(default_secded(), payload));
  }
}
BENCHMARK(BM_SecdedEncodeFlit);

void BM_SecdedDecodeCorrupted(benchmark::State& state) {
  Rng rng(3);
  const BitVec128 payload(rng.next_u64(), rng.next_u64());
  const FlitEcc ecc = encode_flit_ecc(default_secded(), payload);
  BitVec128 bad = payload;
  bad.flip_bit(37);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_flit_ecc(default_secded(), bad, ecc));
  }
}
BENCHMARK(BM_SecdedDecodeCorrupted);

void BM_FaultInjection(benchmark::State& state) {
  VariusModel model;
  LinkFaultInjector inj(&model, 4, "bench");
  BitVec128 payload(1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(inj.inject(payload, nullptr, 0.01));
  }
}
BENCHMARK(BM_FaultInjection);

void BM_QLearningStep(benchmark::State& state) {
  QLearningAgent agent(QLearningParams{}, 5, "bench");
  Rng rng(6);
  DiscreteState s{0, 1, 2, 1, 0, 1, 0, 3};
  DiscreteState s2 = s;
  for (auto _ : state) {
    s[0] = static_cast<std::uint8_t>(rng.next_below(5));
    s2[1] = static_cast<std::uint8_t>(rng.next_below(5));
    const int a = agent.select_action(s);
    agent.update(s, a, 0.5, s2);
  }
}
BENCHMARK(BM_QLearningStep);

void BM_NetworkCyclePerLoad(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  NocConfig cfg;
  Network net(cfg, 1);
  SyntheticTraffic::Options o;
  o.injection_rate = rate;
  o.total_packets = 0;
  SyntheticTraffic gen(MeshTopology(cfg), o, 7);
  std::vector<Packet> batch;
  for (auto _ : state) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkCyclePerLoad)->Arg(2)->Arg(8)->Arg(15);

void BM_NetworkCycleWithFaultsAndEcc(benchmark::State& state) {
  NocConfig cfg;
  Network net(cfg, 1);
  for (NodeId r = 0; r < cfg.num_nodes(); ++r) {
    net.router(r).set_mode(OpMode::kMode1);
    for (const Port pt : kAllPorts) {
      if (pt != Port::kLocal && net.out_channel(r, pt) != nullptr)
        net.set_link_error_prob(r, pt, LinkErrorProb{0.01, 1e-12});
    }
  }
  SyntheticTraffic::Options o;
  o.injection_rate = 0.08;
  o.total_packets = 0;
  SyntheticTraffic gen(MeshTopology(cfg), o, 8);
  std::vector<Packet> batch;
  for (auto _ : state) {
    batch.clear();
    gen.tick(net.now(), batch);
    for (auto& p : batch) net.ni(p.src).enqueue_packet(std::move(p));
    net.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkCycleWithFaultsAndEcc);

// Skip-sampled link error draws: `inject_gated` with a precompiled gate at
// p = 0.01 (a typical elevated-error steady state), and the draw-free
// never-gate every healthy link takes.
void fault_injection_gated(benchmark::State& state, double p) {
  VariusModel model;
  LinkFaultInjector inj(&model, 17, "bench");
  const std::uint64_t gate = Rng::bernoulli_gate(p);
  BitVec128 payload(1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(inj.inject_gated(payload, nullptr, p, gate));
  }
}

void BM_FaultInjectionGated(benchmark::State& state) {
  fault_injection_gated(state, 0.01);
}
BENCHMARK(BM_FaultInjectionGated);

void BM_FaultInjectionNever(benchmark::State& state) {
  fault_injection_gated(state, 0.0);
}
BENCHMARK(BM_FaultInjectionNever);

// One FtController::control_step on a 16x16 mesh under the RL policy:
// thermal step, feature build, VARIUS refresh and per-router Q-update.
void BM_ControlStep(benchmark::State& state) {
  SimOptions opt;
  opt.seed = 17;
  opt.policy = PolicyKind::kRl;
  opt.noc.mesh_width = 16;
  opt.noc.mesh_height = 16;
  Simulator sim(opt);  // the constructor performs the first control step
  FtController& ctl = sim.controller();
  for (auto _ : state) ctl.control_step();
}
BENCHMARK(BM_ControlStep);

// One serial run of a loaded 16x16 mesh under static ARQ+ECC (no RL
// updates), the bench_scaling 16x16 sim_threads=1 workload at 8,000 packets
// (the budget BENCH_microperf.json's baseline was measured at; the scaling
// cell itself runs longer): the router datapath under realistic occupancy.
// Building and tearing down the simulator stay outside the timed region.
void BM_RouterStep16x16(benchmark::State& state) {
  SimOptions opt;
  opt.seed = 17;
  opt.policy = PolicyKind::kStaticArqEcc;
  opt.noc.mesh_width = 16;
  opt.noc.mesh_height = 16;
  opt.pretrain_cycles = 0;
  opt.warmup_cycles = 0;
  SyntheticTraffic::Options to;
  to.injection_rate = 0.06;
  to.total_packets = 8000;
  std::optional<Simulator> sim;
  std::optional<SyntheticTraffic> gen;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim.reset();
    sim.emplace(opt);
    gen.emplace(MeshTopology(opt.noc), to, opt.seed);
    state.ResumeTiming();
    cycles = sim->run(*gen).total_cycles;
  }
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_RouterStep16x16)->Unit(benchmark::kMillisecond);

// Round trip of one PhasePool phase with no work: publish, one no-op task
// per executor (the caller and `helpers` workers), and the join. This is the
// fixed cost each of Network::step's two dispatches pays on top of its
// bands' work. Wall time, since the caller's CPU time hides the wait.
void BM_PhaseDispatch(benchmark::State& state) {
  const auto helpers = static_cast<unsigned>(state.range(0));
  PhasePool pool(helpers);
  for (auto _ : state) {
    pool.run(helpers + 1, [](std::size_t i) { benchmark::DoNotOptimize(i); });
  }
}
BENCHMARK(BM_PhaseDispatch)->Arg(1)->Arg(3)->UseRealTime();

// The same round trip after the caller has been busy for ~50 us on its own,
// as in the stepper's serial window (merge, faults, e2e drain) between two
// cycles' dispatches. Helpers that parked during the gap pay a wake-up here,
// which back-to-back dispatches never show. Only the dispatch is timed.
void BM_PhaseDispatchAfterGap(benchmark::State& state) {
  using SteadyClock = std::chrono::steady_clock;  // rlftnoc-lint: allow(R2) benchmark timing is the product
  constexpr auto kGap = std::chrono::microseconds(50);
  const auto helpers = static_cast<unsigned>(state.range(0));
  PhasePool pool(helpers);
  for (auto _ : state) {
    const SteadyClock::time_point gap_end = SteadyClock::now() + kGap;  // rlftnoc-lint: allow(R2) benchmark timing
    while (SteadyClock::now() < gap_end) {  // rlftnoc-lint: allow(R2) benchmark timing
    }
    const SteadyClock::time_point t0 = SteadyClock::now();  // rlftnoc-lint: allow(R2) benchmark timing
    pool.run(helpers + 1, [](std::size_t i) { benchmark::DoNotOptimize(i); });
    state.SetIterationTime(
        std::chrono::duration<double>(SteadyClock::now() - t0).count());  // rlftnoc-lint: allow(R2) benchmark timing
  }
}
BENCHMARK(BM_PhaseDispatchAfterGap)->Arg(1)->Arg(3)->UseManualTime();

}  // namespace
}  // namespace rlftnoc

BENCHMARK_MAIN();
