#include "bench_common.h"

#include <chrono>
#include <cstdlib>

#include "noc/ni.h"

namespace rlftnoc::bench {

double time_seconds(const std::function<void()>& fn) {
  using Clock = std::chrono::steady_clock;  // rlftnoc-lint: allow(R2) wall-clock is the bench metric, never a sim input
  const Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string out_path_arg(int argc, char** argv, const std::string& def) {
  std::string out = def;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--out=", 0) != 0) {
      std::fprintf(stderr, "unknown flag '%s' (supported: --out=PATH)\n",
                   a.c_str());
      std::exit(2);
    }
    out = a.substr(6);
  }
  return out;
}

ForcedModeResult run_forced_mode(const ForcedModeRun& run) {
  Network net(run.noc, 1);
  for (NodeId r = 0; r < run.noc.num_nodes(); ++r) {
    net.router(r).set_mode(run.mode);
    for (const Port pt : kAllPorts) {
      if (pt != Port::kLocal && net.out_channel(r, pt) != nullptr)
        net.set_link_error_prob(r, pt, LinkErrorProb{run.p_error, 1e-12});
    }
  }
  SyntheticTraffic gen(MeshTopology(run.noc), run.traffic, run.traffic_seed);
  ForcedModeResult out;
  std::vector<Packet> batch;
  while ((!gen.exhausted() || !net.drained()) && net.now() < run.max_cycles) {
    if (net.now() == run.warmup) net.metrics().reset();
    batch.clear();
    gen.tick(net.now(), batch);
    out.offered += batch.size();
    for (auto& pk : batch) {
      if (!net.ni(pk.src).enqueue_packet(std::move(pk))) ++out.rejected;
    }
    net.step();
  }
  out.metrics = net.metrics();
  out.dynamic_energy_pj = net.power().total_dynamic_energy_pj();
  return out;
}

}  // namespace rlftnoc::bench
