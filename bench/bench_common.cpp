#include "bench_common.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/rng.h"
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

namespace {

/// The value of `--flag=N` as an integer in [0, max]. Anything else (empty,
/// non-numeric, signed, trailing text, out of range) exits 2 naming the
/// flag and its value.
std::uint64_t parse_number(
    const std::string& arg, std::size_t flag_len,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* first = arg.c_str() + flag_len;
  const char* last = arg.c_str() + arg.size();
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(first, last, v);
  if (first == last || ec != std::errc() || end != last || v > max) {
    std::fprintf(stderr,
                 "invalid value '%s' for %.*s (expected an integer from 0 to "
                 "%llu)\n",
                 first, static_cast<int>(flag_len - 1), arg.c_str(),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return v;
}

}  // namespace

BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--fresh") {
      args.fresh = true;
    } else if (a == "--full") {
      args.full = true;
      args.scale_pct = 100;
    } else if (a.rfind("--scale=", 0) == 0) {
      args.scale_pct = parse_number(a, 8);
    } else if (a.rfind("--seed=", 0) == 0) {
      args.seed = parse_number(a, 7);
    } else if (a.rfind("--jobs=", 0) == 0) {
      args.jobs = static_cast<unsigned>(
          parse_number(a, 7, std::numeric_limits<unsigned>::max()));
    } else if (a.rfind("--cache=", 0) == 0) {
      args.cache = a.substr(8);
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s' (supported: --fresh --full --scale=N "
                   "--seed=N --jobs=N --cache=PATH)\n",
                   a.c_str());
      std::exit(2);
    }
  }
  return args;
}

const std::vector<PolicyKind>& paper_policies() {
  static const std::vector<PolicyKind> kPolicies = {
      PolicyKind::kStaticCrc, PolicyKind::kStaticArqEcc,
      PolicyKind::kDecisionTree, PolicyKind::kRl};
  return kPolicies;
}

std::vector<std::string> paper_benchmarks() {
  std::vector<std::string> out;
  for (const ParsecProfile& p : parsec_suite()) out.push_back(p.name);
  return out;
}

std::uint64_t campaign_options_hash(const BenchArgs& args) {
  std::ostringstream os;
  os << "seed=" << args.seed << ";scale=" << args.scale_pct
     << ";full=" << (args.full ? 1 : 0) << ";benchmarks=";
  for (const std::string& b : paper_benchmarks()) os << b << ',';
  os << ";policies=";
  for (const PolicyKind p : paper_policies()) os << policy_name(p) << ',';
  return fnv1a64(os.str());
}

namespace {

std::string hash_comment(std::uint64_t hash) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "# campaign-options-hash %016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

/// The cache is reusable only if its recorded options hash matches.
bool cache_hash_matches(const std::string& path, std::uint64_t expected) {
  std::ifstream in(path);
  std::string first;
  if (!in || !std::getline(in, first)) return false;
  return first == hash_comment(expected);
}

}  // namespace

CampaignResults load_or_run_campaign(const BenchArgs& args) {
  const std::uint64_t hash = campaign_options_hash(args);
  if (!args.fresh && cache_hash_matches(args.cache, hash)) {
    try {
      CampaignResults cached = read_results_file(args.cache);
      std::fprintf(stderr, "[bench] reusing cached campaign '%s'\n",
                   args.cache.c_str());
      return cached;
    } catch (const std::exception&) {
      // Unreadable body; fall through to a fresh run.
    }
  }
  SimOptions base;
  base.seed = args.seed;
  base.jobs = args.jobs;
  if (args.full) base.use_paper_scale();
  std::fprintf(stderr,
               "[bench] running campaign: 8 benchmarks x %zu policies, "
               "budget %llu%%, jobs=%u (this is the slow part; later runs "
               "reuse '%s')\n",
               paper_policies().size(),
               static_cast<unsigned long long>(args.scale_pct), args.jobs,
               args.cache.c_str());
  CampaignResults res = run_campaign(base, paper_benchmarks(), paper_policies(),
                                     args.scale_pct);
  std::ofstream out(args.cache);
  if (out) {
    out << hash_comment(hash) << '\n';
    write_results(out, res);
  }
  return res;
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
