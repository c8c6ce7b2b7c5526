#include "bench_common.h"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>

#include "common/rng.h"

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
      args.scale_pct = std::strtoull(a.c_str() + 8, nullptr, 10);
    } else if (a.rfind("--seed=", 0) == 0) {
      args.seed = std::strtoull(a.c_str() + 7, nullptr, 10);
    } else if (a.rfind("--jobs=", 0) == 0) {
      args.jobs = static_cast<unsigned>(std::strtoul(a.c_str() + 7, nullptr, 10));
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

}  // namespace rlftnoc::bench
