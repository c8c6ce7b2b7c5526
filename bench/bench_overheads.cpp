// E7 / Section VI-B — overhead analysis.
//
// Reproduces the three overhead claims with this build's actual data:
//  * computation: wall-clock of one RL control step (Q lookup + TD update),
//    converted to ns; the paper reports 150 ns worst-case, hidden by the
//    1K-cycle step.
//  * area: an analytic 32 nm gate/SRAM model of the additions (output flit
//    buffers, ALU, Q-table SRAM) against the paper's 2360 um^2 = 5.5% /
//    4.8% / 4.5% vs CRC / ARQ+ECC / DT routers.
//  * energy: the RL control energy amortized per transmitted flit against
//    the paper's 0.16 pJ = 1.2% of a 13.3 pJ baseline flit.
#include <cstdio>

#include "bench_common.h"
#include "ftnoc/rl_policy.h"
#include "power/orion_lite.h"
#include "sim/simulator.h"
#include "traffic/traffic.h"

using namespace rlftnoc;

namespace {

/// 32 nm analytic area model. Numbers are standard-cell estimates:
/// a NAND2-equivalent gate ~0.60 um^2, an SRAM bit ~0.17 um^2 at 32 nm.
struct AreaModel {
  double gate_um2 = 0.60;
  double sram_bit_um2 = 0.17;

  double buffer_area(int entries, int bits_per_entry) const {
    return entries * bits_per_entry * sram_bit_um2;
  }
  double gates(int n) const { return n * gate_um2; }
};

}  // namespace

int main() {
  std::printf("== Section VI-B: overhead analysis ==\n\n");

  // ---- computation overhead -------------------------------------------
  {
    QLearningParams params;
    RlPolicy rl(64, params, 1);
    FeatureSnapshot snap;
    snap.temperature_c = 85.0;
    snap.in_link_util = {0.1, 0.1, 0.05, 0.2, 0.02};
    snap.out_link_util = {0.1, 0.1, 0.05, 0.2, 0.02};
    // Warm the table, then time steady-state decide() calls.
    for (int i = 0; i < 1000; ++i) rl.decide(i % 64, snap, 0.5);
    constexpr int kIters = 200000;
    const double seconds = bench::time_seconds([&] {
      for (int i = 0; i < kIters; ++i) {
        snap.temperature_c = 60.0 + (i % 40);
        rl.decide(i % 64, snap, 0.5);
      }
    });
    const double ns = seconds * 1e9 / kIters;
    std::printf("computation: one RL control step (lookup+update+select)\n");
    std::printf("  paper: 150 ns worst-case, hidden by the 1000-cycle step\n");
    std::printf("  here : %.0f ns on this host (step budget at 2 GHz = 500 ns)\n",
                ns);
    std::printf("  hidden by time-step: %s\n\n", ns < 500.0 ? "yes" : "NO");
  }

  // ---- area overhead ----------------------------------------------------
  {
    const AreaModel area;
    const NocConfig noc;
    // Baseline CRC router: input VC buffers + crossbar + allocators + CRC,
    // times a 2.2x placed-and-routed factor (clock tree, control, wiring)
    // that raw gate counts omit; this lands at the ~0.04 mm^2 published
    // for 32 nm 5-port 128-bit routers.
    constexpr double kLayoutFactor = 2.2;
    const double input_buffers =
        area.buffer_area(5 * noc.vcs_per_port * noc.vc_depth, 128);
    const double crossbar_alloc = area.gates(28000);
    const double crc_logic = area.gates(800);
    const double crc_router =
        kLayoutFactor * (input_buffers + crossbar_alloc + crc_logic);

    // ARQ+ECC adds SECDED codecs per port + retention in VCs (reuse).
    const double ecc_codecs = kLayoutFactor * area.gates(4 * 2 * 450);
    const double arq_router = crc_router + ecc_codecs;

    // Proposed additions: per-port output flit buffers, Q-value ALU, and
    // Q-table SRAM (visited-rows working set, 4 x 32-bit Q + visit counts
    // per row). SRAM macros are dense, so no layout factor.
    const double output_buffers =
        area.buffer_area(4 * noc.retention_depth, 128 + 16);
    const double alu = area.gates(900);
    const double qtable_rows = 64.0;  // typical visited-state working set
    const double qtable_sram = area.buffer_area(static_cast<int>(qtable_rows),
                                                4 * 32 + 3 * 8);
    const double additions = output_buffers + alu + qtable_sram;

    std::printf("area: additions of the proposed router (32 nm analytic)\n");
    std::printf("  output flit buffers: %7.0f um^2\n", output_buffers);
    std::printf("  Q-value ALU:         %7.0f um^2\n", alu);
    std::printf("  Q-table SRAM:        %7.0f um^2\n", qtable_sram);
    std::printf("  total additions:     %7.0f um^2 (paper: 2360 um^2)\n",
                additions);
    std::printf("  vs CRC router:     %5.1f%% (paper: 5.5%%)\n",
                100.0 * additions / (crc_router + additions));
    std::printf("  vs ARQ+ECC router: %5.1f%% (paper: 4.8%%)\n",
                100.0 * additions / (arq_router + additions));
    std::printf("  vs DT router:      %5.1f%% (paper: 4.5%%)\n\n",
                100.0 * additions / (arq_router + kLayoutFactor * area.gates(2500) + additions));
  }

  // ---- energy overhead ----------------------------------------------------
  {
    const PowerParams power;
    // RL control energy per step, amortized over the flits a router moves
    // per step at the campaign's average utilization (~0.06 flits/cyc/port
    // x 4 ports x 1000 cycles).
    const double rl_step_pj =
        power.energy_pj[static_cast<std::size_t>(PowerEvent::kRlStep)];
    const double flits_per_step = 0.06 * 4 * 1000;
    const double per_flit_overhead = rl_step_pj / flits_per_step;
    // Baseline per-flit router energy: Section VI-B implies 13.3 pJ
    // (0.16 pJ = 1.2%). Our per-hop cost times the ~2.1 average router
    // visits per flit in the campaign.
    const double hop_pj =
        power.energy_pj[static_cast<std::size_t>(PowerEvent::kBufferWrite)] +
        power.energy_pj[static_cast<std::size_t>(PowerEvent::kBufferRead)] +
        power.energy_pj[static_cast<std::size_t>(PowerEvent::kArbitration)] +
        power.energy_pj[static_cast<std::size_t>(PowerEvent::kCrossbar)] +
        power.energy_pj[static_cast<std::size_t>(PowerEvent::kLinkTraversal)];
    const double baseline_flit_pj = hop_pj * 2.1;
    std::printf("energy: RL control logic per transmitted flit\n");
    std::printf("  paper: 0.16 pJ on a 13.3 pJ baseline flit = 1.2%%\n");
    std::printf("  here : %.2f pJ on a %.1f pJ baseline flit = %.1f%%\n",
                per_flit_overhead, baseline_flit_pj,
                100.0 * per_flit_overhead / baseline_flit_pj);
  }
  return 0;
}
