// F8 — Fragmentation threshold sweep under hidden burst interference, on
// the in-tree perf harness.
//
// On a clean, strong channel fragmentation only adds PLCP/ACK overhead, so
// goodput falls monotonically as the threshold shrinks. Under a *hidden*
// burst interferer (out of the sender's carrier-sense range, Poisson burst
// arrivals so retransmissions cannot phase-lock onto the burst pattern),
// long MPDUs almost always overlap a burst and die, while fragments confine
// the damage to the overlapped fragment. Expected shape: clean channel —
// "off" wins; jammed channel — an intermediate threshold beats both
// extremes (classic overhead-vs-vulnerability trade).
//
// The harness times each threshold point (all 3 seeds per batch; items =
// delivered payload bytes); the figure table is printed afterwards.

#include <cstdint>
#include <string>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

const uint32_t kThresholds[] = {256, 512, 1024, 2346};

int Run(int argc, char** argv) {
  PerfArgs args = ParsePerfArgs(argc, argv, "bench_f8_fragmentation", /*default_reps=*/1);
  if (!args.ok) {
    return 1;
  }
  args.warmup = false;  // one rep of a deterministic simulation needs no cache warming

  PerfHarness harness("F8: fragmentation harness (items = delivered bytes)", args);
  Table table({"channel", "frag_threshold_B", "goodput_mbps", "drop_rate_%", "retry_rate_%"});
  for (const bool jammed : {false, true}) {
    for (const uint32_t threshold : kThresholds) {
      const std::string name = std::string(jammed ? "jammed" : "clean") +
                               "/threshold=" + std::to_string(threshold);
      if (!args.filter.empty() && name.find(args.filter) == std::string::npos) {
        continue;  // keep the figure table aligned with the benches that ran
      }
      double goodput_mbps = 0.0;
      double retry_rate = 0.0;
      double drop_rate = 0.0;
      harness.Bench(name, [&, jammed, threshold] {
        // Average 3 seeds: the jammed scenario has high run-to-run variance.
        constexpr int kSeeds = 3;
        constexpr double kSimSeconds = 8.0;  // the scenario's default sim_time_s
        goodput_mbps = retry_rate = drop_rate = 0.0;
        for (int s_i = 0; s_i < kSeeds; ++s_i) {
          const ReplicationResult one = RunScenarioOnce(
              "fragmentation",
              {{"jammed", jammed ? "true" : "false"},
               {"frag_threshold", std::to_string(threshold)}},
              31 + 17 * static_cast<uint64_t>(s_i));
          goodput_mbps += one.metrics.at("goodput_mbps") / kSeeds;
          retry_rate += one.metrics.at("retry_rate") / kSeeds;
          drop_rate += one.metrics.at("drop_rate") / kSeeds;
        }
        return static_cast<uint64_t>(kSeeds * goodput_mbps * 1e6 / 8.0 * kSimSeconds);
      });
      table.AddRow({jammed ? "hidden-jammer" : "clean",
                    threshold >= 2346 ? "off" : std::to_string(threshold),
                    Table::Num(goodput_mbps, 3), Table::Num(100.0 * drop_rate, 2),
                    Table::Num(100.0 * retry_rate, 1)});
    }
  }
  const int rc = harness.Finish();
  std::printf("=== F8: fragmentation threshold sweep (2000 B MSDUs, 11 Mb/s) ===\n%s\n",
              table.ToString().c_str());
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
