// F6 — Ad-hoc vs infrastructure scaling, on the in-tree perf harness.
//
// The survey claims ad-hoc "performance suffers while the number of devices
// grows" whereas infrastructure provides "much more scalability and
// stability". We pair up n nodes exchanging CBR flows either peer-to-peer
// (IBSS) or relayed through an AP. Expected shape: ad-hoc wins at small n
// (no relay double-hop), but its per-flow delivery degrades faster with n;
// the AP serializes traffic at the cost of relaying every frame twice.
//
// The harness times each whole-simulation point (items = delivered payload
// bytes, so items/s gauges simulator speed); the figure table itself is
// printed from the scenario results afterwards.

#include <cstddef>
#include <string>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

const size_t kPairCounts[] = {1, 2, 4, 8};

int Run(int argc, char** argv) {
  PerfArgs args = ParsePerfArgs(argc, argv, "bench_f6_adhoc_vs_infra", /*default_reps=*/1);
  if (!args.ok) {
    return 1;
  }
  args.warmup = false;  // one rep of a deterministic simulation needs no cache warming

  PerfHarness harness("F6: ad-hoc vs infrastructure harness (items = delivered bytes)", args);
  Table table({"mode", "n_nodes", "offered_mbps", "delivered_mbps", "delivery_%",
               "mean_delay_ms"});
  for (const bool adhoc : {true, false}) {
    for (const size_t pairs : kPairCounts) {
      const std::string name =
          std::string(adhoc ? "adhoc" : "infra") + "/pairs=" + std::to_string(pairs);
      if (!args.filter.empty() && name.find(args.filter) == std::string::npos) {
        continue;  // keep the figure table aligned with the benches that ran
      }
      constexpr double kSimSeconds = 8.0;  // the scenario's default sim_time_s
      ReplicationResult r;
      harness.Bench(name, [adhoc, pairs, &r] {
        r = RunScenarioOnce("adhoc_vs_infra",
                            {{"adhoc", adhoc ? "true" : "false"},
                             {"n_pairs", std::to_string(pairs)}},
                            55 + pairs);
        return static_cast<uint64_t>(r.metrics.at("delivered_mbps") * 1e6 / 8.0 * kSimSeconds);
      });
      const double offered = r.metrics.at("offered_mbps");
      const double delivered = r.metrics.at("delivered_mbps");
      table.AddRow({adhoc ? "adhoc" : "infrastructure", std::to_string(2 * pairs),
                    Table::Num(offered, 2), Table::Num(delivered, 2),
                    Table::Num(100.0 * delivered / offered, 1),
                    Table::Num(r.metrics.at("mean_delay_ms"), 1)});
    }
  }
  const int rc = harness.Finish();
  std::printf("=== F6: ad-hoc vs infrastructure scaling (2 Mb/s CBR per pair, 11 Mb/s PHY) ===\n%s\n",
              table.ToString().c_str());
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
