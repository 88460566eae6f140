// T1 — Standards comparison table, on the in-tree perf harness.
//
// Reproduces the survey's "comparison of wireless network types" row set for
// the WLAN family: for each PHY standard, the nominal (PHY) maximum bit rate
// versus the MAC-layer goodput a saturated single link actually achieves.
// Expected shape: goodput ordering 802.11 < 802.11b < 802.11g ≈ 802.11a, with
// MAC efficiency falling as the PHY rate grows (fixed-overhead dominance).
//
// The harness times each whole-simulation run (items = MPDUs delivered, so
// items/s gauges simulator speed); the standards table itself is printed
// from the scenario results afterwards.

#include <cstdint>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

int Run(int argc, char** argv) {
  PerfArgs args = ParsePerfArgs(argc, argv, "wlansim_bench_t1", /*default_reps=*/1);
  if (!args.ok) {
    return 1;
  }
  args.warmup = false;  // one rep of a deterministic simulation needs no cache warming

  PerfHarness harness("T1: standards comparison harness (items = delivered MPDUs)", args);
  Table table({"standard", "phy_rate_mbps", "mac_goodput_mbps", "mac_efficiency_%",
               "mean_delay_ms"});
  for (const PhyStandard standard :
       {PhyStandard::k80211, PhyStandard::k80211b, PhyStandard::k80211a, PhyStandard::k80211g}) {
    const std::string name = ToString(standard);
    if (!args.filter.empty() && name.find(args.filter) == std::string::npos) {
      continue;  // keep the comparison table aligned with the benches that ran
    }
    ReplicationResult r;
    harness.Bench(name, [standard, &r] {
      r = RunScenarioOnce("saturation",
                          {{"standard", ToString(standard)},
                           {"payload", "1500"},
                           {"distance", "5"},
                           {"sim_time_s", "6"}},
                          1);
      return static_cast<uint64_t>(r.metrics.at("rx_ok"));
    });
    const double phy_mbps = static_cast<double>(ModesFor(standard).back().bit_rate_bps) / 1e6;
    const double goodput_mbps = r.metrics.at("goodput_mbps");
    table.AddRow({ToString(standard), Table::Num(phy_mbps, 0), Table::Num(goodput_mbps, 2),
                  Table::Num(100.0 * goodput_mbps / phy_mbps, 1),
                  Table::Num(r.metrics.at("mean_delay_ms"), 2)});
  }
  const int rc = harness.Finish();
  std::printf("=== T1: standards comparison (saturated 1500 B UDP, 5 m link) ===\n%s\n",
              table.ToString().c_str());
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
