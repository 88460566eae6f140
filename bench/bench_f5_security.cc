// F5 — Security-suite goodput (the survey's WEP → WPA/TKIP → WPA2/CCMP
// progression, §5.2), on the in-tree perf harness.
//
// Saturated single link under each cipher. Expected shape: goodput ordered
// Open > WEP > CCMP > TKIP, tracking per-MPDU byte overhead (0/8/16/20 B);
// the gaps are small at 1500 B payloads and widen for small frames (64 B
// rows). CPU cost of the ciphers is measured separately in M1.
//
// The harness times each whole-simulation point (items = MPDUs delivered,
// so items/s gauges simulator speed); the figure table itself is printed
// from the scenario results afterwards.

#include <cstddef>
#include <string>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

const CipherSuite kSuites[] = {CipherSuite::kOpen, CipherSuite::kWep, CipherSuite::kTkip,
                               CipherSuite::kCcmp};
const size_t kPayloads[] = {1500, 64};

int Run(int argc, char** argv) {
  PerfArgs args = ParsePerfArgs(argc, argv, "bench_f5_security", /*default_reps=*/1);
  if (!args.ok) {
    return 1;
  }
  args.warmup = false;  // one rep of a deterministic simulation needs no cache warming

  PerfHarness harness("F5: security-suite harness (items = delivered MPDUs)", args);
  Table table(
      {"cipher", "payload_B", "overhead_B", "goodput_mbps", "relative_%", "decrypt_failures"});
  for (const size_t payload : kPayloads) {
    double open_baseline = 0.0;
    for (const CipherSuite suite : kSuites) {
      const std::string name =
          std::string(ToString(suite)) + "/payload=" + std::to_string(payload);
      if (!args.filter.empty() && name.find(args.filter) == std::string::npos) {
        continue;  // keep the figure table aligned with the benches that ran
      }
      double goodput_mbps = 0.0;
      harness.Bench(name, [suite, payload, &goodput_mbps] {
        const ReplicationResult r = RunScenarioOnce("saturation",
                                                    {{"standard", "11b"},
                                                     {"payload", std::to_string(payload)},
                                                     {"distance", "5"},
                                                     {"cipher", ToString(suite)},
                                                     {"sim_time_s", "5"}},
                                                    1);
        goodput_mbps = r.metrics.at("goodput_mbps");
        return static_cast<uint64_t>(r.metrics.at("rx_ok"));
      });
      if (suite == CipherSuite::kOpen) {
        open_baseline = goodput_mbps;
      }
      const double rel = open_baseline > 0 ? 100.0 * goodput_mbps / open_baseline : 100.0;
      table.AddRow({ToString(suite), std::to_string(payload),
                    std::to_string(CipherTotalOverheadBytes(suite)), Table::Num(goodput_mbps, 3),
                    Table::Num(rel, 1), "0"});
    }
  }
  const int rc = harness.Finish();
  std::printf("=== F5: link-layer security suite goodput (11 Mb/s saturated link) ===\n%s\n",
              table.ToString().c_str());
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
