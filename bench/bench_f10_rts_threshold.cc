// F10 — RTS/CTS threshold crossover, on the in-tree perf harness.
//
// Basic access wastes a whole data frame on every collision; RTS/CTS wastes
// only the short RTS but pays the handshake on every frame. The crossover
// therefore moves with payload size and contention level. Sweep payload ×
// station count with RTS always-on vs always-off. Expected shape: basic
// wins for small payloads / low contention; RTS/CTS wins for large payloads
// with many stations.
//
// The harness times each whole-simulation point (items = MPDUs delivered,
// so items/s gauges simulator speed); the figure table itself is printed
// from the scenario results afterwards.

#include <cstddef>
#include <string>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

const size_t kPayloads[] = {200, 1000, 2304};
const size_t kStas[] = {2, 15, 50};

int Run(int argc, char** argv) {
  PerfArgs args = ParsePerfArgs(argc, argv, "bench_f10_rts_threshold", /*default_reps=*/1);
  if (!args.ok) {
    return 1;
  }
  args.warmup = false;  // one rep of a deterministic simulation needs no cache warming

  PerfHarness harness("F10: RTS/CTS crossover harness (items = delivered MPDUs)", args);
  Table table({"payload_B", "n_stas", "basic_mbps", "rtscts_mbps", "winner"});
  for (const size_t payload : kPayloads) {
    for (const size_t n : kStas) {
      double goodput[2] = {0.0, 0.0};  // [0] = basic, [1] = rts/cts
      bool ran = false;
      for (const bool rtscts : {false, true}) {
        const std::string name = std::string(rtscts ? "rtscts" : "basic") +
                                 "/payload=" + std::to_string(payload) +
                                 "/n=" + std::to_string(n);
        if (!args.filter.empty() && name.find(args.filter) == std::string::npos) {
          continue;  // keep the figure table aligned with the benches that ran
        }
        ran = true;
        harness.Bench(name, [payload, n, rtscts, &goodput] {
          const ReplicationResult r =
              RunScenarioOnce("saturation",
                              {{"standard", "11b"},
                               {"n_stas", std::to_string(n)},
                               {"payload", std::to_string(payload)},
                               {"distance", "10"},
                               {"sim_time_s", "4"},
                               {"rts_threshold", rtscts ? "0" : "65535"}},  // 0 = RTS always
                              7000 + n * 10 + payload);
          goodput[rtscts ? 1 : 0] = r.metrics.at("goodput_mbps");
          return static_cast<uint64_t>(r.metrics.at("rx_ok"));
        });
      }
      if (ran) {
        table.AddRow({std::to_string(payload), std::to_string(n), Table::Num(goodput[0], 2),
                      Table::Num(goodput[1], 2), goodput[0] >= goodput[1] ? "basic" : "rts/cts"});
      }
    }
  }
  const int rc = harness.Finish();
  std::printf("=== F10: RTS/CTS threshold crossover (802.11b, saturated uplinks) ===\n%s\n",
              table.ToString().c_str());
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
