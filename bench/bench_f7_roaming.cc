// F7 — ESS roaming handoff, on the in-tree perf harness.
//
// The survey's ESS mobility story: "as a mobile device moves out of the
// range of one access point, it moves into the range of another … and still
// maintains seamless network connection." Two APs on different channels, a
// station walking between them with a CBR uplink. Expected shape: throughput
// holds near the offered rate under each AP, dips to zero during the
// scan + auth + associate gap, then recovers; exactly one handoff occurs.
//
// The harness times the whole walk (items = delivered payload bytes); the
// time series and the handoff summary are printed afterwards.

#include <cstdint>
#include <string>

#include "bench/bench_util.h"
#include "runner/builders.h"

namespace wlansim {
namespace {

int Run(int argc, char** argv) {
  PerfArgs args = ParsePerfArgs(argc, argv, "bench_f7_roaming", /*default_reps=*/1);
  if (!args.ok) {
    return 1;
  }
  args.warmup = false;  // one rep of a deterministic simulation needs no cache warming

  PerfHarness harness("F7: ESS roaming harness (items = delivered bytes)", args);
  Table series({"time_s", "delivered_kbps"});
  Table summary({"metric", "value"});
  RoamingResult r{};
  harness.Bench("roam/aps=2", [&r] {
    RoamingParams p;
    p.n_aps = 2;
    p.spacing = 160.0;
    p.speed = 10.0;
    p.start_x = 10.0;
    p.payload = 500;
    p.sim_time = Time::Seconds(20);
    p.seed = 77;
    r = RunRoamingScenario(p);
    double delivered_bytes = 0.0;
    for (const auto& [start_s, bytes] : r.delivered_buckets) {
      delivered_bytes += bytes;
    }
    return static_cast<uint64_t>(delivered_bytes);
  });
  for (const auto& [start_s, bytes] : r.delivered_buckets) {
    series.AddRow(
        {Table::Num(start_s, 1), Table::Num(bytes * 8.0 / r.bucket_seconds / 1000.0, 0)});
  }
  summary.AddRow({"handoffs", std::to_string(r.handoffs)});
  summary.AddRow({"packet_loss_%", Table::Num(100.0 * r.loss_rate, 2)});

  const int rc = harness.Finish();
  std::printf("=== F7: ESS roaming — delivered uplink rate over time (STA walks AP1→AP2) ===\n%s\n",
              series.ToString().c_str());
  std::printf("=== F7: summary ===\n%s\n", summary.ToString().c_str());
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
