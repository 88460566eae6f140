// F2 — DCF saturation throughput vs number of stations (Bianchi's figure),
// on the in-tree perf harness.
//
// n backlogged stations, basic access vs RTS/CTS, for 802.11b @ 11 Mb/s and
// 802.11a @ 54 Mb/s, each simulated point set beside the analytic Bianchi
// prediction for the same configuration. Expected shape: aggregate
// throughput decays slowly as n grows (collision cost); RTS/CTS is flatter
// in n and overtakes basic access once collisions are expensive (large
// payloads, many stations).
//
// The harness times each whole-simulation point (items = MPDUs delivered,
// so items/s gauges simulator speed); the figure table itself is printed
// from the scenario results afterwards.

#include <cstdint>
#include <string>

#include "bench/bench_util.h"
#include "mac/frames.h"
#include "stats/bianchi.h"

namespace wlansim {
namespace {

// Analytic Bianchi prediction for the same configuration.
double AnalyticMbps(PhyStandard standard, uint32_t n, size_t payload, bool rtscts) {
  const PhyTiming t = TimingFor(standard);
  const WifiMode& data_mode = ModesFor(standard).back();
  const WifiMode& ctl_mode = ControlResponseMode(data_mode);
  BianchiParams p;
  p.n_stations = n;
  p.cw_min = t.cw_min;
  p.max_backoff_stages = 5;
  p.slot = t.slot;
  p.sifs = t.sifs;
  p.difs = t.Difs();
  p.data_duration = FrameDuration(data_mode, payload + kDataHeaderSize + kFcsSize);
  p.ack_duration = AckDuration(ctl_mode);
  p.rts_duration = RtsDuration(ctl_mode);
  p.cts_duration = CtsDuration(ctl_mode);
  p.payload_bits = 8.0 * static_cast<double>(payload);
  const BianchiResult r = SolveBianchi(p);
  return (rtscts ? r.throughput_bps_rtscts : r.throughput_bps_basic) / 1e6;
}

const size_t kStaCounts[] = {1, 2, 5, 10, 20, 35};
constexpr size_t kPayload = 1500;

int Run(int argc, char** argv) {
  PerfArgs args = ParsePerfArgs(argc, argv, "bench_f2_saturation", /*default_reps=*/1);
  if (!args.ok) {
    return 1;
  }
  args.warmup = false;  // one rep of a deterministic simulation needs no cache warming

  PerfHarness harness("F2: DCF saturation harness (items = delivered MPDUs)", args);
  Table table({"standard", "n_stas", "access", "agg_goodput_mbps", "bianchi_mbps",
               "retry_rate_%", "mean_delay_ms"});
  for (const PhyStandard standard : {PhyStandard::k80211b, PhyStandard::k80211a}) {
    for (const bool rtscts : {false, true}) {
      for (const size_t n : kStaCounts) {
        const std::string name = std::string(ToString(standard)) +
                                 (rtscts ? "/rtscts/n=" : "/basic/n=") + std::to_string(n);
        if (!args.filter.empty() && name.find(args.filter) == std::string::npos) {
          continue;  // keep the figure table aligned with the benches that ran
        }
        ReplicationResult r;
        harness.Bench(name, [standard, rtscts, n, &r] {
          r = RunScenarioOnce("saturation",
                              {{"standard", ToString(standard)},
                               {"n_stas", std::to_string(n)},
                               {"payload", std::to_string(kPayload)},
                               {"distance", "10"},
                               {"rts_threshold", rtscts ? "400" : "65535"},
                               {"sim_time_s", "5"}},
                              100 + n);
          return static_cast<uint64_t>(r.metrics.at("rx_ok"));
        });
        const double attempts = r.metrics.at("tx_attempts");
        const double retry_rate = attempts ? 100.0 * r.metrics.at("retries") / attempts : 0.0;
        table.AddRow(
            {ToString(standard), std::to_string(n), rtscts ? "rts/cts" : "basic",
             Table::Num(r.metrics.at("goodput_mbps"), 2),
             Table::Num(AnalyticMbps(standard, static_cast<uint32_t>(n), kPayload, rtscts), 2),
             Table::Num(retry_rate, 1), Table::Num(r.metrics.at("mean_delay_ms"), 1)});
      }
    }
  }
  const int rc = harness.Finish();
  std::printf("=== F2: DCF saturation throughput vs station count (1500 B) ===\n%s\n",
              table.ToString().c_str());
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
