// A1 (ablation) — EDCA QoS differentiation, on the in-tree perf harness.
//
// A VoIP flow (50 pps × 160 B, AC_VO) shares a BSS with k saturating bulk
// uploaders (AC_BK). Sweep k with QoS off (plain DCF, everyone equal) and
// on (802.11e EDCA). Expected shape: under DCF the voice delay explodes
// with k (the voice station waits behind every bulk frame + collision);
// under EDCA the voice delay stays in the low milliseconds across the
// sweep while bulk throughput drops only by the (tiny) airtime the voice
// flow actually uses.
//
// The harness times each whole-simulation point (items = voice packets
// delivered); the figure table is printed from the scenario results.

#include <cmath>
#include <cstdint>
#include <string>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

const size_t kBulkCounts[] = {1, 3, 6, 10};
// Voice packets the CBR source offers in the scenario's default 6 s, one
// per 20 ms from 1 s to 7 s inclusive: the delivered count is this times
// one minus the loss rate.
constexpr double kVoicePacketsSent = 301.0;

int Run(int argc, char** argv) {
  PerfArgs args = ParsePerfArgs(argc, argv, "bench_a1_edca", /*default_reps=*/1);
  if (!args.ok) {
    return 1;
  }
  args.warmup = false;  // one rep of a deterministic simulation needs no cache warming

  PerfHarness harness("A1: EDCA ablation harness (items = voice packets delivered)", args);
  Table table({"qos", "bulk_stations", "voice_delay_ms", "voice_p99_ms(jitter_ms)",
               "voice_loss_%", "bulk_mbps"});
  for (const bool qos : {false, true}) {
    for (const size_t k : kBulkCounts) {
      const std::string name = std::string(qos ? "edca" : "dcf") + "/k=" + std::to_string(k);
      if (!args.filter.empty() && name.find(args.filter) == std::string::npos) {
        continue;  // keep the figure table aligned with the benches that ran
      }
      ReplicationResult o;
      harness.Bench(name, [qos, k, &o] {
        o = RunScenarioOnce(
            "edca", {{"qos", qos ? "true" : "false"}, {"bulk_stations", std::to_string(k)}},
            500 + k);
        return static_cast<uint64_t>(
            std::llround(kVoicePacketsSent * (1.0 - o.metrics.at("voice_loss_rate"))));
      });
      table.AddRow({qos ? "edca" : "dcf", std::to_string(k),
                    Table::Num(o.metrics.at("voice_delay_ms"), 2),
                    Table::Num(o.metrics.at("voice_jitter_ms"), 2),
                    Table::Num(100 * o.metrics.at("voice_loss_rate"), 1),
                    Table::Num(o.metrics.at("bulk_mbps"), 2)});
    }
  }
  const int rc = harness.Finish();
  std::printf("=== A1: EDCA voice protection vs bulk contention (802.11b) ===\n%s\n",
              table.ToString().c_str());
  return rc;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
