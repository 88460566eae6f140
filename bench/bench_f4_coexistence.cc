// F4 — 802.11b/g coexistence penalty, as a thin client of the sweep engine.
//
// The survey notes an 802.11g AP "will support 802.11b and 802.11g clients"
// because both share 2.4 GHz. The cost: a pure-g BSS runs with short slots
// and no protection; admitting one b station forces long slots and (when
// enabled) CTS-to-self protection before every OFDM frame. One sweep over
// the `coexistence` scenario's {with_b_sta} × {protection} grid reproduces
// the figure; the same grid regenerates from the CLI alone:
//   wlansim_run --scenario=coexistence --sweep with_b_sta=false,true \
//       --sweep protection=false,true --reps=8 --csv=f4.csv

#include <string>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

int Run(int argc, char** argv) {
  const SweepBenchArgs args = ParseSweepBenchArgs(argc, argv, "bench_f4_coexistence");
  if (!args.ok) {
    return 1;
  }

  SweepOptions options;
  options.scenario = "coexistence";
  options.base_seed = args.seed;
  options.replications = args.reps;
  options.jobs = args.jobs;
  options.grid.AddAxis(ParseSweepAxis("with_b_sta=false,true"));
  options.grid.AddAxis(ParseSweepAxis("protection=false,true"));
  AggregateCollector result;
  if (!RunBenchSweep(options, args, "", &result)) {
    return 1;
  }

  Table table({"scenario", "g_sta_goodput_mbps", "b_sta_goodput_mbps", "agg_mbps"});
  for (const AggregateCollector::Point& point : result.points()) {
    const bool with_b = PointValue(point, "with_b_sta") == "true";
    const bool protection = PointValue(point, "protection") == "true";
    const std::string label = !with_b ? (protection ? "pure-g, cts-to-self" : "pure-g (short slot)")
                                      : (protection ? "g + b sta, cts-to-self"
                                                    : "g + b sta, no protection");
    table.AddRow({label, Table::Num(MetricMean(point, "g_sta_mbps"), 2),
                  Table::Num(MetricMean(point, "b_sta_mbps"), 2),
                  Table::Num(MetricMean(point, "agg_mbps"), 2)});
  }
  std::printf("=== F4: 802.11b/g coexistence (saturated uplinks, 1500 B, %llu rep(s)/point) ===\n",
              static_cast<unsigned long long>(args.reps));
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
