// F1 — Rate-vs-distance staircase, as a thin client of the sweep engine.
//
// The survey states every 802.11 PHY "automatically backs down from the peak
// rate when the radio signal is weak". For each standard this harness runs
// two sweep campaigns over the `rate_vs_distance` scenario:
//   (a) distance × rate_index at fixed rates — the oracle envelope is the
//       best fixed rate per distance, read off the long-format aggregates;
//   (b) distance under ARF — what the driver algorithm actually achieves.
// Expected shape: a monotone staircase down through the standard's rate set,
// with 802.11b usable farther out than 802.11a. The same grids regenerate
// from the CLI alone, e.g.:
//   wlansim_run --scenario=rate_vs_distance --param standard=11b \
//       --sweep distance=10,30,60,90,120,160,200,250 --sweep rate_index=0:3:1

#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

const char* kDistances = "distance=10,30,60,90,120,160,200,250";

SweepOptions FigureSweep(const SweepBenchArgs& args, const std::string& standard,
                         bool fixed_rates) {
  SweepOptions options;
  options.scenario = "rate_vs_distance";
  options.base_params.Set("standard", standard);
  options.base_seed = args.seed;
  options.replications = args.reps;
  options.jobs = args.jobs;
  options.grid.AddAxis(ParseSweepAxis(kDistances));
  if (fixed_rates) {
    const size_t n_modes = ModesFor(standard == "11a" ? PhyStandard::k80211a
                                                      : PhyStandard::k80211b)
                               .size();
    options.grid.AddAxis(ParseSweepAxis("rate_index=0:" + std::to_string(n_modes - 1) + ":1"));
  } else {
    options.base_params.Set("controller", "arf");
  }
  return options;
}

int Run(int argc, char** argv) {
  const SweepBenchArgs args = ParseSweepBenchArgs(argc, argv, "bench_f1_rate_vs_distance");
  if (!args.ok) {
    return 1;
  }

  Table table({"standard", "distance_m", "best_fixed", "best_fixed_mbps", "arf_mbps"});
  for (const std::string standard : {"11b", "11a"}) {
    AggregateCollector fixed;
    AggregateCollector arf;
    if (!RunBenchSweep(FigureSweep(args, standard, /*fixed_rates=*/true), args,
                       "." + standard + ".fixed.csv", &fixed) ||
        !RunBenchSweep(FigureSweep(args, standard, /*fixed_rates=*/false), args,
                       "." + standard + ".arf.csv", &arf)) {
      return 1;
    }

    // Oracle envelope: per distance, the fixed rate with the best mean goodput.
    const auto modes = ModesFor(standard == "11a" ? PhyStandard::k80211a : PhyStandard::k80211b);
    std::map<std::string, std::pair<double, std::string>> best;  // distance -> (mbps, mode)
    for (const AggregateCollector::Point& point : fixed.points()) {
      const double mbps = MetricMean(point, "goodput_mbps");
      const size_t rate_index = std::stoul(PointValue(point, "rate_index"));
      auto& slot = best[PointValue(point, "distance")];
      if (slot.second.empty() || mbps > slot.first) {
        slot = {mbps, mbps > 0 ? modes[rate_index].name : "none"};
      }
    }
    for (const AggregateCollector::Point& point : arf.points()) {
      const std::string distance = PointValue(point, "distance");
      table.AddRow({standard, distance, best[distance].second,
                    Table::Num(best[distance].first, 2),
                    Table::Num(MetricMean(point, "goodput_mbps"), 2)});
    }
  }
  std::printf("=== F1: rate-vs-distance staircase (log-distance n=3, 1200 B saturated, "
              "%llu rep(s)/point) ===\n",
              static_cast<unsigned long long>(args.reps));
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
