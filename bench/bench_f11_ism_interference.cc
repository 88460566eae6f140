// F11 — ISM-band interference ("you may suffer interference if others in the
// same building also use wireless technology", §6), as a thin client of the
// sweep engine.
//
// A single link shares the kitchen with a microwave oven at varying distance
// from the receiver; the oven blasts undecodable energy at ~40 % duty
// (8 ms on / 12 ms off, mains-locked). One sweep over the `ism_interference`
// scenario's {standard} × {oven_distance} grid reproduces the figure
// (oven_distance=0 is the clean baseline). Expected shape: with the oven
// close, 802.11b goodput collapses toward the oven's off-fraction; as the
// oven moves away goodput recovers, while 802.11a (5 GHz) is immune by
// construction. The same grid regenerates from the CLI alone:
//   wlansim_run --scenario=ism_interference --sweep standard=11b,11a \
//       --sweep oven_distance=0,3,10,30,100 --reps=8 --csv=f11.csv

#include <map>
#include <string>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

int Run(int argc, char** argv) {
  const SweepBenchArgs args = ParseSweepBenchArgs(argc, argv, "bench_f11_ism_interference");
  if (!args.ok) {
    return 1;
  }

  SweepOptions options;
  options.scenario = "ism_interference";
  options.base_seed = args.seed;
  options.replications = args.reps;
  options.jobs = args.jobs;
  options.grid.AddAxis(ParseSweepAxis("standard=11b,11a"));
  options.grid.AddAxis(ParseSweepAxis("oven_distance=0,3,10,30,100"));
  AggregateCollector result;
  if (!RunBenchSweep(options, args, "", &result)) {
    return 1;
  }

  // Clean baseline per standard: the oven_distance=0 grid point.
  std::map<std::string, double> clean;
  for (const AggregateCollector::Point& point : result.points()) {
    if (PointValue(point, "oven_distance") == "0") {
      clean[PointValue(point, "standard")] = MetricMean(point, "goodput_mbps");
    }
  }

  Table table({"standard", "oven_distance_m", "goodput_mbps", "retry_rate_%", "vs_clean_%"});
  for (const AggregateCollector::Point& point : result.points()) {
    const std::string standard = PointValue(point, "standard");
    const std::string distance = PointValue(point, "oven_distance");
    const double goodput = MetricMean(point, "goodput_mbps");
    const double attempts = MetricMean(point, "tx_attempts");
    const double retry_rate =
        attempts > 0 ? 100.0 * MetricMean(point, "retries") / attempts : 0.0;
    table.AddRow({standard == "11b" ? "802.11b" : "802.11a",
                  distance == "0" ? "no oven" : distance, Table::Num(goodput, 2),
                  Table::Num(retry_rate, 1),
                  Table::Num(clean[standard] > 0 ? 100.0 * goodput / clean[standard] : 100.0, 1)});
  }
  std::printf("=== F11: microwave-oven interference vs distance (saturated 12 m link, "
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
