// F9 — Rate-adaptation shoot-out (the headline driver-level mechanism), as a
// thin client of the sweep engine (no google-benchmark).
//
// Single 802.11a link under Rayleigh block fading, distance sweep, saturated
// traffic. Two campaigns over the `rate_vs_distance` scenario:
//   (a) distance × rate_index at fixed rates — the oracle envelope is the
//       best fixed rate per distance, read off the long-format aggregates;
//   (b) distance × controller for ARF, AARF, ONOE, SampleRate and Minstrel.
// Expected shape: statistics-based controllers (Minstrel, SampleRate) ≥
// AARF ≥ ARF ≥ ONOE at mid range; nothing beats the oracle; ARF oscillates
// under fading because any 2-failure run knocks it down and 10 successes
// send it probing. The same grids regenerate from the CLI alone, e.g.:
//   wlansim_run --scenario=rate_vs_distance --param standard=11a \
//       --param fading=true --param sim_time_s=8 \
//       --sweep distance=15,40,70,100 --sweep controller=arf,minstrel

#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

const char* kDistances = "distance=15,40,70,100";

SweepOptions BaseOptions(const SweepBenchArgs& args) {
  SweepOptions options;
  options.scenario = "rate_vs_distance";
  options.base_params.Set("standard", "11a");
  options.base_params.Set("fading", "true");
  options.base_params.Set("sim_time_s", "8");
  options.base_seed = args.seed;
  options.replications = args.reps;
  options.jobs = args.jobs;
  options.grid.AddAxis(ParseSweepAxis(kDistances));
  return options;
}

int Run(int argc, char** argv) {
  const SweepBenchArgs args = ParseSweepBenchArgs(argc, argv, "bench_f9_rate_adaptation");
  if (!args.ok) {
    return 1;
  }

  SweepOptions fixed_options = BaseOptions(args);
  const size_t n_modes = ModesFor(PhyStandard::k80211a).size();
  fixed_options.grid.AddAxis(
      ParseSweepAxis("rate_index=0:" + std::to_string(n_modes - 1) + ":1"));
  AggregateCollector fixed;
  if (!RunBenchSweep(fixed_options, args, ".fixed.csv", &fixed)) {
    return 1;
  }

  SweepOptions adaptive_options = BaseOptions(args);
  adaptive_options.grid.AddAxis(ParseSweepAxis("controller=arf,aarf,onoe,samplerate,minstrel"));
  AggregateCollector adaptive;
  if (!RunBenchSweep(adaptive_options, args, ".adaptive.csv", &adaptive)) {
    return 1;
  }

  // Oracle envelope: per distance, the fixed rate with the best mean goodput.
  std::map<double, double> oracle;  // distance -> mbps, numerically ordered
  for (const AggregateCollector::Point& point : fixed.points()) {
    const double mbps = MetricMean(point, "goodput_mbps");
    auto [it, inserted] = oracle.try_emplace(std::stod(PointValue(point, "distance")), mbps);
    if (!inserted && mbps > it->second) {
      it->second = mbps;
    }
  }

  Table table({"controller", "distance_m", "goodput_mbps", "retry_rate_%", "vs_oracle_%"});
  for (const auto& [distance, mbps] : oracle) {
    table.AddRow({"oracle-fixed", Table::Num(distance, 0), Table::Num(mbps, 2), "-", "100.0"});
  }
  for (const AggregateCollector::Point& point : adaptive.points()) {
    const std::string distance = PointValue(point, "distance");
    const double mbps = MetricMean(point, "goodput_mbps");
    const double attempts = MetricMean(point, "tx_attempts");
    const double retry_rate = attempts > 0 ? 100.0 * MetricMean(point, "retries") / attempts : 0;
    const double best = oracle[std::stod(distance)];
    const double vs_oracle = best > 0 ? 100.0 * mbps / best : 100.0;
    table.AddRow({PointValue(point, "controller"), distance, Table::Num(mbps, 2),
                  Table::Num(retry_rate, 1), Table::Num(vs_oracle, 1)});
  }
  std::printf("=== F9: rate adaptation under Rayleigh fading (802.11a, 1200 B saturated, "
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
