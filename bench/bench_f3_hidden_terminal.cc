// F3 — The hidden-terminal problem and the RTS/CTS rescue, as a thin client
// of the sweep engine (no google-benchmark).
//
// Two senders A and B cannot hear each other (matrix loss puts them out of
// carrier-sense range) but share receiver R. Expected shape: with basic
// access both flows collapse under collisions (aggregate well below a single
// unimpeded sender); enabling RTS/CTS restores most of the channel because
// the short RTS collisions are cheap and the CTS silences the hidden peer.
// The control rows with A and B in CS range show normal CSMA sharing. The
// same grid regenerates from the CLI alone:
//   wlansim_run --scenario=hidden_terminal --sweep hidden=false,true \
//       --sweep rtscts=false,true

#include <string>

#include "bench/bench_util.h"

namespace wlansim {
namespace {

int Run(int argc, char** argv) {
  const SweepBenchArgs args = ParseSweepBenchArgs(argc, argv, "bench_f3_hidden_terminal");
  if (!args.ok) {
    return 1;
  }

  SweepOptions options;
  options.scenario = "hidden_terminal";
  options.base_seed = args.seed;
  options.replications = args.reps;
  options.jobs = args.jobs;
  options.grid.AddAxis(ParseSweepAxis("hidden=false,true"));
  options.grid.AddAxis(ParseSweepAxis("rtscts=false,true"));
  AggregateCollector result;
  if (!RunBenchSweep(options, args, "", &result)) {
    return 1;
  }

  Table table({"topology", "access", "agg_goodput_mbps", "retry_rate_%", "drop_rate_%"});
  for (const AggregateCollector::Point& point : result.points()) {
    const bool hidden = PointValue(point, "hidden") == "true";
    const bool rtscts = PointValue(point, "rtscts") == "true";
    table.AddRow({hidden ? "hidden" : "cs-range", rtscts ? "rts/cts" : "basic",
                  Table::Num(MetricMean(point, "goodput_mbps"), 2),
                  Table::Num(100.0 * MetricMean(point, "retry_rate"), 1),
                  Table::Num(100.0 * MetricMean(point, "drop_rate"), 2)});
  }
  std::printf("=== F3: hidden terminal, basic vs RTS/CTS (2 senders, 11 Mb/s, 1500 B, "
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
