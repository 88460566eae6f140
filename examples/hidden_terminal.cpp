// Hidden-terminal demo, campaign edition: runs the registered
// "hidden_terminal" scenario — two senders that share a receiver but cannot
// hear each other — with RTS/CTS disabled and then enabled, five independent
// replications each, and prints the side-by-side comparison with confidence
// intervals.
//
// This is the scenario every 802.11 textbook uses to motivate virtual
// carrier sensing: A and B sense an idle medium, so physical carrier sense
// never defers, and their frames collide at R.

#include <cstdio>

#include "runner/sweep.h"
#include "stats/table.h"

using namespace wlansim;

namespace {

std::vector<MetricAggregate> RunAccess(bool rtscts) {
  SweepOptions options;  // no sweep axes: a plain campaign
  options.scenario = "hidden_terminal";
  options.base_params.Set("rtscts", rtscts ? "true" : "false");
  options.base_seed = 99;
  options.replications = 5;
  options.jobs = 0;  // all hardware threads
  AggregateCollector collected;
  options.point_sinks.push_back(&collected);
  RunSweepCampaign(options);
  return collected.points().front().aggregates;
}

double Mean(const std::vector<MetricAggregate>& aggregates, const std::string& metric) {
  for (const MetricAggregate& a : aggregates) {
    if (a.metric == metric) {
      return a.mean;
    }
  }
  return 0.0;
}

}  // namespace

int main() {
  std::printf("topology:  A (x=+50) --70dB-->  R (x=0)  <--70dB-- B (x=-50)\n");
  std::printf("           A and B share no link: each is hidden from the other.\n\n");

  const std::vector<MetricAggregate> basic = RunAccess(false);
  const std::vector<MetricAggregate> rts = RunAccess(true);

  Table table({"access", "agg_goodput_mbps", "retry_%", "cts_timeouts", "frames_dropped"});
  table.AddRow({"basic (CSMA only)", Table::Num(Mean(basic, "goodput_mbps"), 2),
                Table::Num(100.0 * Mean(basic, "retry_rate"), 1),
                Table::Num(Mean(basic, "cts_timeouts"), 1),
                Table::Num(Mean(basic, "drops"), 1)});
  table.AddRow({"RTS/CTS", Table::Num(Mean(rts, "goodput_mbps"), 2),
                Table::Num(100.0 * Mean(rts, "retry_rate"), 1),
                Table::Num(Mean(rts, "cts_timeouts"), 1), Table::Num(Mean(rts, "drops"), 1)});
  std::fputs(table.ToString().c_str(), stdout);

  std::printf(
      "\n(each row: mean of 5 independent replications)\n"
      "With CSMA alone, A and B sense an idle medium and collide at R\n"
      "(high retry rate, dropped frames). The RTS/CTS handshake lets R's CTS\n"
      "silence the hidden sender for the whole exchange: collisions shrink to\n"
      "the cheap RTS frames (visible as CTS timeouts instead of data retries).\n");
  return 0;
}
