// Campus roaming: an extended service set of three access points along a
// corridor, all broadcasting the same SSID on channels 1/6/11, and a tablet
// riding past all three while running a constant-rate uplink.
//
// The topology is the library's canonical roaming builder (the same code
// `wlansim_run --scenario=roaming --param n_aps=3` executes). Roaming is the
// one scenario that keeps a typed entry point, RunRoamingScenario, beside
// its registration: this example turns on association logging and plots the
// delivered-rate time series, which the registered scenario's scalar metric
// map cannot carry. Together they tell the survey's "seamless roaming"
// story, including its distinctly non-seamless gaps.

#include <cstdio>
#include <string>

#include "runner/builders.h"

using namespace wlansim;

int main() {
  RoamingParams p;
  p.n_aps = 3;
  p.spacing = 120.0;  // channels 1 / 6 / 11 along the corridor
  p.speed = 12.0;     // a brisk campus bicycle
  p.path_loss_exponent = 3.3;
  p.start_x = 5.0;
  p.payload = 750;
  p.scan_dwell = Time::Millis(120);  // > beacon interval
  p.sim_time = Time::Seconds(22);
  p.seed = 11;
  p.use_arf = true;
  p.log_associations = true;

  const RoamingResult r = RunRoamingScenario(p);

  std::printf("\ntime  delivered uplink rate\n");
  for (const auto& [start_s, bytes] : r.delivered_buckets) {
    const double kbps = bytes * 8.0 / r.bucket_seconds / 1000.0;
    std::printf("%4.1fs  %6.0f kb/s  %s\n", start_s, kbps,
                std::string(static_cast<size_t>(kbps / 40.0), '#').c_str());
  }
  std::printf("\nhandoffs: %llu   packet loss: %.1f%%   mean delivered: %.0f kb/s\n",
              static_cast<unsigned long long>(r.handoffs), 100.0 * r.loss_rate,
              r.mean_delivered_kbps);
  return 0;
}
