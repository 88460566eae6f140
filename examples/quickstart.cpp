// Quickstart: the smallest complete wlansim program, twice.
//
// Part 1 builds one 802.11g BSS by hand (an access point and a laptop 20 m
// away) and runs a saturated upload — the library API in a dozen lines.
// Part 2 runs the same experiment through the campaign engine: the
// registered "saturation" scenario, four independent replications on all
// cores, aggregated into mean ± 95 % CI. Everything `wlansim_run` can do is
// available in-process like this.

#include <cstdio>

#include "net/network.h"
#include "rate/minstrel.h"
#include "runner/sweep.h"

using namespace wlansim;

int main() {
  // --- Part 1: the library API -------------------------------------------
  Network net(Network::Params{.seed = 2026});
  net.UseLogDistanceLoss(3.0);  // indoor-ish path loss

  Node* ap = net.AddNode({.role = MacRole::kAp, .standard = PhyStandard::k80211g,
                          .ssid = "quickstart"});
  Node* laptop = net.AddNode({.role = MacRole::kSta, .standard = PhyStandard::k80211g,
                              .ssid = "quickstart", .position = {20, 0, 0}});
  laptop->SetRateController(
      std::make_unique<MinstrelController>(PhyStandard::k80211g, net.ForkRng("minstrel")));
  laptop->mac().SetAssociationCallback([&](bool up, MacAddress bssid) {
    if (up) {
      std::printf("associated to %s after %s\n", bssid.ToString().c_str(),
                  net.sim().Now().ToString().c_str());
    }
  });
  net.StartAll();
  laptop->AddTraffic<SaturatedTraffic>(ap->address(), /*flow_id=*/1, /*payload_bytes=*/1500)
      ->Start(Time::Seconds(1));
  net.Run(Time::Seconds(11));
  const auto* flow = net.flow_stats().Find(1);
  std::printf("goodput: %.1f Mb/s   loss: %.1f %%   mean delay: %.1f ms\n\n",
              net.flow_stats().GoodputMbps(1), 100.0 * net.flow_stats().LossRate(1),
              flow != nullptr ? flow->delay_us.mean() / 1000.0 : 0.0);

  // --- Part 2: the same experiment as a campaign -------------------------
  // A campaign is the run engine's grid with no sweep axes.
  SweepOptions options;
  options.scenario = "saturation";
  options.base_params.Set("standard", "11g");
  options.base_params.Set("distance", "20");
  options.replications = 4;
  options.jobs = 0;  // all hardware threads
  const SweepResult campaign = RunSweepCampaign(options);
  std::printf("campaign: %llu replications of '%s'\n",
              static_cast<unsigned long long>(campaign.replications), campaign.scenario.c_str());
  for (const MetricAggregate& a : campaign.points.front().aggregates) {
    std::printf("  %-14s %.3f ± %.3f\n", a.metric.c_str(), a.mean, a.ci95_half);
  }
  return 0;
}
