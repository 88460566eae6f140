// Home WLAN (the survey's Figure 1.6 scenario): one 802.11g router serving a
// mix of devices — a laptop streaming video (CBR down-link), a phone browsing
// (on/off bursts), a smart camera uploading (CBR up-link), and a legacy
// 802.11b printer that occasionally receives jobs — all under WPA2 (CCMP).
//
// Demonstrates how to register a custom topology as a Scenario at runtime
// and run it as a campaign: five independent replications across all cores,
// per-flow metrics aggregated into mean ± 95 % CI. The same registration
// pattern is how new workloads become `wlansim_run` scenarios.

#include <cstdio>

#include "net/network.h"
#include "rate/minstrel.h"
#include "runner/scenario_registry.h"
#include "runner/sweep.h"
#include "stats/table.h"

using namespace wlansim;

namespace {

ReplicationResult RunHomeWlan(const ScenarioParams&, const ReplicationContext& ctx) {
  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.2, /*shadowing_sigma_db=*/4.0);

  const std::vector<uint8_t> psk(16, 0x6B);  // the "WPA2 passphrase"
  auto secured = [&psk](WifiMac::Config& c) {
    c.cipher = CipherSuite::kCcmp;
    c.cipher_key = psk;
    c.cts_to_self_protection = true;  // a legacy 11b device is present
  };
  auto secured_b = [&psk](WifiMac::Config& c) {
    c.cipher = CipherSuite::kCcmp;
    c.cipher_key = psk;
  };

  Node* router = net.AddNode({.role = MacRole::kAp,
                              .standard = PhyStandard::k80211g,
                              .ssid = "home",
                              .mac_tweak = secured});
  Node* laptop = net.AddNode({.role = MacRole::kSta,
                              .standard = PhyStandard::k80211g,
                              .ssid = "home",
                              .position = {8, 3, 0},
                              .mac_tweak = secured});
  Node* phone = net.AddNode({.role = MacRole::kSta,
                             .standard = PhyStandard::k80211g,
                             .ssid = "home",
                             .position = {-5, 6, 0},
                             .mac_tweak = secured});
  Node* camera = net.AddNode({.role = MacRole::kSta,
                              .standard = PhyStandard::k80211g,
                              .ssid = "home",
                              .position = {12, -9, 0},
                              .mac_tweak = secured});
  Node* printer = net.AddNode({.role = MacRole::kSta,
                               .standard = PhyStandard::k80211b,  // legacy!
                               .ssid = "home",
                               .position = {-15, -4, 0},
                               .mac_tweak = secured_b});

  for (Node* n : {router, laptop, phone, camera}) {
    n->SetRateController(
        std::make_unique<MinstrelController>(PhyStandard::k80211g, net.ForkRng("rc")));
  }
  net.StartAll();

  // Video stream to the laptop: 3 Mb/s CBR of 1400 B frames via the router.
  router->AddTraffic<CbrTraffic>(laptop->address(), 1, 1400, Time::Micros(1400 * 8 / 3.0))
      ->Start(Time::Seconds(1));
  // Phone browsing: bursty on/off download.
  router
      ->AddTraffic<OnOffTraffic>(phone->address(), 2, 1200, Time::Millis(8), Time::Millis(500),
                                 Time::Millis(1500), net.ForkRng("onoff"))
      ->Start(Time::Seconds(1));
  // Camera upload: 2 Mb/s CBR to the router.
  camera->AddTraffic<CbrTraffic>(router->address(), 3, 1000, Time::Micros(1000 * 8 / 2.0))
      ->Start(Time::Seconds(1));
  // A print job every few seconds (small bursts to the printer).
  router->AddTraffic<PoissonTraffic>(printer->address(), 4, 800, 20.0, net.ForkRng("print"))
      ->Start(Time::Seconds(2));

  net.Run(Time::Seconds(12));

  const char* names[] = {"video", "web", "camera", "printer"};
  ReplicationResult out;
  for (uint32_t flow = 1; flow <= 4; ++flow) {
    out.metrics[std::string(names[flow - 1]) + "_mbps"] = net.flow_stats().GoodputMbps(flow);
    out.metrics[std::string(names[flow - 1]) + "_loss_rate"] = net.flow_stats().LossRate(flow);
  }
  out.metrics["router_bridged_msdus"] =
      static_cast<double>(router->mac().counters().rx_data);
  return out;
}

}  // namespace

int main() {
  ScenarioRegistry::Global().Register(
      "home_wlan", "One WPA2 802.11g router serving four mixed-traffic home devices",
      /*param_specs=*/{}, RunHomeWlan);

  SweepOptions options;  // no sweep axes: a plain campaign
  options.scenario = "home_wlan";
  options.base_seed = 7;
  options.replications = 5;
  options.jobs = 0;  // all hardware threads

  const SweepResult result = RunSweepCampaign(options);

  Table table({"metric", "mean", "ci95_half", "min", "max"});
  for (const MetricAggregate& a : result.points.front().aggregates) {
    table.AddRow({a.metric, Table::Num(a.mean, 3), Table::Num(a.ci95_half, 3),
                  Table::Num(a.min, 3), Table::Num(a.max, 3)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf("\n%llu replications; printer associated as 802.11b legacy device\n",
              static_cast<unsigned long long>(result.replications));
  return 0;
}
