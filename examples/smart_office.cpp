// Smart office: the extension features working together, campaign edition.
//
//  * An 802.11e (EDCA) BSS where a VoIP handset (AC_VO) keeps low latency
//    while two laptops saturate the uplink with bulk transfers (AC_BK).
//  * A battery-powered sensor uses 802.11 power save: it dozes between
//    beacons, wakes on the TIM to fetch its configuration updates, and its
//    radio energy is reported from the PHY's per-state accounting.
//
// The topology is registered as a runtime scenario and run as a campaign of
// five replications, so every number below carries a confidence interval:
// voice delay should stay in the low milliseconds despite saturation, and
// the sensor's radio energy should be a fraction of the always-on handset's.

#include <cstdio>

#include "net/network.h"
#include "runner/scenario_registry.h"
#include "runner/sweep.h"
#include "stats/table.h"

using namespace wlansim;

namespace {

ReplicationResult RunSmartOffice(const ScenarioParams&, const ReplicationContext& ctx) {
  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);

  auto qos = [](WifiMac::Config& c) { c.qos_enabled = true; };
  auto qos_ps = [](WifiMac::Config& c) {
    c.qos_enabled = true;
    c.power_save = true;
    c.listen_interval = 2;
  };

  Node* ap = net.AddNode({.role = MacRole::kAp,
                          .standard = PhyStandard::k80211b,
                          .ssid = "office",
                          .mac_tweak = qos});
  Node* handset = net.AddNode({.role = MacRole::kSta,
                               .standard = PhyStandard::k80211b,
                               .ssid = "office",
                               .position = {6, 2, 0},
                               .mac_tweak = qos});
  Node* laptop1 = net.AddNode({.role = MacRole::kSta,
                               .standard = PhyStandard::k80211b,
                               .ssid = "office",
                               .position = {-7, 4, 0},
                               .mac_tweak = qos});
  Node* laptop2 = net.AddNode({.role = MacRole::kSta,
                               .standard = PhyStandard::k80211b,
                               .ssid = "office",
                               .position = {3, -9, 0},
                               .mac_tweak = qos});
  Node* sensor = net.AddNode({.role = MacRole::kSta,
                              .standard = PhyStandard::k80211b,
                              .ssid = "office",
                              .position = {12, 12, 0},
                              .mac_tweak = qos_ps});

  const WifiMode full = ModesFor(PhyStandard::k80211b).back();
  for (Node* n : {ap, handset, laptop1, laptop2}) {
    n->SetRateController(std::make_unique<FixedRateController>(full));
  }
  net.StartAll();

  // VoIP: 50 pps × 160 B at priority 6 (AC_VO).
  auto* voice_up = handset->AddTraffic<CbrTraffic>(ap->address(), 1, 160, Time::Millis(20));
  voice_up->SetPriority(6);
  voice_up->Start(Time::Seconds(1));

  // Bulk uploads at priority 1 (AC_BK).
  for (auto [laptop, flow] : {std::pair{laptop1, 2u}, std::pair{laptop2, 3u}}) {
    auto* bulk = laptop->AddTraffic<SaturatedTraffic>(ap->address(), flow, 1500);
    bulk->SetPriority(1);
    bulk->Start(Time::Seconds(1));
  }

  // Config pushes to the dozing sensor: 200 B every 700 ms.
  auto* config_push = ap->AddTraffic<CbrTraffic>(sensor->address(), 4, 200, Time::Millis(700));
  config_push->SetPriority(0);
  config_push->Start(Time::Seconds(2));

  net.Run(Time::Seconds(12));

  ReplicationResult out;
  const auto* voice = net.flow_stats().Find(1);
  out.metrics["voice_delay_ms"] = voice != nullptr ? voice->delay_us.mean() / 1000.0 : 0.0;
  out.metrics["voice_loss_rate"] = net.flow_stats().LossRate(1);
  out.metrics["bulk_mbps"] =
      net.flow_stats().GoodputMbps(2) + net.flow_stats().GoodputMbps(3);
  out.metrics["sensor_push_loss_rate"] = net.flow_stats().LossRate(4);

  const auto sensor_times = sensor->phy().GetStateTimes(net.sim().Now());
  const auto handset_times = handset->phy().GetStateTimes(net.sim().Now());
  out.metrics["sensor_energy_j"] = sensor_times.EnergyJoules();
  out.metrics["sensor_sleep_pct"] =
      100.0 * sensor_times.sleep.seconds() /
      (sensor_times.sleep + sensor_times.listen + sensor_times.rx + sensor_times.tx).seconds();
  out.metrics["handset_energy_j"] = handset_times.EnergyJoules();
  out.metrics["ap_internal_collisions"] =
      static_cast<double>(ap->mac().counters().internal_collisions);
  return out;
}

}  // namespace

int main() {
  ScenarioRegistry::Global().Register(
      "smart_office",
      "EDCA voice + bulk contention plus a power-saving sensor with energy accounting",
      /*param_specs=*/{}, RunSmartOffice);

  SweepOptions options;  // no sweep axes: a plain campaign
  options.scenario = "smart_office";
  options.base_seed = 42;
  options.replications = 5;
  options.jobs = 0;  // all hardware threads
  AggregateCollector collected;
  options.point_sinks.push_back(&collected);

  RunSweepCampaign(options);

  Table table({"metric", "mean", "ci95_half", "min", "max"});
  for (const MetricAggregate& a : collected.points().front().aggregates) {
    table.AddRow({a.metric, Table::Num(a.mean, 3), Table::Num(a.ci95_half, 3),
                  Table::Num(a.min, 3), Table::Num(a.max, 3)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf(
      "\n%llu replications. The sensor dozes between beacons (sleep %% above)\n"
      "while the always-on handset burns several times the radio energy.\n",
      static_cast<unsigned long long>(options.replications));
  return 0;
}
