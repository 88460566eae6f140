#include "runner/builders.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>

#include "net/ism_interferer.h"
#include "net/network.h"
#include "net/radios.h"
#include "rate/arf.h"
#include "rate/minstrel.h"
#include "rate/onoe.h"
#include "rate/sample_rate.h"
#include "stats/time_series.h"

namespace wlansim {
namespace {

constexpr double kPi = 3.14159265358979;

double MeanDelayMs(const FlowStats& stats) {
  uint64_t delay_count = 0;
  double delay_sum = 0;
  for (const auto& [id, flow] : stats.flows()) {
    delay_sum += flow.delay_us.mean() * static_cast<double>(flow.delay_us.count());
    delay_count += flow.delay_us.count();
  }
  return delay_count ? delay_sum / static_cast<double>(delay_count) / 1000.0 : 0.0;
}

}  // namespace

std::unique_ptr<RateController> MakeRateController(const std::string& name,
                                                   PhyStandard standard, Rng rng) {
  if (name == "arf") {
    return std::make_unique<ArfController>(standard);
  }
  if (name == "aarf") {
    ArfController::Options o;
    o.adaptive = true;
    return std::make_unique<ArfController>(standard, o);
  }
  if (name == "onoe") {
    return std::make_unique<OnoeController>(standard);
  }
  if (name == "samplerate") {
    return std::make_unique<SampleRateController>(standard, rng);
  }
  if (name == "minstrel") {
    return std::make_unique<MinstrelController>(standard, rng);
  }
  return nullptr;
}

RunResult RunSaturationScenario(const SaturationParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(3.0);

  std::vector<uint8_t> key(16, 0x42);
  auto mac_tweak = [&](WifiMac::Config& c) {
    c.rts_threshold = p.rts_threshold;
    if (p.cipher != CipherSuite::kOpen) {
      c.cipher = p.cipher;
      c.cipher_key = p.cipher == CipherSuite::kWep ? std::vector<uint8_t>(13, 0x42) : key;
    }
  };

  Node* ap = net.AddNode(
      {.role = MacRole::kAp, .standard = p.standard, .ssid = "bench", .mac_tweak = mac_tweak});
  const auto modes = ModesFor(p.standard);
  if (p.rate_index != SIZE_MAX && p.rate_index >= modes.size()) {
    throw std::invalid_argument("rate_index " + std::to_string(p.rate_index) +
                                " out of range: " + ToString(p.standard) + " has " +
                                std::to_string(modes.size()) + " modes");
  }
  const WifiMode fixed = modes[p.rate_index == SIZE_MAX ? modes.size() - 1 : p.rate_index];

  std::vector<Node*> stas;
  for (size_t i = 0; i < p.n_stas; ++i) {
    // Stations on a circle around the AP.
    const double angle = 2.0 * kPi * static_cast<double>(i) /
                         static_cast<double>(std::max<size_t>(p.n_stas, 1));
    Node* sta = net.AddNode({.role = MacRole::kSta,
                             .standard = p.standard,
                             .ssid = "bench",
                             .position = {p.distance * std::cos(angle),
                                          p.distance * std::sin(angle), 0},
                             .mac_tweak = mac_tweak});
    sta->SetRateController(std::make_unique<FixedRateController>(fixed));
    stas.push_back(sta);
  }
  net.StartAll();

  for (size_t i = 0; i < stas.size(); ++i) {
    auto* app = stas[i]->AddTraffic<SaturatedTraffic>(ap->address(),
                                                      static_cast<uint32_t>(i + 1), p.payload);
    app->Start(p.warmup);
  }
  net.Run(p.warmup + p.sim_time);

  RunResult r;
  r.goodput_mbps = net.flow_stats().GoodputMbps();
  r.loss_rate = net.flow_stats().LossRate();
  r.mean_delay_ms = MeanDelayMs(net.flow_stats());
  for (auto& sta : stas) {
    r.retries += sta->mac().counters().retries;
    r.tx_attempts += sta->mac().counters().tx_data_attempts;
  }
  r.rx_ok = ap->mac().counters().rx_data;
  return r;
}

HiddenTerminalResult RunHiddenTerminalScenario(const HiddenTerminalParams& p) {
  Network net(Network::Params{.seed = p.seed});
  MatrixLossModel* loss = net.UseMatrixLoss(200.0);

  auto mac_tweak = [&](WifiMac::Config& c) {
    c.rts_threshold = p.rtscts ? 400 : 65535;
  };
  // Node ids are assigned in AddNode order: receiver 0, senders 1 and 2.
  Node* receiver = net.AddNode(
      {.role = MacRole::kAdhoc, .standard = PhyStandard::k80211b, .mac_tweak = mac_tweak});
  Node* a = net.AddNode({.role = MacRole::kAdhoc,
                         .standard = PhyStandard::k80211b,
                         .position = {50, 0, 0},
                         .mac_tweak = mac_tweak});
  Node* b = net.AddNode({.role = MacRole::kAdhoc,
                         .standard = PhyStandard::k80211b,
                         .position = {-50, 0, 0},
                         .mac_tweak = mac_tweak});
  loss->SetLoss(1, 0, 70.0);  // both senders hear the receiver fine
  loss->SetLoss(2, 0, 70.0);
  loss->SetLoss(1, 2, p.hidden ? 200.0 : 70.0);  // sender-sender link

  const WifiMode mode = ModesFor(PhyStandard::k80211b).back();
  a->SetRateController(std::make_unique<FixedRateController>(mode));
  b->SetRateController(std::make_unique<FixedRateController>(mode));
  net.StartAll();
  a->AddTraffic<SaturatedTraffic>(receiver->address(), 1, p.payload)->Start(Time::Seconds(1));
  b->AddTraffic<SaturatedTraffic>(receiver->address(), 2, p.payload)->Start(Time::Seconds(1));
  net.Run(Time::Seconds(1) + p.sim_time);

  HiddenTerminalResult r;
  r.goodput_mbps = net.flow_stats().GoodputMbps();
  uint64_t retries = 0;
  uint64_t attempts = 0;
  for (Node* s : {a, b}) {
    retries += s->mac().counters().retries;
    attempts += s->mac().counters().tx_data_attempts;
    r.cts_timeouts += s->mac().counters().cts_timeouts;
    r.drops += s->mac().counters().tx_data_dropped;
  }
  r.retry_rate = attempts ? static_cast<double>(retries) / static_cast<double>(attempts) : 0.0;
  r.drop_rate = attempts ? static_cast<double>(r.drops) / static_cast<double>(attempts) : 0.0;
  return r;
}

EdcaQosResult RunEdcaScenario(const EdcaQosParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(3.0);
  auto tweak = [&p](WifiMac::Config& c) { c.qos_enabled = p.qos; };
  Node* ap = net.AddNode(
      {.role = MacRole::kAp, .standard = PhyStandard::k80211b, .mac_tweak = tweak});
  const WifiMode m = ModesFor(PhyStandard::k80211b).back();

  Node* phone = net.AddNode({.role = MacRole::kSta,
                             .standard = PhyStandard::k80211b,
                             .position = {5, 5, 0},
                             .mac_tweak = tweak});
  phone->SetRateController(std::make_unique<FixedRateController>(m));

  std::vector<Node*> bulk;
  for (size_t i = 0; i < p.bulk_stations; ++i) {
    const double angle = 2.0 * kPi * static_cast<double>(i) /
                         static_cast<double>(std::max<size_t>(p.bulk_stations, 1));
    Node* sta = net.AddNode({.role = MacRole::kSta,
                             .standard = PhyStandard::k80211b,
                             .position = {10 * std::cos(angle), 10 * std::sin(angle), 0},
                             .mac_tweak = tweak});
    sta->SetRateController(std::make_unique<FixedRateController>(m));
    bulk.push_back(sta);
  }
  net.StartAll();

  auto* voice = phone->AddTraffic<CbrTraffic>(ap->address(), 1, 160, Time::Millis(20));
  voice->SetPriority(6);  // AC_VO
  voice->Start(Time::Seconds(1));
  for (size_t i = 0; i < bulk.size(); ++i) {
    auto* app =
        bulk[i]->AddTraffic<SaturatedTraffic>(ap->address(), static_cast<uint32_t>(i + 2), 1500);
    app->SetPriority(1);  // AC_BK
    app->Start(Time::Seconds(1));
  }
  net.Run(Time::Seconds(1) + p.sim_time);

  EdcaQosResult out{};
  const auto* flow = net.flow_stats().Find(1);
  out.voice_delay_ms = flow != nullptr ? flow->delay_us.mean() / 1000.0 : 0.0;
  out.voice_jitter_ms = flow != nullptr ? flow->jitter_us / 1000.0 : 0.0;
  out.voice_delivered = flow != nullptr ? flow->rx_packets : 0;
  out.voice_loss = net.flow_stats().LossRate(1);
  for (size_t i = 0; i < bulk.size(); ++i) {
    out.bulk_mbps += net.flow_stats().GoodputMbps(static_cast<uint32_t>(i + 2));
  }
  return out;
}

RunResult RunLinkScenario(const LinkParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(3.0);
  if (p.rayleigh_fading) {
    net.UseRayleighFading();
  }
  Node* ap = net.AddNode({.role = MacRole::kAp, .standard = p.standard, .ssid = "f1"});
  Node* sta = net.AddNode({.role = MacRole::kSta,
                           .standard = p.standard,
                           .ssid = "f1",
                           .position = {p.distance, 0, 0}});
  if (p.controller.empty()) {
    const auto modes = ModesFor(p.standard);
    if (p.rate_index >= modes.size()) {
      throw std::invalid_argument("rate_index " + std::to_string(p.rate_index) +
                                  " out of range: " + ToString(p.standard) + " has " +
                                  std::to_string(modes.size()) + " modes");
    }
    sta->SetRateController(std::make_unique<FixedRateController>(modes[p.rate_index]));
  } else {
    auto controller = MakeRateController(p.controller, p.standard, net.ForkRng("rate"));
    if (controller == nullptr) {
      throw std::invalid_argument("unknown rate controller '" + p.controller + "'");
    }
    sta->SetRateController(std::move(controller));
  }
  net.StartAll();
  auto* app = sta->AddTraffic<SaturatedTraffic>(ap->address(), 1, p.payload);
  app->Start(Time::Seconds(1));
  net.Run(Time::Seconds(1) + p.sim_time);
  RunResult r;
  r.goodput_mbps = net.flow_stats().GoodputMbps();
  r.loss_rate = net.flow_stats().LossRate();
  r.mean_delay_ms = MeanDelayMs(net.flow_stats());
  r.retries = sta->mac().counters().retries;
  r.tx_attempts = sta->mac().counters().tx_data_attempts;
  r.rx_ok = ap->mac().counters().rx_data;
  return r;
}

DenseMultiBssResult RunDenseMultiBssScenario(const DenseMultiBssParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(3.0);

  const auto modes = ModesFor(p.standard);
  const WifiMode fixed = modes.back();
  const size_t n_bss = std::max<size_t>(p.n_bss, 1);
  const size_t side = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n_bss))));

  struct Bss {
    Node* ap;
    std::vector<Node*> stas;
  };
  std::vector<Bss> bsss;
  for (size_t k = 0; k < n_bss; ++k) {
    const double ap_x = static_cast<double>(k % side) * p.bss_spacing;
    const double ap_y = static_cast<double>(k / side) * p.bss_spacing;
    const std::string ssid = "bss" + std::to_string(k);
    Bss bss;
    bss.ap = net.AddNode(
        {.role = MacRole::kAp, .standard = p.standard, .ssid = ssid, .position = {ap_x, ap_y, 0}});
    for (size_t i = 0; i < p.stas_per_bss; ++i) {
      const double angle = 2.0 * kPi * static_cast<double>(i) /
                           static_cast<double>(std::max<size_t>(p.stas_per_bss, 1));
      Node* sta = net.AddNode({.role = MacRole::kSta,
                               .standard = p.standard,
                               .ssid = ssid,
                               .position = {ap_x + p.sta_radius * std::cos(angle),
                                            ap_y + p.sta_radius * std::sin(angle), 0}});
      sta->SetRateController(std::make_unique<FixedRateController>(fixed));
      bss.stas.push_back(sta);
    }
    bsss.push_back(std::move(bss));
  }
  net.StartAll();

  uint32_t flow_id = 1;
  for (Bss& bss : bsss) {
    for (Node* sta : bss.stas) {
      sta->AddTraffic<SaturatedTraffic>(bss.ap->address(), flow_id++, p.payload)
          ->Start(p.warmup);
    }
  }
  net.Run(p.warmup + p.sim_time);

  DenseMultiBssResult result;
  RunResult& r = result.run;
  r.goodput_mbps = net.flow_stats().GoodputMbps();
  r.loss_rate = net.flow_stats().LossRate();
  r.mean_delay_ms = MeanDelayMs(net.flow_stats());
  for (const Bss& bss : bsss) {
    r.rx_ok += bss.ap->mac().counters().rx_data;
    for (Node* sta : bss.stas) {
      r.retries += sta->mac().counters().retries;
      r.tx_attempts += sta->mac().counters().tx_data_attempts;
    }
  }
  // Flow ids were assigned 1..N in station creation order, so per-flow
  // goodput doubles as per-station goodput in that same order.
  const uint32_t n_flows = flow_id;
  result.per_sta_mbps.reserve(n_flows - 1);
  for (uint32_t f = 1; f < n_flows; ++f) {
    result.per_sta_mbps.push_back(net.flow_stats().GoodputMbps(f));
  }
  return result;
}

CityGridResult RunCityGridScenario(const CityGridParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(3.0);  // no shadowing: the grid needs a bounded radius
  net.SetRxCutoffDbm(p.cutoff_dbm);

  const auto modes = ModesFor(p.standard);
  const WifiMode fixed = modes.back();
  const size_t n_bss = std::max<size_t>(p.n_bss, 1);
  const size_t side = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n_bss))));

  struct Bss {
    Node* ap;
    std::vector<Node*> stas;
  };
  std::vector<Bss> bsss;
  for (size_t k = 0; k < n_bss; ++k) {
    const double ap_x = static_cast<double>(k % side) * p.bss_spacing;
    const double ap_y = static_cast<double>(k / side) * p.bss_spacing;
    const std::string ssid = "bss" + std::to_string(k);
    Bss bss;
    bss.ap = net.AddNode(
        {.role = MacRole::kAp, .standard = p.standard, .ssid = ssid, .position = {ap_x, ap_y, 0}});
    for (size_t i = 0; i < p.stas_per_bss; ++i) {
      const double angle = 2.0 * kPi * static_cast<double>(i) /
                           static_cast<double>(std::max<size_t>(p.stas_per_bss, 1));
      Node* sta = net.AddNode({.role = MacRole::kSta,
                               .standard = p.standard,
                               .ssid = ssid,
                               .position = {ap_x + p.sta_radius * std::cos(angle),
                                            ap_y + p.sta_radius * std::sin(angle), 0}});
      sta->SetRateController(std::make_unique<FixedRateController>(fixed));
      bss.stas.push_back(sta);
    }
    bsss.push_back(std::move(bss));
  }
  net.StartAll();

  uint32_t flow_id = 1;
  for (Bss& bss : bsss) {
    for (Node* sta : bss.stas) {
      sta->AddTraffic<SaturatedTraffic>(bss.ap->address(), flow_id++, p.payload)
          ->Start(p.warmup);
    }
  }
  net.Run(p.warmup + p.sim_time);

  CityGridResult result;
  RunResult& r = result.run;
  r.goodput_mbps = net.flow_stats().GoodputMbps();
  r.loss_rate = net.flow_stats().LossRate();
  r.mean_delay_ms = MeanDelayMs(net.flow_stats());
  for (const Bss& bss : bsss) {
    r.rx_ok += bss.ap->mac().counters().rx_data;
    for (Node* sta : bss.stas) {
      r.retries += sta->mac().counters().retries;
      r.tx_attempts += sta->mac().counters().tx_data_attempts;
    }
  }
  const Channel::SendStats& cs = net.channel().send_stats();
  result.channel_sends = cs.sends;
  result.channel_offers = cs.offers;
  return result;
}

RunResult RunIsmInterferenceScenario(const IsmParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(3.0);
  Node* rx = net.AddNode({.role = MacRole::kAdhoc, .standard = p.standard});
  Node* tx =
      net.AddNode({.role = MacRole::kAdhoc, .standard = p.standard, .position = {12, 0, 0}});
  tx->SetRateController(std::make_unique<FixedRateController>(ModesFor(p.standard).back()));
  net.StartAll();

  std::unique_ptr<MicrowaveOven> oven;
  if (p.oven_distance > 0) {
    MicrowaveOven::Config oc;
    oc.position = {-p.oven_distance, 0, 0};
    oc.channel_number = 1;  // the oven lives in the 2.4 GHz band
    oven = std::make_unique<MicrowaveOven>(&net.sim(), &net.channel(), 99, oc);
    oven->Start(Time::Millis(500));
  }
  // 802.11a rides channel 36 (5 GHz): out of the oven's band.
  if (p.standard == PhyStandard::k80211a) {
    rx->phy().SetChannelNumber(36);
    tx->phy().SetChannelNumber(36);
  }

  tx->AddTraffic<SaturatedTraffic>(rx->address(), 1, 1200)->Start(Time::Seconds(1));
  net.Run(Time::Seconds(1) + p.sim_time);

  RunResult r;
  r.goodput_mbps = net.flow_stats().GoodputMbps(1);
  r.loss_rate = net.flow_stats().LossRate(1);
  r.retries = tx->mac().counters().retries;
  r.tx_attempts = tx->mac().counters().tx_data_attempts;
  r.rx_ok = rx->packets_received();
  return r;
}

SensorCoexistenceResult RunSensorCoexistenceScenario(const SensorCoexistenceParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(3.0);

  // The WiFi BSS: AP at the origin, saturated uplink stations on a circle.
  Node* ap = net.AddNode({.role = MacRole::kAp, .standard = p.standard, .ssid = "coex"});
  const WifiMode fixed = ModesFor(p.standard).back();
  std::vector<Node*> stas;
  for (size_t i = 0; i < p.n_stas; ++i) {
    const double angle = 2.0 * kPi * static_cast<double>(i) /
                         static_cast<double>(std::max<size_t>(p.n_stas, 1));
    Node* sta = net.AddNode({.role = MacRole::kSta,
                             .standard = p.standard,
                             .ssid = "coex",
                             .position = {p.sta_distance * std::cos(angle),
                                          p.sta_distance * std::sin(angle), 0}});
    sta->SetRateController(std::make_unique<FixedRateController>(fixed));
    stas.push_back(sta);
  }
  net.StartAll();

  // The sensor cluster: a silent sink offset from the AP, reporters on a
  // circle around it. Node ids start at 200 to stay clear of the BSS.
  SensorRadio::Config sink_cfg;
  sink_cfg.position = {p.cluster_offset, 0, 0};
  SensorRadio sink(&net.sim(), &net.channel(), 200, sink_cfg);
  std::vector<std::unique_ptr<SensorRadio>> sensors;
  for (size_t i = 0; i < p.n_sensors; ++i) {
    const double angle = 2.0 * kPi * static_cast<double>(i) /
                         static_cast<double>(std::max<size_t>(p.n_sensors, 1));
    SensorRadio::Config sc;
    sc.position = {p.cluster_offset + p.sensor_radius * std::cos(angle),
                   p.sensor_radius * std::sin(angle), 0};
    sensors.push_back(std::make_unique<SensorRadio>(&net.sim(), &net.channel(),
                                                    static_cast<uint32_t>(201 + i), sc));
    sensors.back()->StartReporting(p.warmup, p.report_interval);
  }

  std::unique_ptr<LoraInterferer> jammer;
  if (p.with_jammer) {
    LoraInterferer::Config jc;
    jc.position = {p.cluster_offset, p.sensor_radius, 0};  // inside the cluster
    jc.duty_pct = p.jammer_duty_pct;
    jammer = std::make_unique<LoraInterferer>(&net.sim(), &net.channel(), 250, jc);
    jammer->Start(p.warmup);
  }

  for (size_t i = 0; i < stas.size(); ++i) {
    stas[i]
        ->AddTraffic<SaturatedTraffic>(ap->address(), static_cast<uint32_t>(i + 1), p.payload)
        ->Start(p.warmup);
  }
  net.Run(p.warmup + p.sim_time);

  SensorCoexistenceResult r;
  r.wifi.goodput_mbps = net.flow_stats().GoodputMbps();
  r.wifi.loss_rate = net.flow_stats().LossRate();
  r.wifi.mean_delay_ms = MeanDelayMs(net.flow_stats());
  for (Node* sta : stas) {
    r.wifi.retries += sta->mac().counters().retries;
    r.wifi.tx_attempts += sta->mac().counters().tx_data_attempts;
  }
  r.wifi.rx_ok = ap->mac().counters().rx_data;
  for (const auto& s : sensors) {
    r.sensor_reports_sent += s->counters().reports_sent;
    r.sensor_csma_deferrals += s->counters().csma_deferrals;
    r.sensor_csma_drops += s->counters().csma_drops;
  }
  r.sensor_rx_ok = sink.counters().rx_ok;
  r.sensor_rx_lost_sinr = sink.counters().rx_lost_sinr;
  r.sensor_delivery_ratio =
      r.sensor_reports_sent == 0
          ? 0.0
          : static_cast<double>(r.sensor_rx_ok) / static_cast<double>(r.sensor_reports_sent);
  r.jammer_chirps = jammer ? jammer->chirps_emitted() : 0;
  return r;
}

LoraCoexistenceResult RunLoraCoexistenceScenario(const LoraCoexistenceParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(3.0);
  Node* rx = net.AddNode({.role = MacRole::kAdhoc, .standard = p.standard});
  Node* tx =
      net.AddNode({.role = MacRole::kAdhoc, .standard = p.standard, .position = {12, 0, 0}});
  tx->SetRateController(std::make_unique<FixedRateController>(ModesFor(p.standard).back()));
  net.StartAll();

  LoraInterferer::Config jc;
  jc.position = {-p.jammer_distance, 0, 0};
  jc.duty_pct = p.duty_pct;
  jc.airtime = p.airtime;
  LoraInterferer jammer(&net.sim(), &net.channel(), 99, jc);
  jammer.Start(Time::Millis(500));

  tx->AddTraffic<SaturatedTraffic>(rx->address(), 1, 1200)->Start(Time::Seconds(1));
  net.Run(Time::Seconds(1) + p.sim_time);

  LoraCoexistenceResult r;
  r.wifi.goodput_mbps = net.flow_stats().GoodputMbps(1);
  r.wifi.loss_rate = net.flow_stats().LossRate(1);
  r.wifi.retries = tx->mac().counters().retries;
  r.wifi.tx_attempts = tx->mac().counters().tx_data_attempts;
  r.wifi.rx_ok = rx->packets_received();
  r.jammer_chirps = jammer.chirps_emitted();
  r.jammer_airtime_share =
      static_cast<double>(jammer.chirps_emitted()) * p.airtime.seconds() / p.sim_time.seconds();
  return r;
}

AdhocInfraResult RunAdhocInfraScenario(const AdhocInfraParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(3.0);
  constexpr size_t kPayload = 1000;
  const Time interval = Time::Millis(4);  // 2 Mb/s offered per flow

  const WifiMode kFull = ModesFor(PhyStandard::k80211b).back();
  if (!p.adhoc) {
    Node* ap =
        net.AddNode({.role = MacRole::kAp, .standard = PhyStandard::k80211b, .ssid = "f6"});
    ap->SetRateController(std::make_unique<FixedRateController>(kFull));
  }
  std::vector<Node*> nodes;
  for (size_t i = 0; i < 2 * p.n_pairs; ++i) {
    const double angle =
        2.0 * kPi * static_cast<double>(i) / static_cast<double>(2 * p.n_pairs);
    nodes.push_back(net.AddNode({.role = p.adhoc ? MacRole::kAdhoc : MacRole::kSta,
                                 .standard = PhyStandard::k80211b,
                                 .ssid = "f6",
                                 .position = {12 * std::cos(angle), 12 * std::sin(angle), 0}}));
    nodes.back()->SetRateController(std::make_unique<FixedRateController>(kFull));
  }
  net.StartAll();
  for (size_t i = 0; i < p.n_pairs; ++i) {
    Node* src = nodes[2 * i];
    Node* dst = nodes[2 * i + 1];
    auto* app = src->AddTraffic<CbrTraffic>(dst->address(), static_cast<uint32_t>(i + 1),
                                            kPayload, interval);
    app->Start(Time::Seconds(1) + Time::Micros(static_cast<int64_t>(137 * i)));
  }
  net.Run(Time::Seconds(1) + p.sim_time);

  AdhocInfraResult r{};
  r.offered_mbps = static_cast<double>(p.n_pairs) * kPayload * 8.0 / interval.seconds() / 1e6;
  r.delivered_mbps = net.flow_stats().GoodputMbps();
  r.delay_ms = MeanDelayMs(net.flow_stats());
  return r;
}

CoexistenceResult RunCoexistenceScenario(const CoexistenceParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(3.0);
  auto g_tweak = [&p](WifiMac::Config& c) { c.cts_to_self_protection = p.protection; };

  Node* ap = net.AddNode({.role = MacRole::kAp,
                          .standard = PhyStandard::k80211g,
                          .ssid = "mix",
                          .mac_tweak = g_tweak});
  Node* g_sta = net.AddNode({.role = MacRole::kSta,
                             .standard = PhyStandard::k80211g,
                             .ssid = "mix",
                             .position = {8, 0, 0},
                             .mac_tweak = g_tweak});
  g_sta->SetRateController(
      std::make_unique<FixedRateController>(ModesFor(PhyStandard::k80211g).back()));

  Node* b_sta = nullptr;
  if (p.with_b_sta) {
    b_sta = net.AddNode({.role = MacRole::kSta,
                         .standard = PhyStandard::k80211b,
                         .ssid = "mix",
                         .position = {-35, 0, 0}});  // beyond ED range of the g STA
    b_sta->SetRateController(
        std::make_unique<FixedRateController>(ModesFor(PhyStandard::k80211b).back()));
  }
  net.StartAll();
  g_sta->AddTraffic<SaturatedTraffic>(ap->address(), 1, 1500)->Start(Time::Seconds(1));
  if (b_sta != nullptr) {
    b_sta->AddTraffic<SaturatedTraffic>(ap->address(), 2, 1500)->Start(Time::Seconds(1));
  }
  net.Run(Time::Seconds(1) + p.sim_time);
  return CoexistenceResult{net.flow_stats().GoodputMbps(1), net.flow_stats().GoodputMbps(2)};
}

HiddenTerminalResult RunFragmentationScenario(const FragmentationParams& p) {
  Network net(Network::Params{.seed = p.seed});
  MatrixLossModel* loss = net.UseMatrixLoss(200.0);

  auto frag = [&p](WifiMac::Config& c) {
    c.frag_threshold = p.frag_threshold;
    c.retry_limit = 7;
  };
  // DSSS receivers capture a ≥6 dB stronger frame during the preamble; the
  // data signal is 7.5 dB above the jammer, so a frame arriving while the
  // receiver is locked onto a jammer preamble can still win the receiver.
  auto capture = [](WifiPhy::Config& c) { c.capture_margin_db = 6.0; };
  // ids: 0 receiver, 1 sender, 2 jammer.
  Node* rx = net.AddNode({.role = MacRole::kAdhoc,
                          .standard = PhyStandard::k80211b,
                          .phy_tweak = capture,
                          .mac_tweak = frag});
  Node* tx = net.AddNode({.role = MacRole::kAdhoc,
                          .standard = PhyStandard::k80211b,
                          .position = {30, 0, 0},
                          .phy_tweak = capture,
                          .mac_tweak = frag});
  loss->SetLoss(1, 0, 75.0);  // signal at the receiver: -59 dBm
  Node* jammer = nullptr;
  if (p.jammed) {
    jammer = net.AddNode({.role = MacRole::kAdhoc,
                          .standard = PhyStandard::k80211b,
                          .position = {-30, 0, 0}});
    // Jammer reaches the receiver at -66.5 dBm → SINR ≈ 7.5 dB during a
    // burst: overlapped CCK-11 bits see BER ~2e-4, so short fragments often
    // survive a graze while 2000-byte MPDUs die. Sender cannot hear it.
    loss->SetLoss(2, 0, 82.5);
  }

  tx->SetRateController(
      std::make_unique<FixedRateController>(ModesFor(PhyStandard::k80211b).back()));
  net.StartAll();
  tx->AddTraffic<SaturatedTraffic>(rx->address(), 1, 2000)->Start(Time::Seconds(1));
  if (jammer != nullptr) {
    // Poisson bursts: 400 B broadcasts (~480 us air) at 250/s — ~12 % duty,
    // arrivals memoryless so fragment retries re-roll the overlap dice.
    jammer->SetRateController(
        std::make_unique<FixedRateController>(ModesFor(PhyStandard::k80211b).back()));
    jammer
        ->AddTraffic<PoissonTraffic>(MacAddress::Broadcast(), 99, 400, 250.0,
                                     net.ForkRng("jam"))
        ->Start(Time::Seconds(1));
  }
  net.Run(Time::Seconds(1) + p.sim_time);

  HiddenTerminalResult r;
  r.goodput_mbps = net.flow_stats().GoodputMbps(1);
  const uint64_t retries = tx->mac().counters().retries;
  const uint64_t attempts = tx->mac().counters().tx_data_attempts;
  r.drops = tx->mac().counters().tx_data_dropped;
  r.retry_rate = attempts ? static_cast<double>(retries) / static_cast<double>(attempts) : 0.0;
  r.drop_rate = attempts ? static_cast<double>(r.drops) / static_cast<double>(attempts) : 0.0;
  return r;
}

RoamingResult RunRoamingScenario(const RoamingParams& p) {
  Network net(Network::Params{.seed = p.seed});
  net.UseLogDistanceLoss(p.path_loss_exponent);

  const uint8_t kChannels[] = {1, 6, 11};
  const size_t n_aps = std::clamp<size_t>(p.n_aps, 2, 3);
  std::vector<uint8_t> used_channels;
  for (size_t i = 0; i < n_aps; ++i) {
    used_channels.push_back(kChannels[i % 3]);
  }
  auto sta_tweak = [&](WifiMac::Config& c) {
    c.scan_channels = used_channels;
    c.beacon_loss_limit = 3;
    if (!p.scan_dwell.IsZero()) {
      c.scan_dwell = p.scan_dwell;
    }
  };

  std::vector<Node*> aps;
  for (size_t i = 0; i < n_aps; ++i) {
    aps.push_back(net.AddNode({.role = MacRole::kAp,
                               .standard = PhyStandard::k80211b,
                               .ssid = "ess",
                               .position = {p.spacing * static_cast<double>(i), 0, 0},
                               .channel = used_channels[i]}));
  }
  Node* sta = net.AddNode({.role = MacRole::kSta,
                           .standard = PhyStandard::k80211b,
                           .ssid = "ess",
                           .position = {p.start_x, 0, 0},
                           .channel = used_channels[0],
                           .mac_tweak = sta_tweak});
  if (p.use_arf) {
    sta->SetRateController(std::make_unique<ArfController>(PhyStandard::k80211b));
  }
  sta->SetMobility(std::make_unique<ConstantVelocityMobility>(Vector3{p.start_x, 0, 0},
                                                              Vector3{p.speed, 0, 0}));
  if (p.log_associations) {
    sta->mac().SetAssociationCallback([&net](bool up, MacAddress bssid) {
      std::printf("[%8s] %s %s\n", net.sim().Now().ToString().c_str(),
                  up ? "associated to" : "lost", bssid.ToString().c_str());
    });
  }
  net.StartAll();

  // Uplink CBR addressed to the *serving* AP: because the serving AP changes
  // across handoffs, packets are enqueued toward the current BSSID by a pump.
  // The scheduled events hold only a weak_ptr: the pump (and the references
  // it captures into this stack frame) dies with this scope, not in a
  // shared_ptr cycle.
  TimeSeries delivered(Time::Millis(500));
  auto pump = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_pump = pump;
  Simulator& sim = net.sim();
  FlowStats& stats = net.flow_stats();
  const size_t payload = p.payload;
  const Time pump_interval = p.pump_interval;
  *pump = [&sim, sta, weak_pump, &stats, payload, pump_interval]() {
    if (sta->mac().IsAssociated()) {
      Packet pkt(payload);
      pkt.meta().flow_id = 1;
      pkt.meta().created = sim.Now();
      stats.RecordSent(1, payload, sim.Now());
      sta->mac().Enqueue(std::move(pkt), sta->mac().bssid());
    }
    sim.Schedule(pump_interval, [weak_pump] {
      if (auto p = weak_pump.lock()) {
        (*p)();
      }
    });
  };
  sim.Schedule(Time::Seconds(1), [weak_pump] {
    if (auto p = weak_pump.lock()) {
      (*p)();
    }
  });

  for (Node* ap : aps) {
    ap->SetRxCallback([&delivered, &sim](const Packet& pkt, MacAddress, MacAddress) {
      delivered.Add(sim.Now(), static_cast<double>(pkt.size()));
    });
  }

  net.Run(p.sim_time);

  RoamingResult r;
  r.handoffs = sta->mac().counters().handoffs;
  r.loss_rate = net.flow_stats().LossRate(1);
  double total_bytes = 0;
  for (const auto& bucket : delivered.buckets()) {
    r.delivered_buckets.emplace_back(bucket.start.seconds(), bucket.sum);
    total_bytes += bucket.sum;
  }
  const double elapsed = p.sim_time.seconds() - 1.0;
  r.mean_delivered_kbps = elapsed > 0 ? total_bytes * 8.0 / elapsed / 1000.0 : 0.0;
  return r;
}

}  // namespace wlansim
