#include "runner/builders.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "net/ism_interferer.h"
#include "net/network.h"
#include "net/radios.h"
#include "rate/arf.h"
#include "rate/minstrel.h"
#include "rate/onoe.h"
#include "rate/sample_rate.h"
#include "runner/metric_recorder.h"
#include "stats/time_series.h"

namespace wlansim {
namespace {

constexpr double kPi = 3.14159265358979;

// Traffic starts after this much simulated time; `sim_time_s` is measured
// from there.
constexpr Time kWarmup = Time::Seconds(1);

Time SimTime(const ParamView& params) {
  return Time::Seconds(params.GetDouble("sim_time_s"));
}

// The `standard` and `cipher` spellings; scenarios.cc lists the same ones
// as their parameters' allowed values, so the door check refuses any other.
PhyStandard ParseStandard(const std::string& s) {
  if (s == "11" || s == "802.11") {
    return PhyStandard::k80211;
  }
  if (s == "11b" || s == "802.11b") {
    return PhyStandard::k80211b;
  }
  if (s == "11a" || s == "802.11a") {
    return PhyStandard::k80211a;
  }
  if (s == "11g" || s == "802.11g") {
    return PhyStandard::k80211g;
  }
  throw std::invalid_argument("unknown PHY standard '" + s + "' (use 11/11b/11a/11g)");
}

CipherSuite ParseCipher(const std::string& s) {
  if (s == "open") {
    return CipherSuite::kOpen;
  }
  if (s == "wep") {
    return CipherSuite::kWep;
  }
  if (s == "tkip") {
    return CipherSuite::kTkip;
  }
  if (s == "ccmp") {
    return CipherSuite::kCcmp;
  }
  throw std::invalid_argument("unknown cipher '" + s + "' (use open/wep/tkip/ccmp)");
}

// The rate controller named `name` ("arf", "aarf", "onoe", "samplerate",
// "minstrel"); nullptr for any other name.
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

WifiMode FixedMode(PhyStandard standard, uint64_t rate_index) {
  const auto modes = ModesFor(standard);
  if (rate_index >= modes.size()) {
    throw std::invalid_argument("rate_index " + std::to_string(rate_index) + " out of range: " +
                                ToString(standard) + " has " + std::to_string(modes.size()) +
                                " modes");
  }
  return modes[rate_index];
}

double MeanDelayMs(const FlowStats& stats) {
  uint64_t delay_count = 0;
  double delay_sum = 0;
  for (const auto& [id, flow] : stats.flows()) {
    delay_sum += flow.delay_us.mean() * static_cast<double>(flow.delay_us.count());
    delay_count += flow.delay_us.count();
  }
  return delay_count ? delay_sum / static_cast<double>(delay_count) / 1000.0 : 0.0;
}

// The metric set of a saturated WiFi flow: goodput, loss and mean delay,
// then MAC retries and data attempts summed over `senders`, and the data
// frames the receiving side counted.
ReplicationResult WifiMetrics(double goodput_mbps, double loss_rate, double mean_delay_ms,
                              const std::vector<Node*>& senders, uint64_t rx_ok) {
  uint64_t retries = 0;
  uint64_t tx_attempts = 0;
  for (Node* sta : senders) {
    retries += sta->mac().counters().retries;
    tx_attempts += sta->mac().counters().tx_data_attempts;
  }
  ReplicationResult out;
  out.metrics["goodput_mbps"] = goodput_mbps;
  out.metrics["loss_rate"] = loss_rate;
  out.metrics["mean_delay_ms"] = mean_delay_ms;
  out.metrics["retries"] = static_cast<double>(retries);
  out.metrics["tx_attempts"] = static_cast<double>(tx_attempts);
  out.metrics["rx_ok"] = static_cast<double>(rx_ok);
  return out;
}

// WifiMetrics over every flow of `net`.
ReplicationResult AllFlowMetrics(Network& net, const std::vector<Node*>& senders,
                                 uint64_t rx_ok) {
  const FlowStats& stats = net.flow_stats();
  return WifiMetrics(stats.GoodputMbps(), stats.LossRate(), MeanDelayMs(stats), senders, rx_ok);
}

// Goodput plus the shares of the senders' data attempts that were retries
// and that were dropped at the retry limit.
ReplicationResult RetryMetrics(double goodput_mbps, const std::vector<Node*>& senders) {
  uint64_t retries = 0;
  uint64_t attempts = 0;
  uint64_t drops = 0;
  for (Node* s : senders) {
    retries += s->mac().counters().retries;
    attempts += s->mac().counters().tx_data_attempts;
    drops += s->mac().counters().tx_data_dropped;
  }
  ReplicationResult out;
  out.metrics["goodput_mbps"] = goodput_mbps;
  out.metrics["retry_rate"] =
      attempts ? static_cast<double>(retries) / static_cast<double>(attempts) : 0.0;
  out.metrics["drop_rate"] =
      attempts ? static_cast<double>(drops) / static_cast<double>(attempts) : 0.0;
  out.metrics["drops"] = static_cast<double>(drops);
  return out;
}

// The dense_multi_bss / city_grid topology on `net`: `n_bss` BSSs on a
// square grid `bss_spacing` apart, each with `stas_per_bss` saturated uplink
// stations on a circle of `sta_radius` around its AP. Runs it and returns
// AllFlowMetrics. Flow ids are 1..N in station creation order (BSS by BSS,
// station by station).
ReplicationResult RunBssGrid(Network& net, const ParamView& params) {
  const PhyStandard standard = ParseStandard(params.GetString("standard"));
  const size_t n_bss = std::max<uint64_t>(params.GetUint("n_bss"), 1);
  const uint64_t stas_per_bss = params.GetUint("stas_per_bss");
  const double bss_spacing = params.GetDouble("bss_spacing");
  const double sta_radius = params.GetDouble("sta_radius");
  const size_t payload = params.GetUint("payload");

  const WifiMode fixed = ModesFor(standard).back();
  const size_t side = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n_bss))));
  std::vector<Node*> aps;
  std::vector<Node*> stas;
  for (size_t k = 0; k < n_bss; ++k) {
    const double ap_x = static_cast<double>(k % side) * bss_spacing;
    const double ap_y = static_cast<double>(k / side) * bss_spacing;
    const std::string ssid = "bss" + std::to_string(k);
    aps.push_back(net.AddNode(
        {.role = MacRole::kAp, .standard = standard, .ssid = ssid, .position = {ap_x, ap_y, 0}}));
    for (uint64_t i = 0; i < stas_per_bss; ++i) {
      const double angle = 2.0 * kPi * static_cast<double>(i) /
                           static_cast<double>(std::max<uint64_t>(stas_per_bss, 1));
      Node* sta = net.AddNode({.role = MacRole::kSta,
                               .standard = standard,
                               .ssid = ssid,
                               .position = {ap_x + sta_radius * std::cos(angle),
                                            ap_y + sta_radius * std::sin(angle), 0}});
      sta->SetRateController(std::make_unique<FixedRateController>(fixed));
      stas.push_back(sta);
    }
  }
  net.StartAll();

  for (size_t i = 0; i < stas.size(); ++i) {
    Node* ap = aps[i / stas_per_bss];
    stas[i]
        ->AddTraffic<SaturatedTraffic>(ap->address(), static_cast<uint32_t>(i + 1), payload)
        ->Start(kWarmup);
  }
  net.Run(kWarmup + SimTime(params));

  uint64_t rx_ok = 0;
  for (Node* ap : aps) {
    rx_ok += ap->mac().counters().rx_data;
  }
  return AllFlowMetrics(net, stas, rx_ok);
}

}  // namespace

ReplicationResult RunSaturation(const ParamView& params, const ReplicationContext& ctx) {
  const PhyStandard standard = ParseStandard(params.GetString("standard"));
  const CipherSuite cipher = ParseCipher(params.GetString("cipher"));
  const uint64_t n_stas = params.GetUint("n_stas");
  const size_t payload = params.GetUint("payload");
  const double distance = params.GetDouble("distance");
  const auto rts_threshold = static_cast<uint32_t>(params.GetUint("rts_threshold"));
  const int64_t rate_index = params.GetInt("rate_index");  // -1 = highest

  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);

  std::vector<uint8_t> key(16, 0x42);
  auto mac_tweak = [&](WifiMac::Config& c) {
    c.rts_threshold = rts_threshold;
    if (cipher != CipherSuite::kOpen) {
      c.cipher = cipher;
      c.cipher_key = cipher == CipherSuite::kWep ? std::vector<uint8_t>(13, 0x42) : key;
    }
  };

  Node* ap = net.AddNode(
      {.role = MacRole::kAp, .standard = standard, .ssid = "bench", .mac_tweak = mac_tweak});
  const WifiMode fixed = rate_index == -1 ? ModesFor(standard).back()
                                         : FixedMode(standard, static_cast<uint64_t>(rate_index));

  std::vector<Node*> stas;
  for (uint64_t i = 0; i < n_stas; ++i) {
    // Stations on a circle around the AP.
    const double angle =
        2.0 * kPi * static_cast<double>(i) / static_cast<double>(std::max<uint64_t>(n_stas, 1));
    Node* sta = net.AddNode({.role = MacRole::kSta,
                             .standard = standard,
                             .ssid = "bench",
                             .position = {distance * std::cos(angle),
                                          distance * std::sin(angle), 0},
                             .mac_tweak = mac_tweak});
    sta->SetRateController(std::make_unique<FixedRateController>(fixed));
    stas.push_back(sta);
  }
  net.StartAll();

  for (size_t i = 0; i < stas.size(); ++i) {
    stas[i]
        ->AddTraffic<SaturatedTraffic>(ap->address(), static_cast<uint32_t>(i + 1), payload)
        ->Start(kWarmup);
  }
  net.Run(kWarmup + SimTime(params));
  return AllFlowMetrics(net, stas, ap->mac().counters().rx_data);
}

ReplicationResult RunHiddenTerminal(const ParamView& params, const ReplicationContext& ctx) {
  const bool hidden = params.GetBool("hidden");
  const bool rtscts = params.GetBool("rtscts");
  const size_t payload = params.GetUint("payload");

  Network net(Network::Params{.seed = ctx.seed});
  MatrixLossModel* loss = net.UseMatrixLoss(200.0);

  auto mac_tweak = [rtscts](WifiMac::Config& c) { c.rts_threshold = rtscts ? 400 : 65535; };
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
  loss->SetLoss(1, 2, hidden ? 200.0 : 70.0);  // sender-sender link

  const WifiMode mode = ModesFor(PhyStandard::k80211b).back();
  a->SetRateController(std::make_unique<FixedRateController>(mode));
  b->SetRateController(std::make_unique<FixedRateController>(mode));
  net.StartAll();
  a->AddTraffic<SaturatedTraffic>(receiver->address(), 1, payload)->Start(kWarmup);
  b->AddTraffic<SaturatedTraffic>(receiver->address(), 2, payload)->Start(kWarmup);
  net.Run(kWarmup + SimTime(params));

  ReplicationResult out = RetryMetrics(net.flow_stats().GoodputMbps(), {a, b});
  out.metrics["cts_timeouts"] =
      static_cast<double>(a->mac().counters().cts_timeouts + b->mac().counters().cts_timeouts);
  return out;
}

ReplicationResult RunEdca(const ParamView& params, const ReplicationContext& ctx) {
  const bool qos = params.GetBool("qos");
  const uint64_t bulk_stations = params.GetUint("bulk_stations");

  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);
  auto tweak = [qos](WifiMac::Config& c) { c.qos_enabled = qos; };
  Node* ap = net.AddNode(
      {.role = MacRole::kAp, .standard = PhyStandard::k80211b, .mac_tweak = tweak});
  const WifiMode m = ModesFor(PhyStandard::k80211b).back();

  Node* phone = net.AddNode({.role = MacRole::kSta,
                             .standard = PhyStandard::k80211b,
                             .position = {5, 5, 0},
                             .mac_tweak = tweak});
  phone->SetRateController(std::make_unique<FixedRateController>(m));

  std::vector<Node*> bulk;
  for (uint64_t i = 0; i < bulk_stations; ++i) {
    const double angle = 2.0 * kPi * static_cast<double>(i) /
                         static_cast<double>(std::max<uint64_t>(bulk_stations, 1));
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
  voice->Start(kWarmup);
  for (size_t i = 0; i < bulk.size(); ++i) {
    auto* app =
        bulk[i]->AddTraffic<SaturatedTraffic>(ap->address(), static_cast<uint32_t>(i + 2), 1500);
    app->SetPriority(1);  // AC_BK
    app->Start(kWarmup);
  }
  net.Run(kWarmup + SimTime(params));

  const FlowStats& stats = net.flow_stats();
  const auto* flow = stats.Find(1);
  double bulk_mbps = 0.0;
  for (size_t i = 0; i < bulk.size(); ++i) {
    bulk_mbps += stats.GoodputMbps(static_cast<uint32_t>(i + 2));
  }
  ReplicationResult out;
  out.metrics["voice_delay_ms"] = flow != nullptr ? flow->delay_us.mean() / 1000.0 : 0.0;
  out.metrics["voice_jitter_ms"] = flow != nullptr ? flow->jitter_us / 1000.0 : 0.0;
  out.metrics["voice_loss_rate"] = stats.LossRate(1);
  out.metrics["bulk_mbps"] = bulk_mbps;
  return out;
}

ReplicationResult RunRateVsDistance(const ParamView& params, const ReplicationContext& ctx) {
  const PhyStandard standard = ParseStandard(params.GetString("standard"));
  const std::string controller = params.GetString("controller");  // "" = fixed rate

  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);
  if (params.GetBool("fading")) {
    net.UseRayleighFading();
  }
  Node* ap = net.AddNode({.role = MacRole::kAp, .standard = standard, .ssid = "f1"});
  Node* sta = net.AddNode({.role = MacRole::kSta,
                           .standard = standard,
                           .ssid = "f1",
                           .position = {params.GetDouble("distance"), 0, 0}});
  if (controller.empty()) {
    sta->SetRateController(
        std::make_unique<FixedRateController>(FixedMode(standard, params.GetUint("rate_index"))));
  } else {
    auto rc = MakeRateController(controller, standard, net.ForkRng("rate"));
    if (rc == nullptr) {
      throw std::invalid_argument("unknown rate controller '" + controller + "'");
    }
    sta->SetRateController(std::move(rc));
  }
  net.StartAll();
  sta->AddTraffic<SaturatedTraffic>(ap->address(), 1, params.GetUint("payload"))->Start(kWarmup);
  net.Run(kWarmup + SimTime(params));
  return AllFlowMetrics(net, {sta}, ap->mac().counters().rx_data);
}

ReplicationResult RunDenseMultiBss(const ParamView& params, const ReplicationContext& ctx) {
  // The fairness view of the dense grid: a histogram over each station's
  // achieved goodput, recorded through the richer metric channel so the
  // result store keeps the full distribution and the scalar rows gain
  // per_sta_mbps_{p10,p50,p90,mean,min,max}. Opt-in (sta_hist=true) so the
  // default column set, and therefore every historical CSV, is unchanged.
  const bool sta_hist = params.GetBool("sta_hist") && ctx.recorder != nullptr;
  const double hist_max = params.GetDouble("sta_hist_max");
  if (sta_hist && hist_max <= 0.0) {
    throw std::invalid_argument("sta_hist_max must be > 0");
  }

  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);
  ReplicationResult out = RunBssGrid(net, params);
  if (sta_hist) {
    ctx.recorder->DeclareHistogram("per_sta_mbps", 0.0, hist_max / 64.0, 64);
    // RunBssGrid numbers the flows 1..N in station order.
    const uint64_t n_stas =
        std::max<uint64_t>(params.GetUint("n_bss"), 1) * params.GetUint("stas_per_bss");
    for (uint64_t f = 1; f <= n_stas; ++f) {
      ctx.recorder->AddHistogramSample("per_sta_mbps",
                                       net.flow_stats().GoodputMbps(static_cast<uint32_t>(f)));
    }
  }
  return out;
}

ReplicationResult RunCityGrid(const ParamView& params, const ReplicationContext& ctx) {
  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);  // no shadowing: the grid needs a bounded radius
  net.SetRxCutoffDbm(params.GetDouble("cutoff_dbm"));
  ReplicationResult out = RunBssGrid(net, params);
  // Only channel totals fixed by the topology and the cutoff are metrics;
  // the grid's work counters (candidates visited, grid rebuilds) depend on
  // how it prunes and stay out of the output.
  const Channel::SendStats& cs = net.channel().send_stats();
  out.metrics["channel_sends"] = static_cast<double>(cs.sends);
  out.metrics["channel_offers"] = static_cast<double>(cs.offers);
  out.metrics["offers_per_send"] =
      cs.sends == 0 ? 0.0 : static_cast<double>(cs.offers) / static_cast<double>(cs.sends);
  return out;
}

ReplicationResult RunIsmInterference(const ParamView& params, const ReplicationContext& ctx) {
  const PhyStandard standard = ParseStandard(params.GetString("standard"));
  const double oven_distance = params.GetDouble("oven_distance");

  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);
  Node* rx = net.AddNode({.role = MacRole::kAdhoc, .standard = standard});
  Node* tx = net.AddNode({.role = MacRole::kAdhoc, .standard = standard, .position = {12, 0, 0}});
  tx->SetRateController(std::make_unique<FixedRateController>(ModesFor(standard).back()));
  net.StartAll();

  std::unique_ptr<MicrowaveOven> oven;
  if (oven_distance > 0) {
    MicrowaveOven::Config oc;
    oc.position = {-oven_distance, 0, 0};
    oc.channel_number = 1;  // the oven lives in the 2.4 GHz band
    oven = std::make_unique<MicrowaveOven>(&net.sim(), &net.channel(), 99, oc);
    oven->Start(Time::Millis(500));
  }
  // 802.11a rides channel 36 (5 GHz): out of the oven's band.
  if (standard == PhyStandard::k80211a) {
    rx->phy().SetChannelNumber(36);
    tx->phy().SetChannelNumber(36);
  }

  tx->AddTraffic<SaturatedTraffic>(rx->address(), 1, 1200)->Start(kWarmup);
  net.Run(kWarmup + SimTime(params));
  return WifiMetrics(net.flow_stats().GoodputMbps(1), net.flow_stats().LossRate(1), 0.0, {tx},
                     rx->packets_received());
}

ReplicationResult RunSensorCoexistence(const ParamView& params, const ReplicationContext& ctx) {
  constexpr double kStaDistance = 10.0;
  const PhyStandard standard = ParseStandard(params.GetString("standard"));
  const uint64_t n_stas = params.GetUint("n_stas");
  const uint64_t n_sensors = params.GetUint("n_sensors");
  const double sensor_radius = params.GetDouble("sensor_radius");
  const double cluster_offset = params.GetDouble("cluster_offset");  // sink's x-offset from the AP
  const Time report_interval =
      Time::Millis(static_cast<int64_t>(params.GetDouble("report_interval_ms")));
  const size_t payload = params.GetUint("payload");

  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);

  // The WiFi BSS: AP at the origin, saturated uplink stations on a circle.
  Node* ap = net.AddNode({.role = MacRole::kAp, .standard = standard, .ssid = "coex"});
  const WifiMode fixed = ModesFor(standard).back();
  std::vector<Node*> stas;
  for (uint64_t i = 0; i < n_stas; ++i) {
    const double angle =
        2.0 * kPi * static_cast<double>(i) / static_cast<double>(std::max<uint64_t>(n_stas, 1));
    Node* sta = net.AddNode({.role = MacRole::kSta,
                             .standard = standard,
                             .ssid = "coex",
                             .position = {kStaDistance * std::cos(angle),
                                          kStaDistance * std::sin(angle), 0}});
    sta->SetRateController(std::make_unique<FixedRateController>(fixed));
    stas.push_back(sta);
  }
  net.StartAll();

  // The sensor cluster: a silent sink offset from the AP, reporters on a
  // circle around it. Node ids start at 200 to stay clear of the BSS.
  SensorRadio::Config sink_cfg;
  sink_cfg.position = {cluster_offset, 0, 0};
  SensorRadio sink(&net.sim(), &net.channel(), 200, sink_cfg);
  std::vector<std::unique_ptr<SensorRadio>> sensors;
  for (uint64_t i = 0; i < n_sensors; ++i) {
    const double angle = 2.0 * kPi * static_cast<double>(i) /
                         static_cast<double>(std::max<uint64_t>(n_sensors, 1));
    SensorRadio::Config sc;
    sc.position = {cluster_offset + sensor_radius * std::cos(angle),
                   sensor_radius * std::sin(angle), 0};
    sensors.push_back(std::make_unique<SensorRadio>(&net.sim(), &net.channel(),
                                                    static_cast<uint32_t>(201 + i), sc));
    sensors.back()->StartReporting(kWarmup, report_interval);
  }

  std::unique_ptr<LoraInterferer> jammer;
  if (params.GetBool("with_jammer")) {
    LoraInterferer::Config jc;
    jc.position = {cluster_offset, sensor_radius, 0};  // inside the cluster
    jc.duty_pct = params.GetDouble("jammer_duty_pct");
    jammer = std::make_unique<LoraInterferer>(&net.sim(), &net.channel(), 250, jc);
    jammer->Start(kWarmup);
  }

  for (size_t i = 0; i < stas.size(); ++i) {
    stas[i]
        ->AddTraffic<SaturatedTraffic>(ap->address(), static_cast<uint32_t>(i + 1), payload)
        ->Start(kWarmup);
  }
  net.Run(kWarmup + SimTime(params));

  ReplicationResult out = AllFlowMetrics(net, stas, ap->mac().counters().rx_data);
  uint64_t reports_sent = 0;
  uint64_t csma_deferrals = 0;
  uint64_t csma_drops = 0;
  for (const auto& s : sensors) {
    reports_sent += s->counters().reports_sent;
    csma_deferrals += s->counters().csma_deferrals;
    csma_drops += s->counters().csma_drops;
  }
  const uint64_t sink_rx_ok = sink.counters().rx_ok;
  out.metrics["sensor_reports_sent"] = static_cast<double>(reports_sent);
  out.metrics["sensor_rx_ok"] = static_cast<double>(sink_rx_ok);
  out.metrics["sensor_rx_lost_sinr"] = static_cast<double>(sink.counters().rx_lost_sinr);
  out.metrics["sensor_csma_deferrals"] = static_cast<double>(csma_deferrals);
  out.metrics["sensor_csma_drops"] = static_cast<double>(csma_drops);
  out.metrics["sensor_delivery_ratio"] =
      reports_sent == 0 ? 0.0
                        : static_cast<double>(sink_rx_ok) / static_cast<double>(reports_sent);
  out.metrics["jammer_chirps"] = static_cast<double>(jammer ? jammer->chirps_emitted() : 0);
  return out;
}

ReplicationResult RunLoraCoexistence(const ParamView& params, const ReplicationContext& ctx) {
  const PhyStandard standard = ParseStandard(params.GetString("standard"));
  const Time airtime = Time::Millis(static_cast<int64_t>(params.GetDouble("airtime_ms")));
  const Time sim_time = SimTime(params);

  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);
  Node* rx = net.AddNode({.role = MacRole::kAdhoc, .standard = standard});
  Node* tx = net.AddNode({.role = MacRole::kAdhoc, .standard = standard, .position = {12, 0, 0}});
  tx->SetRateController(std::make_unique<FixedRateController>(ModesFor(standard).back()));
  net.StartAll();

  LoraInterferer::Config jc;
  jc.position = {-params.GetDouble("jammer_distance"), 0, 0};
  jc.duty_pct = params.GetDouble("duty_pct");
  jc.airtime = airtime;
  LoraInterferer jammer(&net.sim(), &net.channel(), 99, jc);
  jammer.Start(Time::Millis(500));

  tx->AddTraffic<SaturatedTraffic>(rx->address(), 1, 1200)->Start(kWarmup);
  net.Run(kWarmup + sim_time);

  ReplicationResult out = WifiMetrics(net.flow_stats().GoodputMbps(1),
                                      net.flow_stats().LossRate(1), 0.0, {tx},
                                      rx->packets_received());
  const auto chirps = static_cast<double>(jammer.chirps_emitted());
  out.metrics["jammer_chirps"] = chirps;
  out.metrics["jammer_airtime_share"] = chirps * airtime.seconds() / sim_time.seconds();
  return out;
}

ReplicationResult RunAdhocVsInfra(const ParamView& params, const ReplicationContext& ctx) {
  constexpr size_t kPayload = 1000;
  const Time interval = Time::Millis(4);  // 2 Mb/s offered per flow
  const bool adhoc = params.GetBool("adhoc");
  const uint64_t n_pairs = params.GetUint("n_pairs");

  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);
  const WifiMode kFull = ModesFor(PhyStandard::k80211b).back();
  if (!adhoc) {
    Node* ap =
        net.AddNode({.role = MacRole::kAp, .standard = PhyStandard::k80211b, .ssid = "f6"});
    ap->SetRateController(std::make_unique<FixedRateController>(kFull));
  }
  std::vector<Node*> nodes;
  for (uint64_t i = 0; i < 2 * n_pairs; ++i) {
    const double angle = 2.0 * kPi * static_cast<double>(i) / static_cast<double>(2 * n_pairs);
    nodes.push_back(net.AddNode({.role = adhoc ? MacRole::kAdhoc : MacRole::kSta,
                                 .standard = PhyStandard::k80211b,
                                 .ssid = "f6",
                                 .position = {12 * std::cos(angle), 12 * std::sin(angle), 0}}));
    nodes.back()->SetRateController(std::make_unique<FixedRateController>(kFull));
  }
  net.StartAll();
  for (uint64_t i = 0; i < n_pairs; ++i) {
    Node* src = nodes[2 * i];
    Node* dst = nodes[2 * i + 1];
    auto* app = src->AddTraffic<CbrTraffic>(dst->address(), static_cast<uint32_t>(i + 1),
                                            kPayload, interval);
    app->Start(kWarmup + Time::Micros(static_cast<int64_t>(137 * i)));
  }
  net.Run(kWarmup + SimTime(params));

  ReplicationResult out;
  out.metrics["offered_mbps"] =
      static_cast<double>(n_pairs) * kPayload * 8.0 / interval.seconds() / 1e6;
  out.metrics["delivered_mbps"] = net.flow_stats().GoodputMbps();
  out.metrics["mean_delay_ms"] = MeanDelayMs(net.flow_stats());
  return out;
}

ReplicationResult RunCoexistence(const ParamView& params, const ReplicationContext& ctx) {
  const bool protection = params.GetBool("protection");

  Network net(Network::Params{.seed = ctx.seed});
  net.UseLogDistanceLoss(3.0);
  auto g_tweak = [protection](WifiMac::Config& c) { c.cts_to_self_protection = protection; };

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
  if (params.GetBool("with_b_sta")) {
    b_sta = net.AddNode({.role = MacRole::kSta,
                         .standard = PhyStandard::k80211b,
                         .ssid = "mix",
                         .position = {-35, 0, 0}});  // beyond ED range of the g STA
    b_sta->SetRateController(
        std::make_unique<FixedRateController>(ModesFor(PhyStandard::k80211b).back()));
  }
  net.StartAll();
  g_sta->AddTraffic<SaturatedTraffic>(ap->address(), 1, 1500)->Start(kWarmup);
  if (b_sta != nullptr) {
    b_sta->AddTraffic<SaturatedTraffic>(ap->address(), 2, 1500)->Start(kWarmup);
  }
  net.Run(kWarmup + SimTime(params));

  const double g_mbps = net.flow_stats().GoodputMbps(1);
  const double b_mbps = net.flow_stats().GoodputMbps(2);
  ReplicationResult out;
  out.metrics["g_sta_mbps"] = g_mbps;
  out.metrics["b_sta_mbps"] = b_mbps;
  out.metrics["agg_mbps"] = g_mbps + b_mbps;
  return out;
}

ReplicationResult RunFragmentation(const ParamView& params, const ReplicationContext& ctx) {
  const auto frag_threshold = static_cast<uint32_t>(params.GetUint("frag_threshold"));

  Network net(Network::Params{.seed = ctx.seed});
  MatrixLossModel* loss = net.UseMatrixLoss(200.0);

  auto frag = [frag_threshold](WifiMac::Config& c) {
    c.frag_threshold = frag_threshold;
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
  if (params.GetBool("jammed")) {
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
  tx->AddTraffic<SaturatedTraffic>(rx->address(), 1, 2000)->Start(kWarmup);
  if (jammer != nullptr) {
    // Poisson bursts: 400 B broadcasts (~480 us air) at 250/s — ~12 % duty,
    // arrivals memoryless so fragment retries re-roll the overlap dice.
    jammer->SetRateController(
        std::make_unique<FixedRateController>(ModesFor(PhyStandard::k80211b).back()));
    jammer
        ->AddTraffic<PoissonTraffic>(MacAddress::Broadcast(), 99, 400, 250.0,
                                     net.ForkRng("jam"))
        ->Start(kWarmup);
  }
  net.Run(kWarmup + SimTime(params));
  return RetryMetrics(net.flow_stats().GoodputMbps(1), {tx});
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
