// The built-in scenario table: every canonical topology from the paper's
// experiment set, registered by name so campaigns, benches and examples all
// run the same code. Each entry maps ScenarioParams onto the corresponding
// builder struct and flattens the result into named metrics.

#include <stdexcept>

#include "core/random.h"
#include "runner/builders.h"
#include "runner/metric_recorder.h"
#include "runner/scenario_registry.h"

namespace wlansim {
namespace {

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

ReplicationResult FromRunResult(const RunResult& r) {
  ReplicationResult out;
  out.metrics["goodput_mbps"] = r.goodput_mbps;
  out.metrics["loss_rate"] = r.loss_rate;
  out.metrics["mean_delay_ms"] = r.mean_delay_ms;
  out.metrics["retries"] = static_cast<double>(r.retries);
  out.metrics["tx_attempts"] = static_cast<double>(r.tx_attempts);
  out.metrics["rx_ok"] = static_cast<double>(r.rx_ok);
  return out;
}

void RegisterSaturation(ScenarioRegistry& r) {
  r.Register(
      "saturation", "Saturated uplink BSS: n backlogged stations on a circle around one AP",
      {{"standard", "11b", "PHY standard: 11/11b/11a/11g"},
       {"n_stas", "1", "number of saturated stations"},
       {"payload", "1500", "MSDU payload bytes"},
       {"distance", "10", "station-AP distance in metres"},
       {"rts_threshold", "65535", "RTS/CTS threshold in bytes (65535 = off)"},
       {"cipher", "open", "link cipher: open/wep/tkip/ccmp"},
       {"rate_index", "-1", "fixed rate index into the standard's mode table (-1 = highest)"},
       {"sim_time_s", "6", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        SaturationParams p;
        p.standard = ParseStandard(params.GetString("standard", "11b"));
        p.n_stas = static_cast<size_t>(params.GetUint("n_stas", 1));
        p.payload = static_cast<size_t>(params.GetUint("payload", 1500));
        p.distance = params.GetDouble("distance", 10.0);
        p.rts_threshold = static_cast<uint32_t>(params.GetUint("rts_threshold", 65535));
        p.cipher = ParseCipher(params.GetString("cipher", "open"));
        const int64_t rate_index = params.GetInt("rate_index", -1);
        p.rate_index = rate_index < 0 ? SIZE_MAX : static_cast<size_t>(rate_index);
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 6.0));
        p.seed = ctx.seed;
        return FromRunResult(RunSaturationScenario(p));
      });
}

void RegisterHiddenTerminal(ScenarioRegistry& r) {
  r.Register(
      "hidden_terminal",
      "Two senders that cannot hear each other sharing one receiver (matrix loss)",
      {{"hidden", "true", "remove the sender-sender link"},
       {"rtscts", "false", "enable the RTS/CTS handshake"},
       {"payload", "1500", "MSDU payload bytes"},
       {"sim_time_s", "6", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        HiddenTerminalParams p;
        p.hidden = params.GetBool("hidden", true);
        p.rtscts = params.GetBool("rtscts", false);
        p.payload = static_cast<size_t>(params.GetUint("payload", 1500));
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 6.0));
        p.seed = ctx.seed;
        const HiddenTerminalResult res = RunHiddenTerminalScenario(p);
        ReplicationResult out;
        out.metrics["goodput_mbps"] = res.goodput_mbps;
        out.metrics["retry_rate"] = res.retry_rate;
        out.metrics["drop_rate"] = res.drop_rate;
        out.metrics["cts_timeouts"] = static_cast<double>(res.cts_timeouts);
        out.metrics["drops"] = static_cast<double>(res.drops);
        return out;
      });
}

void RegisterEdca(ScenarioRegistry& r) {
  r.Register(
      "edca", "A VoIP flow (AC_VO) vs k saturating bulk uploaders (AC_BK), QoS on or off",
      {{"qos", "true", "enable 802.11e EDCA"},
       {"bulk_stations", "3", "number of saturating AC_BK stations"},
       {"sim_time_s", "6", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        EdcaQosParams p;
        p.qos = params.GetBool("qos", true);
        p.bulk_stations = static_cast<size_t>(params.GetUint("bulk_stations", 3));
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 6.0));
        p.seed = ctx.seed;
        const EdcaQosResult res = RunEdcaScenario(p);
        ReplicationResult out;
        out.metrics["voice_delay_ms"] = res.voice_delay_ms;
        out.metrics["voice_jitter_ms"] = res.voice_jitter_ms;
        out.metrics["voice_loss_rate"] = res.voice_loss;
        out.metrics["bulk_mbps"] = res.bulk_mbps;
        return out;
      });
}

void RegisterCityGrid(ScenarioRegistry& r) {
  r.Register(
      "city_grid",
      "City-scale co-channel BSS grid spread beyond one interference radius; "
      "exercises the channel's reception cutoff and spatial receiver grid",
      {{"standard", "11b", "PHY standard: 11/11b/11a/11g"},
       {"n_bss", "9", "number of co-channel BSSs on a square grid"},
       {"stas_per_bss", "2", "saturated stations per BSS"},
       {"bss_spacing", "120", "AP grid spacing in metres"},
       {"sta_radius", "10", "station-AP distance in metres"},
       {"cutoff_dbm", "-100", "reception cutoff in dBm"},
       {"spatial", "false",
        "ignored: the channel always uses its spatial receiver grid (parsed for "
        "old command lines; removed with the next benchmark change)"},
       {"payload", "1000", "MSDU payload bytes"},
       {"sim_time_s", "2", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        CityGridParams p;
        p.standard = ParseStandard(params.GetString("standard", "11b"));
        p.n_bss = static_cast<size_t>(params.GetUint("n_bss", 9));
        p.stas_per_bss = static_cast<size_t>(params.GetUint("stas_per_bss", 2));
        p.bss_spacing = params.GetDouble("bss_spacing", 120.0);
        p.sta_radius = params.GetDouble("sta_radius", 10.0);
        p.cutoff_dbm = params.GetDouble("cutoff_dbm", -100.0);
        params.GetBool("spatial", false);  // parsed so a malformed value still errors
        p.payload = static_cast<size_t>(params.GetUint("payload", 1000));
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 2.0));
        p.seed = ctx.seed;
        const CityGridResult res = RunCityGridScenario(p);
        ReplicationResult out = FromRunResult(res.run);
        // Only channel totals fixed by the topology and the cutoff are CSV
        // metrics; the grid's work counters (candidates visited, grid
        // rebuilds) depend on how it prunes and stay out of the output.
        out.metrics["channel_sends"] = static_cast<double>(res.channel_sends);
        out.metrics["channel_offers"] = static_cast<double>(res.channel_offers);
        out.metrics["offers_per_send"] =
            res.channel_sends == 0
                ? 0.0
                : static_cast<double>(res.channel_offers) / static_cast<double>(res.channel_sends);
        return out;
      });
}

void RegisterRateVsDistance(ScenarioRegistry& r) {
  r.Register(
      "rate_vs_distance",
      "Single saturated link at a given distance, fixed rate or a rate-control algorithm",
      {{"standard", "11b", "PHY standard: 11/11b/11a/11g"},
       {"distance", "60", "link distance in metres"},
       {"controller", "", "rate controller: arf/aarf/onoe/samplerate/minstrel (empty = fixed)"},
       {"rate_index", "0", "fixed rate index (when controller is empty)"},
       {"fading", "false", "apply per-frame Rayleigh block fading"},
       {"payload", "1200", "MSDU payload bytes"},
       {"sim_time_s", "4", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        LinkParams p;
        p.standard = ParseStandard(params.GetString("standard", "11b"));
        p.distance = params.GetDouble("distance", 60.0);
        p.controller = params.GetString("controller", "");
        p.rate_index = static_cast<size_t>(params.GetUint("rate_index", 0));
        p.rayleigh_fading = params.GetBool("fading", false);
        p.payload = static_cast<size_t>(params.GetUint("payload", 1200));
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 4.0));
        p.seed = ctx.seed;
        return FromRunResult(RunLinkScenario(p));
      });
}

void RegisterDenseMultiBss(ScenarioRegistry& r) {
  r.Register(
      "dense_multi_bss",
      "Dense co-channel multi-BSS grid: n APs with m saturated uplink stations each",
      {{"standard", "11b", "PHY standard: 11/11b/11a/11g"},
       {"n_bss", "3", "number of co-channel BSSs on a square grid"},
       {"stas_per_bss", "4", "saturated stations per BSS"},
       {"bss_spacing", "25", "AP grid spacing in metres"},
       {"sta_radius", "8", "station-AP distance in metres"},
       {"payload", "1000", "MSDU payload bytes"},
       {"sta_hist", "false",
        "record the per-station goodput histogram (adds per_sta_mbps_* fairness metrics)"},
       {"sta_hist_max", "8", "per-station histogram range upper bound in Mb/s (64 bins)"},
       {"sim_time_s", "4", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        DenseMultiBssParams p;
        p.standard = ParseStandard(params.GetString("standard", "11b"));
        p.n_bss = static_cast<size_t>(params.GetUint("n_bss", 3));
        p.stas_per_bss = static_cast<size_t>(params.GetUint("stas_per_bss", 4));
        p.bss_spacing = params.GetDouble("bss_spacing", 25.0);
        p.sta_radius = params.GetDouble("sta_radius", 8.0);
        p.payload = static_cast<size_t>(params.GetUint("payload", 1000));
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 4.0));
        p.seed = ctx.seed;
        const DenseMultiBssResult res = RunDenseMultiBssScenario(p);
        // The fairness view of the dense grid: a histogram over each
        // station's achieved goodput, recorded through the richer metric
        // channel so the result store keeps the full distribution and the scalar
        // rows gain per_sta_mbps_{p10,p50,p90,mean,min,max}. Opt-in
        // (sta_hist=true) so the default column set — and therefore every
        // historical CSV — is unchanged.
        if (params.GetBool("sta_hist", false) && ctx.recorder != nullptr) {
          const double hist_max = params.GetDouble("sta_hist_max", 8.0);
          if (hist_max <= 0.0) {
            throw std::invalid_argument("sta_hist_max must be > 0");
          }
          ctx.recorder->DeclareHistogram("per_sta_mbps", 0.0, hist_max / 64.0, 64);
          for (const double mbps : res.per_sta_mbps) {
            ctx.recorder->AddHistogramSample("per_sta_mbps", mbps);
          }
        }
        return FromRunResult(res.run);
      });
}

void RegisterPipelineProbe(ScenarioRegistry& r) {
  r.Register(
      "pipeline_probe",
      "Synthetic microsecond-scale scenario: deterministic pseudo-random metrics, no simulation",
      {{"n_metrics", "3", "number of value_<k> metrics emitted per replication"},
       {"samples", "64", "uniform draws averaged into each metric"},
       {"gauge", "false", "also stream the draws through a recorder gauge (latency_us_*)"},
       {"counters", "0", "count-style count_<c> metrics: integral, ~1e7 base with a small "
                         "per-replication jitter (the shape packet/byte counters have)"},
       {"hist", "false", "also record the draws into a fixed-bin latency_hist histogram"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        // Exists for the results pipeline itself: a 10^4..10^6-replication
        // campaign of it runs in seconds, so CI can gate streaming-mode
        // determinism and row counts at scale without burning minutes of
        // simulated airtime. Metrics are a pure function of ctx.seed.
        const uint64_t n_metrics = params.GetUint("n_metrics", 3);
        const uint64_t samples = params.GetUint("samples", 64);
        const bool gauge = params.GetBool("gauge", false);
        const uint64_t counters = params.GetUint("counters", 0);
        const bool hist = params.GetBool("hist", false);
        Rng rng(ctx.seed);
        ReplicationResult out;
        if (hist && ctx.recorder != nullptr) {
          ctx.recorder->DeclareHistogram("latency_hist", 0.0, 25.0, 40);
        }
        for (uint64_t k = 0; k < n_metrics; ++k) {
          double sum = 0.0;
          for (uint64_t s = 0; s < samples; ++s) {
            const double draw = rng.NextDouble();
            sum += draw;
            if (gauge && ctx.recorder != nullptr) {
              ctx.recorder->AddSample("latency_us", 1e3 * draw);
            }
            if (hist && ctx.recorder != nullptr) {
              ctx.recorder->AddHistogramSample("latency_hist", 1e3 * draw);
            }
          }
          out.metrics["value_" + std::to_string(k)] =
              samples > 0 ? sum / static_cast<double>(samples) : 0.0;
        }
        // Counter draws come after the value draws, so enabling them never
        // perturbs the value_<k> sequences existing gates pin down.
        for (uint64_t c = 0; c < counters; ++c) {
          const double jitter = std::floor(rng.NextDouble() * 31.0) - 15.0;
          out.metrics["count_" + std::to_string(c)] =
              1.0e7 + 100.0 * static_cast<double>(c) + jitter;
        }
        out.metrics["seed_mod"] = static_cast<double>(ctx.seed % 1000003);
        return out;
      });
}

void RegisterIsmInterference(ScenarioRegistry& r) {
  r.Register(
      "ism_interference",
      "A saturated 12 m link sharing the band with a microwave oven at a given distance",
      {{"standard", "11b", "PHY standard (11a moves to 5 GHz and is immune)"},
       {"oven_distance", "3", "oven-receiver distance in metres (0 = no oven)"},
       {"sim_time_s", "6", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        IsmParams p;
        p.standard = ParseStandard(params.GetString("standard", "11b"));
        p.oven_distance = params.GetDouble("oven_distance", 3.0);
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 6.0));
        p.seed = ctx.seed;
        return FromRunResult(RunIsmInterferenceScenario(p));
      });
}

void RegisterSensorCoexistence(ScenarioRegistry& r) {
  r.Register(
      "sensor_coexistence",
      "Heterogeneous coexistence: a WiFi BSS, an 802.15.4-style sensor cluster and an "
      "optional LoRa-like jammer sharing one 2.4 GHz channel",
      {{"standard", "11b", "WiFi PHY standard: 11/11b/11a/11g"},
       {"n_stas", "1", "saturated WiFi uplink stations"},
       {"n_sensors", "4", "sensor radios reporting to the sink"},
       {"sensor_radius", "6", "reporter-sink distance in metres"},
       {"cluster_offset", "5", "sink's distance from the AP in metres"},
       {"report_interval_ms", "25", "sensor report period in milliseconds"},
       {"with_jammer", "false", "add a duty-cycled LoRa-like interferer to the cluster"},
       {"jammer_duty_pct", "5", "jammer on-air share in percent"},
       {"payload", "1000", "WiFi MSDU payload bytes"},
       {"sim_time_s", "4", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        SensorCoexistenceParams p;
        p.standard = ParseStandard(params.GetString("standard", "11b"));
        p.n_stas = static_cast<size_t>(params.GetUint("n_stas", 1));
        p.n_sensors = static_cast<size_t>(params.GetUint("n_sensors", 4));
        p.sensor_radius = params.GetDouble("sensor_radius", 6.0);
        p.cluster_offset = params.GetDouble("cluster_offset", 5.0);
        p.report_interval = Time::Millis(
            static_cast<int64_t>(params.GetDouble("report_interval_ms", 25.0)));
        p.with_jammer = params.GetBool("with_jammer", false);
        p.jammer_duty_pct = params.GetDouble("jammer_duty_pct", 5.0);
        p.payload = static_cast<size_t>(params.GetUint("payload", 1000));
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 4.0));
        p.seed = ctx.seed;
        const SensorCoexistenceResult res = RunSensorCoexistenceScenario(p);
        ReplicationResult out = FromRunResult(res.wifi);
        out.metrics["sensor_reports_sent"] = static_cast<double>(res.sensor_reports_sent);
        out.metrics["sensor_rx_ok"] = static_cast<double>(res.sensor_rx_ok);
        out.metrics["sensor_rx_lost_sinr"] = static_cast<double>(res.sensor_rx_lost_sinr);
        out.metrics["sensor_csma_deferrals"] = static_cast<double>(res.sensor_csma_deferrals);
        out.metrics["sensor_csma_drops"] = static_cast<double>(res.sensor_csma_drops);
        out.metrics["sensor_delivery_ratio"] = res.sensor_delivery_ratio;
        out.metrics["jammer_chirps"] = static_cast<double>(res.jammer_chirps);
        return out;
      });
}

void RegisterLoraCoexistence(ScenarioRegistry& r) {
  r.Register(
      "lora_coexistence",
      "A saturated WiFi link sharing the channel with a duty-cycled LoRa-like "
      "narrowband interferer",
      {{"standard", "11b", "WiFi PHY standard: 11/11b/11a/11g"},
       {"jammer_distance", "5", "jammer-receiver distance in metres"},
       {"duty_pct", "1", "jammer on-air share in percent"},
       {"airtime_ms", "60", "airtime of one chirp frame in milliseconds"},
       {"sim_time_s", "6", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        LoraCoexistenceParams p;
        p.standard = ParseStandard(params.GetString("standard", "11b"));
        p.jammer_distance = params.GetDouble("jammer_distance", 5.0);
        p.duty_pct = params.GetDouble("duty_pct", 1.0);
        p.airtime = Time::Millis(static_cast<int64_t>(params.GetDouble("airtime_ms", 60.0)));
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 6.0));
        p.seed = ctx.seed;
        const LoraCoexistenceResult res = RunLoraCoexistenceScenario(p);
        ReplicationResult out = FromRunResult(res.wifi);
        out.metrics["jammer_chirps"] = static_cast<double>(res.jammer_chirps);
        out.metrics["jammer_airtime_share"] = res.jammer_airtime_share;
        return out;
      });
}

void RegisterAdhocVsInfra(ScenarioRegistry& r) {
  r.Register(
      "adhoc_vs_infra", "n CBR pairs exchanging traffic peer-to-peer or relayed through an AP",
      {{"adhoc", "true", "true = IBSS peer-to-peer, false = relay through an AP"},
       {"n_pairs", "2", "number of CBR source/sink pairs"},
       {"sim_time_s", "8", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        AdhocInfraParams p;
        p.adhoc = params.GetBool("adhoc", true);
        p.n_pairs = static_cast<size_t>(params.GetUint("n_pairs", 2));
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 8.0));
        p.seed = ctx.seed;
        const AdhocInfraResult res = RunAdhocInfraScenario(p);
        ReplicationResult out;
        out.metrics["offered_mbps"] = res.offered_mbps;
        out.metrics["delivered_mbps"] = res.delivered_mbps;
        out.metrics["mean_delay_ms"] = res.delay_ms;
        return out;
      });
}

void RegisterCoexistence(ScenarioRegistry& r) {
  r.Register(
      "coexistence",
      "802.11b/g coexistence: a saturated g STA with an optional legacy b STA and protection",
      {{"with_b_sta", "true", "admit a legacy 802.11b station"},
       {"protection", "false", "enable CTS-to-self protection"},
       {"sim_time_s", "6", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        CoexistenceParams p;
        p.with_b_sta = params.GetBool("with_b_sta", true);
        p.protection = params.GetBool("protection", false);
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 6.0));
        p.seed = ctx.seed;
        const CoexistenceResult res = RunCoexistenceScenario(p);
        ReplicationResult out;
        out.metrics["g_sta_mbps"] = res.g_mbps;
        out.metrics["b_sta_mbps"] = res.b_mbps;
        out.metrics["agg_mbps"] = res.g_mbps + res.b_mbps;
        return out;
      });
}

void RegisterFragmentation(ScenarioRegistry& r) {
  r.Register(
      "fragmentation",
      "Fragmentation threshold sweep point under an optional hidden burst jammer",
      {{"jammed", "true", "add the hidden Poisson burst jammer"},
       {"frag_threshold", "1024", "fragmentation threshold in bytes (2346 = off)"},
       {"sim_time_s", "8", "measured simulation seconds (after 1 s warmup)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        FragmentationParams p;
        p.jammed = params.GetBool("jammed", true);
        p.frag_threshold = static_cast<uint32_t>(params.GetUint("frag_threshold", 1024));
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 8.0));
        p.seed = ctx.seed;
        const HiddenTerminalResult res = RunFragmentationScenario(p);
        ReplicationResult out;
        out.metrics["goodput_mbps"] = res.goodput_mbps;
        out.metrics["retry_rate"] = res.retry_rate;
        out.metrics["drop_rate"] = res.drop_rate;
        out.metrics["drops"] = static_cast<double>(res.drops);
        return out;
      });
}

void RegisterRoaming(ScenarioRegistry& r) {
  r.Register(
      "roaming",
      "ESS handoff: a station walking past 2-3 APs with a CBR uplink to the serving AP",
      {{"n_aps", "2", "number of APs (2 or 3), channels 1/6/11"},
       {"spacing", "160", "AP spacing in metres"},
       {"speed", "10", "station speed in m/s"},
       {"payload", "500", "uplink packet payload bytes"},
       {"use_arf", "false", "use ARF rate control instead of the default"},
       {"sim_time_s", "20", "total simulation seconds (traffic starts at 1 s)"}},
      [](const ScenarioParams& params, const ReplicationContext& ctx) {
        RoamingParams p;
        p.n_aps = static_cast<size_t>(params.GetUint("n_aps", 2));
        p.spacing = params.GetDouble("spacing", 160.0);
        p.speed = params.GetDouble("speed", 10.0);
        p.payload = static_cast<size_t>(params.GetUint("payload", 500));
        p.use_arf = params.GetBool("use_arf", false);
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s", 20.0));
        p.seed = ctx.seed;
        const RoamingResult res = RunRoamingScenario(p);
        ReplicationResult out;
        out.metrics["handoffs"] = static_cast<double>(res.handoffs);
        out.metrics["loss_rate"] = res.loss_rate;
        out.metrics["mean_delivered_kbps"] = res.mean_delivered_kbps;
        return out;
      });
}

}  // namespace

void RegisterBuiltinScenarios(ScenarioRegistry& registry) {
  RegisterSaturation(registry);
  RegisterHiddenTerminal(registry);
  RegisterEdca(registry);
  RegisterDenseMultiBss(registry);
  RegisterCityGrid(registry);
  RegisterRateVsDistance(registry);
  RegisterIsmInterference(registry);
  RegisterSensorCoexistence(registry);
  RegisterLoraCoexistence(registry);
  RegisterAdhocVsInfra(registry);
  RegisterCoexistence(registry);
  RegisterFragmentation(registry);
  RegisterRoaming(registry);
  RegisterPipelineProbe(registry);
}

}  // namespace wlansim
