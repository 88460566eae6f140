// The built-in scenario table: every canonical topology from the paper's
// experiment set, registered by name so campaigns, benches and tests all run
// the same code. Each entry pairs a scenario's parameter table (the only
// place its defaults are written) with its run function in builders.cc.

#include <cmath>
#include <string>
#include <vector>

#include "core/random.h"
#include "runner/builders.h"
#include "runner/metric_recorder.h"
#include "runner/scenario_registry.h"

namespace wlansim {
namespace {

using enum ParamType;

// The spellings builders.cc parses; any other value is refused before a
// run starts.
const std::vector<std::string> kStandards = {"11",  "802.11",  "11b", "802.11b",
                                             "11a", "802.11a", "11g", "802.11g"};
const std::vector<std::string> kCiphers = {"open", "wep", "tkip", "ccmp"};
const std::vector<std::string> kControllers = {"", "arf", "aarf", "onoe", "samplerate",
                                               "minstrel"};

void RegisterSaturation(ScenarioRegistry& r) {
  r.Register(
      "saturation", "Saturated uplink BSS: n backlogged stations on a circle around one AP",
      {{"standard", kString, "11b", "PHY standard: 11/11b/11a/11g", kStandards},
       {"n_stas", kUint, "1", "number of saturated stations"},
       {"payload", kUint, "1500", "MSDU payload bytes"},
       {"distance", kDouble, "10", "station-AP distance in metres"},
       {"rts_threshold", kUint, "65535", "RTS/CTS threshold in bytes (65535 = off)"},
       {"cipher", kString, "open", "link cipher: open/wep/tkip/ccmp", kCiphers},
       {"rate_index", kInt, "-1", "fixed rate index into the standard's mode table (-1 = highest)"},
       {"sim_time_s", kDouble, "6", "measured simulation seconds (after 1 s warmup)"}},
      RunSaturation);
}

void RegisterHiddenTerminal(ScenarioRegistry& r) {
  r.Register(
      "hidden_terminal",
      "Two senders that cannot hear each other sharing one receiver (matrix loss)",
      {{"hidden", kBool, "true", "remove the sender-sender link"},
       {"rtscts", kBool, "false", "enable the RTS/CTS handshake"},
       {"payload", kUint, "1500", "MSDU payload bytes"},
       {"sim_time_s", kDouble, "6", "measured simulation seconds (after 1 s warmup)"}},
      RunHiddenTerminal);
}

void RegisterEdca(ScenarioRegistry& r) {
  r.Register(
      "edca", "A VoIP flow (AC_VO) vs k saturating bulk uploaders (AC_BK), QoS on or off",
      {{"qos", kBool, "true", "enable 802.11e EDCA"},
       {"bulk_stations", kUint, "3", "number of saturating AC_BK stations"},
       {"sim_time_s", kDouble, "6", "measured simulation seconds (after 1 s warmup)"}},
      RunEdca);
}

void RegisterCityGrid(ScenarioRegistry& r) {
  r.Register(
      "city_grid",
      "City-scale co-channel BSS grid spread beyond one interference radius; "
      "exercises the channel's reception cutoff and spatial receiver grid",
      {{"standard", kString, "11b", "PHY standard: 11/11b/11a/11g", kStandards},
       {"n_bss", kUint, "9", "number of co-channel BSSs on a square grid"},
       {"stas_per_bss", kUint, "2", "saturated stations per BSS"},
       {"bss_spacing", kDouble, "120", "AP grid spacing in metres"},
       {"sta_radius", kDouble, "10", "station-AP distance in metres"},
       {"cutoff_dbm", kDouble, "-100", "reception cutoff in dBm"},
       {"spatial", kBool, "false",
        "ignored: the channel always uses its spatial receiver grid (parsed for "
        "old command lines; removed with the next benchmark change)"},
       {"payload", kUint, "1000", "MSDU payload bytes"},
       {"sim_time_s", kDouble, "2", "measured simulation seconds (after 1 s warmup)"}},
      RunCityGrid);
}

void RegisterRateVsDistance(ScenarioRegistry& r) {
  r.Register(
      "rate_vs_distance",
      "Single saturated link at a given distance, fixed rate or a rate-control algorithm",
      {{"standard", kString, "11b", "PHY standard: 11/11b/11a/11g", kStandards},
       {"distance", kDouble, "60", "link distance in metres"},
       {"controller", kString, "",
        "rate controller: arf/aarf/onoe/samplerate/minstrel (empty = fixed)", kControllers},
       {"rate_index", kUint, "0", "fixed rate index (when controller is empty)"},
       {"fading", kBool, "false", "apply per-frame Rayleigh block fading"},
       {"payload", kUint, "1200", "MSDU payload bytes"},
       {"sim_time_s", kDouble, "4", "measured simulation seconds (after 1 s warmup)"}},
      RunRateVsDistance);
}

void RegisterDenseMultiBss(ScenarioRegistry& r) {
  r.Register(
      "dense_multi_bss",
      "Dense co-channel multi-BSS grid: n APs with m saturated uplink stations each",
      {{"standard", kString, "11b", "PHY standard: 11/11b/11a/11g", kStandards},
       {"n_bss", kUint, "3", "number of co-channel BSSs on a square grid"},
       {"stas_per_bss", kUint, "4", "saturated stations per BSS"},
       {"bss_spacing", kDouble, "25", "AP grid spacing in metres"},
       {"sta_radius", kDouble, "8", "station-AP distance in metres"},
       {"payload", kUint, "1000", "MSDU payload bytes"},
       {"sta_hist", kBool, "false",
        "record the per-station goodput histogram (adds per_sta_mbps_* fairness metrics)"},
       {"sta_hist_max", kDouble, "8", "per-station histogram range upper bound in Mb/s (64 bins)"},
       {"sim_time_s", kDouble, "4", "measured simulation seconds (after 1 s warmup)"}},
      RunDenseMultiBss);
}

void RegisterPipelineProbe(ScenarioRegistry& r) {
  r.Register(
      "pipeline_probe",
      "Synthetic microsecond-scale scenario: deterministic pseudo-random metrics, no simulation",
      {{"n_metrics", kUint, "3", "number of value_<k> metrics emitted per replication"},
       {"samples", kUint, "64", "uniform draws averaged into each metric"},
       {"gauge", kBool, "false", "also stream the draws through a recorder gauge (latency_us_*)"},
       {"counters", kUint, "0",
        "count-style count_<c> metrics: integral, ~1e7 base with a small "
        "per-replication jitter (the shape packet/byte counters have)"},
       {"hist", kBool, "false", "also record the draws into a fixed-bin latency_hist histogram"}},
      [](const ParamView& params, const ReplicationContext& ctx) {
        // Exists for the results pipeline itself: a 10^4..10^6-replication
        // campaign of it runs in seconds, so CI can gate streaming-mode
        // determinism and row counts at scale without burning minutes of
        // simulated airtime. Metrics are a pure function of ctx.seed.
        const uint64_t n_metrics = params.GetUint("n_metrics");
        const uint64_t samples = params.GetUint("samples");
        const bool gauge = params.GetBool("gauge");
        const uint64_t counters = params.GetUint("counters");
        const bool hist = params.GetBool("hist");
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
      {{"standard", kString, "11b", "PHY standard (11a moves to 5 GHz and is immune)", kStandards},
       {"oven_distance", kDouble, "3", "oven-receiver distance in metres (0 = no oven)"},
       {"sim_time_s", kDouble, "6", "measured simulation seconds (after 1 s warmup)"}},
      RunIsmInterference);
}

void RegisterSensorCoexistence(ScenarioRegistry& r) {
  r.Register(
      "sensor_coexistence",
      "Heterogeneous coexistence: a WiFi BSS, an 802.15.4-style sensor cluster and an "
      "optional LoRa-like jammer sharing one 2.4 GHz channel",
      {{"standard", kString, "11b", "WiFi PHY standard: 11/11b/11a/11g", kStandards},
       {"n_stas", kUint, "1", "saturated WiFi uplink stations"},
       {"n_sensors", kUint, "4", "sensor radios reporting to the sink"},
       {"sensor_radius", kDouble, "6", "reporter-sink distance in metres"},
       {"cluster_offset", kDouble, "5", "sink's distance from the AP in metres"},
       {"report_interval_ms", kDouble, "25", "sensor report period in milliseconds"},
       {"with_jammer", kBool, "false", "add a duty-cycled LoRa-like interferer to the cluster"},
       {"jammer_duty_pct", kDouble, "5", "jammer on-air share in percent"},
       {"payload", kUint, "1000", "WiFi MSDU payload bytes"},
       {"sim_time_s", kDouble, "4", "measured simulation seconds (after 1 s warmup)"}},
      RunSensorCoexistence);
}

void RegisterLoraCoexistence(ScenarioRegistry& r) {
  r.Register(
      "lora_coexistence",
      "A saturated WiFi link sharing the channel with a duty-cycled LoRa-like "
      "narrowband interferer",
      {{"standard", kString, "11b", "WiFi PHY standard: 11/11b/11a/11g", kStandards},
       {"jammer_distance", kDouble, "5", "jammer-receiver distance in metres"},
       {"duty_pct", kDouble, "1", "jammer on-air share in percent"},
       {"airtime_ms", kDouble, "60", "airtime of one chirp frame in milliseconds"},
       {"sim_time_s", kDouble, "6", "measured simulation seconds (after 1 s warmup)"}},
      RunLoraCoexistence);
}

void RegisterAdhocVsInfra(ScenarioRegistry& r) {
  r.Register(
      "adhoc_vs_infra", "n CBR pairs exchanging traffic peer-to-peer or relayed through an AP",
      {{"adhoc", kBool, "true", "true = IBSS peer-to-peer, false = relay through an AP"},
       {"n_pairs", kUint, "2", "number of CBR source/sink pairs"},
       {"sim_time_s", kDouble, "8", "measured simulation seconds (after 1 s warmup)"}},
      RunAdhocVsInfra);
}

void RegisterCoexistence(ScenarioRegistry& r) {
  r.Register(
      "coexistence",
      "802.11b/g coexistence: a saturated g STA with an optional legacy b STA and protection",
      {{"with_b_sta", kBool, "true", "admit a legacy 802.11b station"},
       {"protection", kBool, "false", "enable CTS-to-self protection"},
       {"sim_time_s", kDouble, "6", "measured simulation seconds (after 1 s warmup)"}},
      RunCoexistence);
}

void RegisterFragmentation(ScenarioRegistry& r) {
  r.Register(
      "fragmentation",
      "Fragmentation threshold sweep point under an optional hidden burst jammer",
      {{"jammed", kBool, "true", "add the hidden Poisson burst jammer"},
       {"frag_threshold", kUint, "1024", "fragmentation threshold in bytes (2346 = off)"},
       {"sim_time_s", kDouble, "8", "measured simulation seconds (after 1 s warmup)"}},
      RunFragmentation);
}

void RegisterRoaming(ScenarioRegistry& r) {
  r.Register(
      "roaming",
      "ESS handoff: a station walking past 2-3 APs with a CBR uplink to the serving AP",
      {{"n_aps", kUint, "2", "number of APs (2 or 3), channels 1/6/11"},
       {"spacing", kDouble, "160", "AP spacing in metres"},
       {"speed", kDouble, "10", "station speed in m/s"},
       {"payload", kUint, "500", "uplink packet payload bytes"},
       {"use_arf", kBool, "false", "use ARF rate control instead of the default"},
       {"sim_time_s", kDouble, "20", "total simulation seconds (traffic starts at 1 s)"}},
      [](const ParamView& params, const ReplicationContext& ctx) {
        RoamingParams p;
        p.n_aps = static_cast<size_t>(params.GetUint("n_aps"));
        p.spacing = params.GetDouble("spacing");
        p.speed = params.GetDouble("speed");
        p.payload = static_cast<size_t>(params.GetUint("payload"));
        p.use_arf = params.GetBool("use_arf");
        p.sim_time = Time::Seconds(params.GetDouble("sim_time_s"));
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
