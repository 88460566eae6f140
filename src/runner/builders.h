// Canonical experiment topologies, extracted from the bench binaries so the
// campaign runner, the benches and the examples all execute the exact same
// scenario code. Each builder is a pure function of its params struct: it
// constructs a private Network, runs it, and returns plain numbers.

#ifndef WLANSIM_RUNNER_BUILDERS_H_
#define WLANSIM_RUNNER_BUILDERS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/random.h"
#include "core/time.h"
#include "crypto/cipher_suite.h"
#include "phy/wifi_mode.h"

namespace wlansim {

class RateController;
class Rng;

// Creates the requested rate controller by name ("arf", "aarf", "onoe",
// "samplerate", "minstrel"); nullptr for unknown names (callers treat the
// empty name as "fixed rate" before calling this).
std::unique_ptr<RateController> MakeRateController(const std::string& name,
                                                   PhyStandard standard, Rng rng);

// Result of one scenario run (the common scalar set).
struct RunResult {
  double goodput_mbps = 0.0;
  double loss_rate = 0.0;
  double mean_delay_ms = 0.0;
  uint64_t retries = 0;
  uint64_t tx_attempts = 0;
  uint64_t rx_ok = 0;
  uint64_t handoffs = 0;
};

// Saturated uplink BSS: `n_stas` stations at `distance` m from the AP, all
// backlogged toward the AP with `payload` bytes. Returns aggregate results.
struct SaturationParams {
  PhyStandard standard = PhyStandard::k80211b;
  size_t n_stas = 1;
  size_t payload = 1500;
  double distance = 10.0;
  uint32_t rts_threshold = 65535;  // off by default
  Time sim_time = Time::Seconds(6);
  Time warmup = Time::Seconds(1);
  uint64_t seed = 1;
  CipherSuite cipher = CipherSuite::kOpen;
  // Fixed rate index into ModesFor(standard); SIZE_MAX = highest.
  size_t rate_index = SIZE_MAX;
};
RunResult RunSaturationScenario(const SaturationParams& p);

// Two senders sharing one receiver; `hidden` removes the sender-sender link
// from the loss matrix so physical carrier sense never defers.
struct HiddenTerminalParams {
  bool hidden = true;
  bool rtscts = false;
  size_t payload = 1500;
  Time sim_time = Time::Seconds(6);
  uint64_t seed = 42;
};
struct HiddenTerminalResult {
  double goodput_mbps = 0.0;
  double retry_rate = 0.0;  // fraction of tx attempts that were retries
  double drop_rate = 0.0;   // fraction of tx attempts dropped at retry limit
  uint64_t cts_timeouts = 0;
  uint64_t drops = 0;
};
HiddenTerminalResult RunHiddenTerminalScenario(const HiddenTerminalParams& p);

// A VoIP flow (AC_VO) sharing a BSS with `bulk_stations` saturating bulk
// uploaders (AC_BK), with 802.11e QoS on or off.
struct EdcaQosParams {
  bool qos = true;
  size_t bulk_stations = 3;
  Time sim_time = Time::Seconds(6);
  uint64_t seed = 500;
};
struct EdcaQosResult {
  double voice_delay_ms = 0.0;
  double voice_jitter_ms = 0.0;
  double voice_loss = 0.0;
  double bulk_mbps = 0.0;
  uint64_t voice_delivered = 0;  // voice packets at the sink (bench item count)
};
EdcaQosResult RunEdcaScenario(const EdcaQosParams& p);

// Single saturated link at `distance` with either a fixed rate (index into
// ModesFor) or a named rate-control algorithm, optionally under Rayleigh
// block fading (the F9 rate-adaptation shoot-out configuration).
struct LinkParams {
  PhyStandard standard = PhyStandard::k80211b;
  double distance = 10.0;
  size_t rate_index = 0;    // used when controller is empty
  std::string controller;   // "", "arf", "aarf", "onoe", "samplerate", "minstrel"
  bool rayleigh_fading = false;
  size_t payload = 1200;
  Time sim_time = Time::Seconds(4);
  uint64_t seed = 7;
};
RunResult RunLinkScenario(const LinkParams& p);

// Dense co-channel multi-BSS deployment: `n_bss` infrastructure BSSs on a
// square grid (`bss_spacing` metres apart, all on channel 1), each with
// `stas_per_bss` saturated uplink stations on a circle of `sta_radius`
// around their AP. Every BSS hears its neighbours, so the per-receiver
// interference tracker sees tens of concurrent signals — the workload the
// sweep-line SINR chunking exists for. Returns aggregates over all flows.
struct DenseMultiBssParams {
  PhyStandard standard = PhyStandard::k80211b;
  size_t n_bss = 3;
  size_t stas_per_bss = 4;
  double bss_spacing = 25.0;
  double sta_radius = 8.0;
  size_t payload = 1000;
  Time sim_time = Time::Seconds(4);
  Time warmup = Time::Seconds(1);
  uint64_t seed = 1;
};
struct DenseMultiBssResult {
  RunResult run;  // aggregates over all flows, as before
  // Uplink goodput of every station, in station creation order (BSS by BSS,
  // station by station). Means hide starvation in a dense co-channel grid;
  // this is the raw material for the per-station fairness histogram.
  std::vector<double> per_sta_mbps;
};
DenseMultiBssResult RunDenseMultiBssScenario(const DenseMultiBssParams& p);

// City-scale co-channel deployment: like dense_multi_bss but sized for
// thousands of nodes spread far beyond one interference radius, the
// workload the channel's spatial receiver grid exists for. Log-distance
// loss without shadowing gives a bounded interference radius, so with the
// finite reception cutoff each send visits only the grid cells around
// its transmitter.
struct CityGridParams {
  PhyStandard standard = PhyStandard::k80211b;
  size_t n_bss = 9;
  size_t stas_per_bss = 2;
  double bss_spacing = 120.0;
  double sta_radius = 10.0;
  // Reception cutoff in dBm: a scenario semantic, not an optimisation
  // toggle.
  double cutoff_dbm = -100.0;
  size_t payload = 1000;
  Time sim_time = Time::Seconds(2);
  Time warmup = Time::Seconds(1);
  uint64_t seed = 1;
};
struct CityGridResult {
  RunResult run;
  // Channel totals, fixed by the topology and the cutoff.
  uint64_t channel_sends = 0;
  uint64_t channel_offers = 0;
};
CityGridResult RunCityGridScenario(const CityGridParams& p);

// A saturated 12 m link sharing the band with a microwave oven at
// `oven_distance` m from the receiver (0 = no oven). 802.11a moves to
// channel 36 and is immune by construction.
struct IsmParams {
  PhyStandard standard = PhyStandard::k80211b;
  double oven_distance = 3.0;
  Time sim_time = Time::Seconds(6);
  uint64_t seed = 77;
};
RunResult RunIsmInterferenceScenario(const IsmParams& p);

// Heterogeneous coexistence on one 2.4 GHz channel: an infrastructure WiFi
// BSS (`n_stas` saturated uplink stations at `sta_distance`), a cluster of
// `n_sensors` 802.15.4-style sensor radios on a circle of `sensor_radius`
// around a silent sink sensor at `cluster_offset`, and optionally a
// duty-cycled LoRa-like jammer — three radio technologies behind one
// RadioDevice seam. WiFi sees the sensors and jammer as foreign-protocol
// energy (CCA deferral + SINR degradation) and vice versa.
struct SensorCoexistenceParams {
  PhyStandard standard = PhyStandard::k80211b;
  size_t n_stas = 1;
  double sta_distance = 10.0;
  size_t n_sensors = 4;
  double sensor_radius = 6.0;
  double cluster_offset = 5.0;  // sink's x-offset from the AP
  Time report_interval = Time::Millis(25);
  bool with_jammer = false;     // add the LoRa-like interferer
  double jammer_duty_pct = 5.0;
  size_t payload = 1000;
  Time sim_time = Time::Seconds(4);
  Time warmup = Time::Seconds(1);
  uint64_t seed = 1;
};
struct SensorCoexistenceResult {
  RunResult wifi;  // the BSS's aggregate uplink results
  uint64_t sensor_reports_sent = 0;
  uint64_t sensor_rx_ok = 0;        // reports the sink received intact
  uint64_t sensor_rx_lost_sinr = 0; // locked at the sink but degraded
  uint64_t sensor_csma_deferrals = 0;
  uint64_t sensor_csma_drops = 0;
  double sensor_delivery_ratio = 0.0;  // sink rx_ok / reports sent
  uint64_t jammer_chirps = 0;
};
SensorCoexistenceResult RunSensorCoexistenceScenario(const SensorCoexistenceParams& p);

// A saturated WiFi link sharing the channel with one duty-cycled LoRa-like
// interferer at `jammer_distance` from the receiver: the minimal quantified
// look at what long-airtime narrowband duty cycles do to 802.11.
struct LoraCoexistenceParams {
  PhyStandard standard = PhyStandard::k80211b;
  double jammer_distance = 5.0;
  double duty_pct = 1.0;
  Time airtime = Time::Millis(60);
  Time sim_time = Time::Seconds(6);
  uint64_t seed = 19;
};
struct LoraCoexistenceResult {
  RunResult wifi;
  uint64_t jammer_chirps = 0;
  double jammer_airtime_share = 0.0;  // chirp airtime / measured time
};
LoraCoexistenceResult RunLoraCoexistenceScenario(const LoraCoexistenceParams& p);

// n_pairs CBR flows either peer-to-peer (IBSS) or relayed through an AP.
struct AdhocInfraParams {
  bool adhoc = true;
  size_t n_pairs = 2;
  Time sim_time = Time::Seconds(8);
  uint64_t seed = 55;
};
struct AdhocInfraResult {
  double offered_mbps = 0.0;
  double delivered_mbps = 0.0;
  double delay_ms = 0.0;
};
AdhocInfraResult RunAdhocInfraScenario(const AdhocInfraParams& p);

// 802.11b/g coexistence: a saturated g STA, optionally joined by a far-away
// legacy b STA, with or without CTS-to-self protection.
struct CoexistenceParams {
  bool with_b_sta = true;
  bool protection = false;
  Time sim_time = Time::Seconds(6);
  uint64_t seed = 23;
};
struct CoexistenceResult {
  double g_mbps = 0.0;
  double b_mbps = 0.0;
};
CoexistenceResult RunCoexistenceScenario(const CoexistenceParams& p);

// Fragmentation threshold under an optional hidden Poisson burst jammer.
struct FragmentationParams {
  bool jammed = true;
  uint32_t frag_threshold = 1024;
  Time sim_time = Time::Seconds(8);
  uint64_t seed = 31;
};
HiddenTerminalResult RunFragmentationScenario(const FragmentationParams& p);

// ESS roaming: `n_aps` access points `spacing` m apart on channels 1/6/11,
// a station walking past them at `speed` m/s with a CBR uplink addressed to
// the serving BSSID.
struct RoamingParams {
  size_t n_aps = 2;
  double spacing = 160.0;
  double speed = 10.0;
  double path_loss_exponent = 3.2;
  double start_x = 10.0;
  size_t payload = 500;
  Time pump_interval = Time::Millis(10);
  Time scan_dwell = Time::Zero();  // zero = MAC default
  Time sim_time = Time::Seconds(20);
  uint64_t seed = 77;
  bool use_arf = false;
  bool log_associations = false;
};
struct RoamingResult {
  uint64_t handoffs = 0;
  double loss_rate = 0.0;
  double mean_delivered_kbps = 0.0;
  // Delivered bytes per bucket: (bucket start seconds, bytes).
  std::vector<std::pair<double, double>> delivered_buckets;
  double bucket_seconds = 0.5;
};
RoamingResult RunRoamingScenario(const RoamingParams& p);

}  // namespace wlansim

#endif  // WLANSIM_RUNNER_BUILDERS_H_
