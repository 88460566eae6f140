// Canonical experiment topologies: one function per simulation scenario, so
// the campaign runner, the benches and the tests all execute the exact same
// scenario code. Each RunXxx is one replication of the scenario that
// scenarios.cc registers beside its parameter table: it reads its parameters
// through the ParamView (every default lives in that table), builds a
// private Network seeded from ctx.seed, runs it and returns its metric map.
// Benches and tests reach them by name through RunScenarioOnce
// (runner/scenario_registry.h).

#ifndef WLANSIM_RUNNER_BUILDERS_H_
#define WLANSIM_RUNNER_BUILDERS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/time.h"
#include "runner/scenario.h"

namespace wlansim {

// Saturated uplink BSS: `n_stas` stations on a circle of `distance` m around
// the AP, all backlogged toward it.
ReplicationResult RunSaturation(const ParamView& params, const ReplicationContext& ctx);

// Two senders sharing one receiver; `hidden` removes the sender-sender link
// from the loss matrix so physical carrier sense never defers.
ReplicationResult RunHiddenTerminal(const ParamView& params, const ReplicationContext& ctx);

// A VoIP flow (AC_VO) sharing a BSS with `bulk_stations` saturating bulk
// uploaders (AC_BK), with 802.11e QoS on or off.
ReplicationResult RunEdca(const ParamView& params, const ReplicationContext& ctx);

// Dense co-channel multi-BSS deployment: `n_bss` infrastructure BSSs on a
// square grid (all on channel 1), each with `stas_per_bss` saturated uplink
// stations. Every BSS hears its neighbours, so the per-receiver interference
// tracker sees tens of concurrent signals. With `sta_hist` it also records
// the per-station goodput histogram through ctx.recorder.
ReplicationResult RunDenseMultiBss(const ParamView& params, const ReplicationContext& ctx);

// City-scale co-channel deployment: the dense_multi_bss grid sized for
// thousands of nodes spread far beyond one interference radius. Log-distance
// loss without shadowing gives a bounded interference radius, so with the
// finite reception cutoff each send visits only the grid cells around its
// transmitter.
ReplicationResult RunCityGrid(const ParamView& params, const ReplicationContext& ctx);

// Single saturated link at `distance` with either a fixed rate (index into
// ModesFor) or a named rate-control algorithm, optionally under Rayleigh
// block fading.
ReplicationResult RunRateVsDistance(const ParamView& params, const ReplicationContext& ctx);

// A saturated 12 m link sharing the band with a microwave oven at
// `oven_distance` m from the receiver (0 = no oven). 802.11a moves to
// channel 36 and is immune by construction.
ReplicationResult RunIsmInterference(const ParamView& params, const ReplicationContext& ctx);

// Heterogeneous coexistence on one 2.4 GHz channel: an infrastructure WiFi
// BSS (saturated uplink stations 10 m from the AP), a cluster of 802.15.4-style
// sensor radios around a silent sink, and optionally a duty-cycled LoRa-like
// jammer: three radio technologies behind one RadioDevice seam.
ReplicationResult RunSensorCoexistence(const ParamView& params, const ReplicationContext& ctx);

// A saturated WiFi link sharing the channel with one duty-cycled LoRa-like
// interferer at `jammer_distance` from the receiver.
ReplicationResult RunLoraCoexistence(const ParamView& params, const ReplicationContext& ctx);

// `n_pairs` CBR flows either peer-to-peer (IBSS) or relayed through an AP.
ReplicationResult RunAdhocVsInfra(const ParamView& params, const ReplicationContext& ctx);

// 802.11b/g coexistence: a saturated g STA, optionally joined by a far-away
// legacy b STA, with or without CTS-to-self protection.
ReplicationResult RunCoexistence(const ParamView& params, const ReplicationContext& ctx);

// Fragmentation threshold under an optional hidden Poisson burst jammer.
ReplicationResult RunFragmentation(const ParamView& params, const ReplicationContext& ctx);

// ESS roaming: `n_aps` access points `spacing` m apart on channels 1/6/11,
// a station walking past them at `speed` m/s with a CBR uplink addressed to
// the serving BSSID.
//
// The one scenario that keeps a typed entry point: f7 and the campus_roaming
// example read its `delivered_buckets` time series and set corridor knobs
// the registered scenario does not expose (`path_loss_exponent`, `start_x`,
// `scan_dwell`, `log_associations`), and a scalar metric map carries neither.
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
