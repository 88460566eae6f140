// Validates the Bianchi analytic model itself and cross-validates the
// simulated DCF MAC against it: the two were built independently (one from
// the JSAC 2000 equations, one from the 802.11 state machine), so agreement
// within model tolerance is strong evidence both are right.

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "mac/frames.h"
#include "stats/bianchi.h"

namespace wlansim {
namespace {

BianchiParams ParamsFor80211b(uint32_t n, size_t payload) {
  const PhyTiming t = TimingFor(PhyStandard::k80211b);
  const WifiMode& data_mode = ModesFor(PhyStandard::k80211b).back();  // 11 Mb/s
  const WifiMode& ctl_mode = ControlResponseMode(data_mode);          // 2 Mb/s

  BianchiParams p;
  p.n_stations = n;
  p.cw_min = t.cw_min;
  p.max_backoff_stages = 5;
  p.slot = t.slot;
  p.sifs = t.sifs;
  p.difs = t.Difs();
  p.data_duration = FrameDuration(data_mode, payload + kDataHeaderSize + kFcsSize);
  p.ack_duration = AckDuration(ctl_mode);
  p.rts_duration = RtsDuration(ctl_mode);
  p.cts_duration = CtsDuration(ctl_mode);
  p.payload_bits = 8.0 * static_cast<double>(payload);
  return p;
}

TEST(Bianchi, FixedPointConverges) {
  const BianchiResult r = SolveBianchi(ParamsFor80211b(10, 1500));
  EXPECT_GT(r.tau, 0.0);
  EXPECT_LT(r.tau, 1.0);
  EXPECT_GT(r.collision_probability, 0.0);
  EXPECT_LT(r.collision_probability, 1.0);
  // Consistency: p = 1 - (1-tau)^(n-1).
  EXPECT_NEAR(r.collision_probability, 1.0 - std::pow(1.0 - r.tau, 9.0), 1e-6);
}

TEST(Bianchi, CollisionProbabilityGrowsWithN) {
  double prev = 0.0;
  for (uint32_t n : {2u, 5u, 10u, 20u, 50u}) {
    const BianchiResult r = SolveBianchi(ParamsFor80211b(n, 1500));
    EXPECT_GT(r.collision_probability, prev);
    prev = r.collision_probability;
  }
}

TEST(Bianchi, ThroughputDecaysWithN) {
  double prev = 1e12;
  for (uint32_t n : {2u, 5u, 10u, 20u, 50u}) {
    const BianchiResult r = SolveBianchi(ParamsFor80211b(n, 1500));
    EXPECT_LT(r.throughput_bps_basic, prev);
    prev = r.throughput_bps_basic;
  }
}

TEST(Bianchi, RtsCtsOvertakesBasicAtHighContention) {
  const BianchiResult few = SolveBianchi(ParamsFor80211b(2, 2304));
  const BianchiResult many = SolveBianchi(ParamsFor80211b(50, 2304));
  EXPECT_GT(few.throughput_bps_basic, few.throughput_bps_rtscts);
  EXPECT_LT(many.throughput_bps_basic, many.throughput_bps_rtscts);
}

TEST(Bianchi, SmallPayloadsNeverJustifyRts) {
  for (uint32_t n : {2u, 10u, 50u}) {
    const BianchiResult r = SolveBianchi(ParamsFor80211b(n, 100));
    EXPECT_GT(r.throughput_bps_basic, r.throughput_bps_rtscts) << "n=" << n;
  }
}

class BianchiVsSimulation : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BianchiVsSimulation, SaturationThroughputAgrees) {
  const uint32_t n = GetParam();
  const BianchiResult analytic = SolveBianchi(ParamsFor80211b(n, 1500));

  const double measured_mbps = RunScenarioOnce("saturation",
                                               {{"standard", "11b"},
                                                {"n_stas", std::to_string(n)},
                                                {"payload", "1500"},
                                                {"distance", "10"},
                                                {"sim_time_s", "4"}},
                                               1000 + n)
                                   .metrics.at("goodput_mbps");

  // The analytic model idealizes (no PHY errors, slot-synchronized
  // collisions, infinite retries); agreement within 15 % is the standard
  // validation bar for DCF simulators.
  const double analytic_mbps = analytic.throughput_bps_basic / 1e6;
  EXPECT_NEAR(measured_mbps, analytic_mbps, 0.15 * analytic_mbps)
      << "n=" << n << " sim=" << measured_mbps << " analytic=" << analytic_mbps;
}

INSTANTIATE_TEST_SUITE_P(StationSweep, BianchiVsSimulation,
                         ::testing::Values(1u, 2u, 5u, 10u, 20u),
                         [](const auto& info) { return "n" + std::to_string(info.param); });

}  // namespace
}  // namespace wlansim
