// M4 — Transmission fan-out cost at city scale: Channel::Send over 10^2,
// 10^3 and 10^4 static nodes scattered at constant density, for three
// channel configurations per size:
//
//   dense_nocut   — the historical behaviour: no cutoff, so the radius is
//                   unbounded and every send offers the frame to every
//                   other node (the O(n) fan-out).
//   dense_cut     — the -100 dBm reception cutoff over a loss model with
//                   the same powers but no range bound
//                   (tests/unbounded_range_loss.h): the grid is one cell,
//                   so receivers beyond the interference radius are
//                   computed and then suppressed (saves the arrival
//                   events, not the per-receiver visit).
//   spatial_cut   — the same cutoff on log-distance loss, whose bounded
//                   radius lets the grid visit only the 3x3 cell block.
//
// Offers per send saturate at (node density x pi r^2) once the city
// outgrows the interference radius, so fan-out cost grows sublinearly in
// node count on the pruned grid while dense_nocut stays O(n). The driver
// cross-checks, per size, that dense_cut and spatial_cut deliver the exact
// same offer stream (count and per-offer power/delay checksums — the bench
// restates the differential test before timing anything), and hard-fails
// if the 10^4-node point shows less than a 5x offer reduction. The
// long-format CSV (--csv=) is what the CI perf-smoke job uploads.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/perf_harness.h"
#include "core/packet.h"
#include "core/random.h"
#include "core/simulator.h"
#include "phy/channel.h"
#include "phy/mobility.h"
#include "phy/propagation.h"
#include "phy/wifi_mode.h"
#include "phy/wifi_phy.h"
#include "tests/unbounded_range_loss.h"

namespace wlansim {
namespace {

constexpr double kCutoffDbm = -100.0;
constexpr double kNodeSpacing = 25.0;  // metres between nodes on average
constexpr size_t kSendsPerBatch = 32;

// A city of `n` bare PHYs (no MAC above them) at uniform random positions
// in a square sized for constant density, on one shared channel whose
// loss model either bounds its radius (`bounded`) or does not.
struct City {
  Simulator sim;
  Channel channel;
  std::vector<std::unique_ptr<ConstantPositionMobility>> mobility;
  std::vector<std::unique_ptr<WifiPhy>> phys;

  City(size_t n, bool bounded, double cutoff_dbm, uint64_t seed)
      : channel(&sim, MakeLogDistanceLoss(bounded), Rng(seed)) {
    channel.SetRxCutoffDbm(cutoff_dbm);
    Rng rng(seed + 1);
    const double side = kNodeSpacing * std::sqrt(static_cast<double>(n));
    mobility.reserve(n);
    phys.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      mobility.push_back(std::make_unique<ConstantPositionMobility>(
          Vector3{rng.Uniform(0.0, side), rng.Uniform(0.0, side), 0.0}));
      phys.push_back(std::make_unique<WifiPhy>(&sim, WifiPhy::Config{}, Rng(seed + 2 + i)));
      phys.back()->AttachChannel(&channel, static_cast<uint32_t>(i), mobility[i].get());
    }
  }

  // One batch: kSendsPerBatch transmissions from senders spread across the
  // city, spaced 2 ms apart so frames don't overlap, then a full drain of
  // the arrival events they scheduled. Returns the number of sends.
  uint64_t RunBatch() {
    const Packet packet(1000);
    const WifiMode mode = ModesFor(PhyStandard::k80211b).back();
    const Time start = sim.Now();
    for (size_t k = 0; k < kSendsPerBatch; ++k) {
      WifiPhy* sender = phys[(k * 2654435761u) % phys.size()].get();
      sim.Schedule(start + Time::Millis(2 * static_cast<int64_t>(k + 1)) - sim.Now(),
                   [this, sender, packet, mode] {
                     channel.Send(sender, packet, MakeWifiSignal(mode, packet.size(), false));
                   });
    }
    sim.RunUntil(start + Time::Millis(2 * (kSendsPerBatch + 2)));
    return kSendsPerBatch;
  }
};

// Offer count plus order-sensitive checksums over the offer stream, via the
// channel's probe hook. Equality across configs means the two grids offered
// to the same receivers with the same powers and delays in the same order.
struct OfferTrace {
  uint64_t offers = 0;
  double power_sum = 0.0;
  double delay_sum = 0.0;

  bool operator==(const OfferTrace& other) const = default;
};

OfferTrace TraceBatch(City& city) {
  OfferTrace trace;
  city.channel.AttachProbe(
      [&trace](const RadioDevice*, const RadioDevice*, double rx_dbm, Time delay) {
        ++trace.offers;
        trace.power_sum += rx_dbm;
        trace.delay_sum += delay.seconds();
      });
  city.RunBatch();
  city.channel.AttachProbe(nullptr);
  return trace;
}

int Run(int argc, char** argv) {
  const PerfArgs args = ParsePerfArgs(argc, argv, "bench_m4_spatial");
  if (!args.ok) {
    return 1;
  }
  PerfHarness harness("M4: spatial channel index, tx fan-out at city scale", args);

  double reduction_at_largest = 0.0;
  for (const size_t n : {100u, 1000u, 10000u}) {
    const uint64_t seed = 9000 + n;
    City dense_nocut(n, false, -std::numeric_limits<double>::infinity(), seed);
    City dense_cut(n, false, kCutoffDbm, seed);
    City spatial_cut(n, true, kCutoffDbm, seed);

    // Differential cross-check before timing: same seeds, same sends — the
    // two cutoff configs must produce the identical offer stream.
    const OfferTrace nocut = TraceBatch(dense_nocut);
    const OfferTrace dense_trace = TraceBatch(dense_cut);
    const OfferTrace spatial_trace = TraceBatch(spatial_cut);
    if (!(dense_trace == spatial_trace)) {
      std::fprintf(stderr,
                   "offer stream mismatch at n=%zu: dense %llu offers (%.17g, %.17g) "
                   "vs spatial %llu offers (%.17g, %.17g)\n",
                   n, static_cast<unsigned long long>(dense_trace.offers), dense_trace.power_sum,
                   dense_trace.delay_sum, static_cast<unsigned long long>(spatial_trace.offers),
                   spatial_trace.power_sum, spatial_trace.delay_sum);
      return 1;
    }
    std::printf("n=%-6zu offers/send: dense_nocut %.1f, with cutoff %.1f (%.1fx reduction)\n", n,
                static_cast<double>(nocut.offers) / kSendsPerBatch,
                static_cast<double>(spatial_trace.offers) / kSendsPerBatch,
                spatial_trace.offers > 0
                    ? static_cast<double>(nocut.offers) / static_cast<double>(spatial_trace.offers)
                    : 0.0);
    if (n == 10000 && spatial_trace.offers > 0) {
      reduction_at_largest =
          static_cast<double>(nocut.offers) / static_cast<double>(spatial_trace.offers);
    }

    char name[64];
    std::snprintf(name, sizeof(name), "send_dense_nocut_n%zu", n);
    harness.Bench(name, [&dense_nocut] { return dense_nocut.RunBatch(); });
    std::snprintf(name, sizeof(name), "send_dense_cut_n%zu", n);
    harness.Bench(name, [&dense_cut] { return dense_cut.RunBatch(); });
    std::snprintf(name, sizeof(name), "send_spatial_cut_n%zu", n);
    harness.Bench(name, [&spatial_cut] { return spatial_cut.RunBatch(); });
  }

  if (reduction_at_largest < 5.0) {
    std::fprintf(stderr, "offer reduction at n=10000 is %.2fx, expected >= 5x\n",
                 reduction_at_largest);
    return 1;
  }
  return harness.Finish();
}

}  // namespace
}  // namespace wlansim

int main(int argc, char** argv) {
  return wlansim::Run(argc, argv);
}
