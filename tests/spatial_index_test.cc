// The spatial receiver grid's one contract: with the reception cutoff
// fixed, a grid pruned by a bounded interference radius is bit-exact
// against the one-cell grid of an unbounded radius — same receivers, same
// pre-fading powers and delays, in the same order, with the same RNG
// consumption. These tests enforce it differentially on random topologies
// (with and without fading), against a loss model with identical powers
// and no range bound (tests/unbounded_range_loss.h), then pin the grid's
// moving parts: lazy rebuilds on static teleports and mobility swaps, the
// exact boundary semantics of the cutoff, and the moving-node bypass list.

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/packet.h"
#include "core/random.h"
#include "core/simulator.h"
#include "phy/channel.h"
#include "phy/fading.h"
#include "phy/mobility.h"
#include "phy/propagation.h"
#include "phy/wifi_mode.h"
#include "phy/wifi_phy.h"
#include "tests/unbounded_range_loss.h"

namespace wlansim {
namespace {

// One offer as seen by the channel probe: (tx node, rx node, pre-fading
// power, delay). Exact tuple equality is the differential check.
using Offer = std::tuple<uint32_t, uint32_t, double, double>;

// A MAC-less world of bare PHYs on one channel: `n_static` uniform random
// static nodes plus `n_moving` constant-velocity movers crossing the area.
struct World {
  Simulator sim;
  Channel channel;
  std::vector<std::unique_ptr<MobilityModel>> mobility;
  std::vector<std::unique_ptr<WifiPhy>> phys;
  std::vector<Offer> offers;

  World(uint64_t seed, bool bounded, double cutoff_dbm, size_t n_static, size_t n_moving,
        double side, bool rayleigh = false)
      : channel(&sim, MakeLogDistanceLoss(bounded), Rng(seed)) {
    channel.SetRxCutoffDbm(cutoff_dbm);
    if (rayleigh) {
      channel.SetFading(std::make_unique<RayleighFading>());
    }
    channel.AttachProbe([this](const RadioDevice* tx, const RadioDevice* rx, double dbm,
                               Time delay) {
      offers.emplace_back(tx->node_id(), rx->node_id(), dbm, delay.seconds());
    });
    Rng rng(seed + 1);
    for (size_t i = 0; i < n_static + n_moving; ++i) {
      const Vector3 pos{rng.Uniform(0.0, side), rng.Uniform(0.0, side), 0.0};
      if (i < n_static) {
        mobility.push_back(std::make_unique<ConstantPositionMobility>(pos));
      } else {
        const Vector3 vel{rng.Uniform(-15.0, 15.0), rng.Uniform(-15.0, 15.0), 0.0};
        mobility.push_back(std::make_unique<ConstantVelocityMobility>(pos, vel));
      }
      phys.push_back(std::make_unique<WifiPhy>(&sim, WifiPhy::Config{}, Rng(seed + 10 + i)));
      phys.back()->AttachChannel(&channel, static_cast<uint32_t>(i), mobility[i].get());
    }
  }

  // `count` transmissions from senders spread over all nodes (movers
  // included), 2 ms apart so frames don't overlap, then a full drain.
  void RunSends(size_t count) {
    const Packet packet(400);
    const WifiMode mode = ModesFor(PhyStandard::k80211b).back();
    for (size_t k = 0; k < count; ++k) {
      WifiPhy* sender = phys[(k * 7919) % phys.size()].get();
      sim.Schedule(Time::Millis(2 * static_cast<int64_t>(k + 1)) - sim.Now(),
                   [this, sender, packet, mode] {
                     channel.Send(sender, packet, MakeWifiSignal(mode, packet.size(), false));
                   });
    }
    sim.RunUntil(Time::Millis(2 * static_cast<int64_t>(count + 2)));
  }
};

// The central property: on random topologies the pruned grid reproduces
// the unbounded reference's offer stream exactly — not approximately, not
// as a set, but the same (tx, rx, power, delay) tuples in the same order.
TEST(SpatialIndex, RandomizedDifferentialOfferStreamIsExact) {
  for (const uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    World reference(seed, /*bounded=*/false, /*cutoff_dbm=*/-92.0, 40, 3, 600.0);
    World grid(seed, /*bounded=*/true, /*cutoff_dbm=*/-92.0, 40, 3, 600.0);
    reference.RunSends(24);
    grid.RunSends(24);

    ASSERT_FALSE(reference.offers.empty());
    EXPECT_EQ(reference.offers, grid.offers) << "seed " << seed;
    // The totals fixed by the cutoff agree; the grid actually pruned.
    EXPECT_EQ(reference.channel.send_stats().offers, grid.channel.send_stats().offers);
    EXPECT_EQ(reference.channel.send_stats().sends, grid.channel.send_stats().sends);
    EXPECT_LT(grid.channel.send_stats().candidates_visited,
              reference.channel.send_stats().candidates_visited)
        << "seed " << seed;
  }
}

// With per-frame fading the RNG draw sequence is part of the contract: a
// suppressed receiver must not consume a draw, whatever the grid's shape.
// Post-fading outcomes (every PHY's reception counters) must therefore
// match exactly.
TEST(SpatialIndex, DifferentialWithFadingMatchesReceptionCounters) {
  for (const uint64_t seed : {7u, 77u}) {
    World reference(seed, false, -92.0, 30, 2, 500.0, /*rayleigh=*/true);
    World grid(seed, true, -92.0, 30, 2, 500.0, /*rayleigh=*/true);
    reference.RunSends(20);
    grid.RunSends(20);

    EXPECT_EQ(reference.offers, grid.offers) << "seed " << seed;
    for (size_t i = 0; i < reference.phys.size(); ++i) {
      const WifiPhy::Counters& d = reference.phys[i]->counters();
      const WifiPhy::Counters& s = grid.phys[i]->counters();
      EXPECT_EQ(d.rx_ok, s.rx_ok) << "node " << i << " seed " << seed;
      EXPECT_EQ(d.rx_error, s.rx_error) << "node " << i << " seed " << seed;
      EXPECT_EQ(d.rx_dropped_busy, s.rx_dropped_busy) << "node " << i << " seed " << seed;
    }
  }
}

// Teleporting a static node must rebuild the grid before the next send:
// the node's old cell must stop answering for it and its new cell must.
TEST(SpatialIndex, StaticTeleportRebuildsGrid) {
  Simulator sim;
  Channel channel{&sim, std::make_unique<LogDistanceLossModel>(3.0), Rng(1)};
  channel.SetRxCutoffDbm(-80.0);  // range ~=~ 21 m at 16 dBm
  ConstantPositionMobility pos_a{{0, 0, 0}};
  ConstantPositionMobility pos_b{{10, 0, 0}};
  ConstantPositionMobility pos_c{{5000, 5000, 0}};  // far outside a's radius
  WifiPhy a{&sim, {}, Rng(2)};
  WifiPhy b{&sim, {}, Rng(3)};
  WifiPhy c{&sim, {}, Rng(4)};
  a.AttachChannel(&channel, 0, &pos_a);
  b.AttachChannel(&channel, 1, &pos_b);
  c.AttachChannel(&channel, 2, &pos_c);

  const Packet p(100);
  const WifiMode mode = ModesFor(PhyStandard::k80211b).back();
  channel.Send(&a, p, MakeWifiSignal(mode, p.size(), false));
  EXPECT_EQ(channel.send_stats().offers, 1u);  // b only; c pruned by the grid
  EXPECT_EQ(channel.send_stats().grid_rebuilds, 1u);

  pos_c.SetPosition({0, 5, 0});  // teleport into a's cell
  channel.Send(&a, p, MakeWifiSignal(mode, p.size(), false));
  EXPECT_EQ(channel.send_stats().offers, 3u);  // b and c
  EXPECT_EQ(channel.send_stats().grid_rebuilds, 2u);
  sim.RunUntil(Time::Seconds(1));
}

// Swapping a PHY's mobility model instance (Node::SetMobility path) must
// re-register the channel's counter and force a rebuild, so the new
// position is honoured immediately.
TEST(SpatialIndex, MobilitySwapForcesRebuild) {
  Simulator sim;
  Channel channel{&sim, std::make_unique<LogDistanceLossModel>(3.0), Rng(1)};
  channel.SetRxCutoffDbm(-80.0);
  ConstantPositionMobility pos_a{{0, 0, 0}};
  ConstantPositionMobility far{{9000, 9000, 0}};
  WifiPhy a{&sim, {}, Rng(2)};
  WifiPhy b{&sim, {}, Rng(3)};
  a.AttachChannel(&channel, 0, &pos_a);
  b.AttachChannel(&channel, 1, &far);

  const Packet p(100);
  const WifiMode mode = ModesFor(PhyStandard::k80211b).back();
  channel.Send(&a, p, MakeWifiSignal(mode, p.size(), false));
  EXPECT_EQ(channel.send_stats().offers, 0u);

  ConstantPositionMobility near{{8, 0, 0}};
  b.SetMobility(&near);
  channel.Send(&a, p, MakeWifiSignal(mode, p.size(), false));
  EXPECT_EQ(channel.send_stats().offers, 1u);
  EXPECT_GE(channel.send_stats().grid_rebuilds, 2u);
  sim.RunUntil(Time::Seconds(1));
}

// Boundary semantics, pinned with a matrix loss (exact dB arithmetic, no
// geometry): power exactly at the cutoff is delivered (>= compare), the
// tiniest step below is suppressed. Matrix loss has no finite radius, so
// this also covers the unbounded radius's one-cell grid.
TEST(SpatialIndex, CutoffBoundaryIsInclusive) {
  Simulator sim;
  auto loss = std::make_unique<MatrixLossModel>(200.0);
  MatrixLossModel* matrix = loss.get();
  Channel channel{&sim, std::move(loss), Rng(1)};
  channel.SetRxCutoffDbm(-90.0);
  ConstantPositionMobility pos_a{{0, 0, 0}};
  ConstantPositionMobility pos_b{{10, 0, 0}};
  WifiPhy a{&sim, {.tx_power_dbm = 16.0}, Rng(2)};
  WifiPhy b{&sim, {}, Rng(3)};
  a.AttachChannel(&channel, 0, &pos_a);
  b.AttachChannel(&channel, 1, &pos_b);

  const Packet p(100);
  const WifiMode mode = ModesFor(PhyStandard::k80211b).back();

  matrix->SetLoss(0, 1, 106.0);  // rx = 16 - 106 = -90, exactly the cutoff
  channel.Send(&a, p, MakeWifiSignal(mode, p.size(), false));
  EXPECT_EQ(channel.send_stats().offers, 1u);
  EXPECT_EQ(channel.send_stats().cutoff_suppressed, 0u);

  matrix->SetLoss(0, 1, 106.0 + 1e-9);  // epsilon below the cutoff
  channel.Send(&a, p, MakeWifiSignal(mode, p.size(), false));
  EXPECT_EQ(channel.send_stats().offers, 1u);  // unchanged
  EXPECT_EQ(channel.send_stats().cutoff_suppressed, 1u);
  sim.RunUntil(Time::Seconds(1));
}

// A receiver placed exactly at the loss model's promised MaxRangeMeters:
// whatever the unbounded reference decides at that floating-point knife
// edge, the pruned grid must decide identically (the radius is
// conservative, so the grid may never be the one to drop it).
TEST(SpatialIndex, ReceiverExactlyAtRadiusMatchesDensePath) {
  const double cutoff = -88.0;
  const WifiPhy::Config config;  // 16 dBm, 11b
  LogDistanceLossModel probe(3.0);
  const double radius =
      probe.MaxRangeMeters(config.tx_power_dbm, TimingFor(config.standard).frequency_hz, cutoff);
  ASSERT_TRUE(std::isfinite(radius));

  std::vector<Offer> streams[2];
  for (const bool bounded : {false, true}) {
    Simulator sim;
    Channel channel{&sim, MakeLogDistanceLoss(bounded), Rng(1)};
    channel.SetRxCutoffDbm(cutoff);
    std::vector<Offer>& offers = streams[bounded ? 1 : 0];
    channel.AttachProbe([&offers](const RadioDevice* tx, const RadioDevice* rx, double dbm,
                                  Time d) {
      offers.emplace_back(tx->node_id(), rx->node_id(), dbm, d.seconds());
    });
    ConstantPositionMobility pos_a{{0, 0, 0}};
    ConstantPositionMobility pos_b{{radius, 0, 0}};          // the knife edge
    ConstantPositionMobility pos_c{{radius * 1.0001, 0, 0}};  // just beyond
    WifiPhy a{&sim, config, Rng(2)};
    WifiPhy b{&sim, config, Rng(3)};
    WifiPhy c{&sim, config, Rng(4)};
    a.AttachChannel(&channel, 0, &pos_a);
    b.AttachChannel(&channel, 1, &pos_b);
    c.AttachChannel(&channel, 2, &pos_c);
    const Packet p(100);
    channel.Send(&a, p, MakeWifiSignal(ModesFor(PhyStandard::k80211b).back(), p.size(), false));
    sim.RunUntil(Time::Seconds(1));
  }
  EXPECT_EQ(streams[0], streams[1]);
}

// Moving nodes live on the bypass list: a mover is offered the frame
// whenever its instantaneous power clears the cutoff, wherever it is — the
// grid never consults cells for it.
TEST(SpatialIndex, MovingReceiverBypassesGrid) {
  Simulator sim;
  Channel channel{&sim, std::make_unique<LogDistanceLossModel>(3.0), Rng(1)};
  channel.SetRxCutoffDbm(-80.0);  // range ~=~ 21 m
  ConstantPositionMobility pos_a{{0, 0, 0}};
  ConstantPositionMobility pos_b{{10, 0, 0}};
  // Starts 1 km out, drives through the sender at 100 m/s.
  ConstantVelocityMobility mover{{1000, 0, 0}, {-100, 0, 0}};
  WifiPhy a{&sim, {}, Rng(2)};
  WifiPhy b{&sim, {}, Rng(3)};
  WifiPhy m{&sim, {}, Rng(4)};
  a.AttachChannel(&channel, 0, &pos_a);
  b.AttachChannel(&channel, 1, &pos_b);
  m.AttachChannel(&channel, 2, &mover);

  const Packet p(100);
  const WifiMode mode = ModesFor(PhyStandard::k80211b).back();
  uint64_t offers_at_start = 0;
  uint64_t offers_at_passby = 0;
  sim.Schedule(Time::Zero(), [&] {
    // Mover 1 km out: suppressed.
    channel.Send(&a, p, MakeWifiSignal(mode, p.size(), false));
    offers_at_start = channel.send_stats().offers;
  });
  sim.Schedule(Time::Seconds(10), [&] {
    // Mover at the origin: delivered.
    channel.Send(&a, p, MakeWifiSignal(mode, p.size(), false));
    offers_at_passby = channel.send_stats().offers;
  });
  sim.RunUntil(Time::Seconds(11));

  EXPECT_EQ(offers_at_start, 1u);               // b only
  EXPECT_EQ(offers_at_passby, offers_at_start + 2u);  // b and the mover
  // One grid build covers both sends: the mover's motion must not count as
  // a topology change.
  EXPECT_EQ(channel.send_stats().grid_rebuilds, 1u);
}

}  // namespace
}  // namespace wlansim
