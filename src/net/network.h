// Scenario assembly: a Network owns the simulator, the radio channel, every
// node and the shared flow statistics — the one-stop public API used by the
// examples and benchmarks.
//
//   Network net(Network::Params{.seed = 42});
//   net.UseLogDistanceLoss(3.0);
//   Node* ap  = net.AddNode({.role = MacRole::kAp,  .standard = PhyStandard::k80211g});
//   Node* sta = net.AddNode({.role = MacRole::kSta, .standard = PhyStandard::k80211g,
//                            .position = {20, 0, 0}});
//   net.StartAll();
//   auto* app = sta->AddTraffic<SaturatedTraffic>(ap->address(), /*flow=*/1, 1500);
//   app->Start(Time::Seconds(1));
//   net.Run(Time::Seconds(11));
//   double mbps = net.flow_stats().GoodputMbps(1);

#ifndef WLANSIM_NET_NETWORK_H_
#define WLANSIM_NET_NETWORK_H_

#include <memory>
#include <vector>

#include "core/random.h"
#include "core/simulator.h"
#include "net/node.h"
#include "phy/channel.h"
#include "stats/flow_stats.h"

namespace wlansim {

class Network {
 public:
  struct Params {
    uint64_t seed = 1;
  };

  Network() : Network(Params{}) {}
  explicit Network(Params params);

  // Channel configuration — call one loss-model setter before AddNode.
  void UseLogDistanceLoss(double exponent, double shadowing_sigma_db = 0.0);
  // Returns the matrix for explicit per-link loss topologies.
  MatrixLossModel* UseMatrixLoss(double default_loss_db = 200.0);
  void UseRayleighFading();

  // Channel reception cutoff (see Channel). Creates the channel on demand,
  // so pick the loss/fading models first; after that it may be called at
  // any point, even mid-run.
  void SetRxCutoffDbm(double dbm);

  Node* AddNode(const Node::Config& config);

  // Calls WifiMac::Start() on every node (APs beacon, STAs scan).
  void StartAll();

  // Runs the simulation until the given absolute time.
  void Run(Time until) { sim_.RunUntil(until); }

  Simulator& sim() { return sim_; }
  Channel& channel() { return *channel_; }
  FlowStats& flow_stats() { return flow_stats_; }
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  Rng ForkRng(std::string_view stream) const { return rng_.Fork(stream); }

 private:
  void EnsureChannel();

  Simulator sim_;
  Rng rng_;
  std::unique_ptr<Channel> channel_;
  FlowStats flow_stats_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<PropagationLossModel> pending_loss_;
  std::unique_ptr<FadingModel> pending_fading_;
};

}  // namespace wlansim

#endif  // WLANSIM_NET_NETWORK_H_
