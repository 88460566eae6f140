#include "net/network.h"

#include <cassert>

namespace wlansim {

Network::Network(Params params) : rng_(params.seed) {}

void Network::UseLogDistanceLoss(double exponent, double shadowing_sigma_db) {
  assert(channel_ == nullptr && "configure the loss model before adding nodes");
  pending_loss_ = std::make_unique<LogDistanceLossModel>(exponent, shadowing_sigma_db,
                                                         rng_.Fork("shadowing").NextU64());
}

MatrixLossModel* Network::UseMatrixLoss(double default_loss_db) {
  assert(channel_ == nullptr && "configure the loss model before adding nodes");
  auto model = std::make_unique<MatrixLossModel>(default_loss_db);
  MatrixLossModel* raw = model.get();
  pending_loss_ = std::move(model);
  return raw;
}

void Network::UseRayleighFading() {
  assert(channel_ == nullptr && "configure fading before adding nodes");
  pending_fading_ = std::make_unique<RayleighFading>();
}

void Network::SetRxCutoffDbm(double dbm) {
  EnsureChannel();
  channel_->SetRxCutoffDbm(dbm);
}

void Network::EnsureChannel() {
  if (channel_ != nullptr) {
    return;
  }
  if (pending_loss_ == nullptr) {
    pending_loss_ = std::make_unique<LogDistanceLossModel>(3.0);
  }
  channel_ = std::make_unique<Channel>(&sim_, std::move(pending_loss_), rng_.Fork("channel"));
  if (pending_fading_ != nullptr) {
    channel_->SetFading(std::move(pending_fading_));
  }
}

Node* Network::AddNode(const Node::Config& config) {
  EnsureChannel();
  const auto id = static_cast<uint32_t>(nodes_.size());
  auto node = std::make_unique<Node>(&sim_, channel_.get(), id, config,
                                     rng_.Fork("node" + std::to_string(id)), &flow_stats_);
  Node* raw = node.get();
  nodes_.push_back(std::move(node));
  return raw;
}

void Network::StartAll() {
  for (auto& node : nodes_) {
    node->mac().Start();
  }
}

}  // namespace wlansim
