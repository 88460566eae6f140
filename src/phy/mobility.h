// Node mobility models. The channel queries positions at transmission time,
// so movement continuously affects path loss without per-step events.

#ifndef WLANSIM_PHY_MOBILITY_H_
#define WLANSIM_PHY_MOBILITY_H_

#include <memory>
#include <vector>

#include "core/random.h"
#include "core/time.h"
#include "core/vector3.h"

namespace wlansim {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual Vector3 PositionAt(Time now) = 0;

  // True when the position never changes on its own over simulated time.
  // The channel's link cache only memoizes propagation between two static
  // nodes; continuously moving models return false and bypass it.
  virtual bool IsStatic() const { return false; }

  // Bumped every time the position is changed externally (teleports,
  // scenario reconfiguration). Lets cache entries for static nodes go stale
  // without any explicit invalidation call — dirty-marking by comparison.
  virtual uint64_t PositionEpoch() const { return 0; }

  // The channel's spatial receiver grid registers its topology-generation
  // counter here; NotifyPositionMutation() bumps it together with
  // PositionEpoch(), so position-derived state (grid cell assignments) can
  // detect a teleport with one integer compare per transmission instead of
  // scanning every node's epoch. A subclass that mutates its position
  // externally must call NotifyPositionMutation() alongside its epoch bump;
  // continuously moving models (IsStatic() == false) never need to — they
  // bypass position-derived caches entirely.
  void RegisterMutationCounter(uint64_t* counter) { mutation_counter_ = counter; }

 protected:
  void NotifyPositionMutation() {
    if (mutation_counter_ != nullptr) {
      ++*mutation_counter_;
    }
  }

 private:
  uint64_t* mutation_counter_ = nullptr;
};

class ConstantPositionMobility final : public MobilityModel {
 public:
  explicit ConstantPositionMobility(Vector3 position) : position_(position) {}
  Vector3 PositionAt(Time) override { return position_; }
  void SetPosition(Vector3 position) {
    position_ = position;
    ++epoch_;
    NotifyPositionMutation();
  }

  bool IsStatic() const override { return true; }
  uint64_t PositionEpoch() const override { return epoch_; }

 private:
  Vector3 position_;
  uint64_t epoch_ = 0;
};

// Straight-line motion from `start` at `velocity` (m/s) beginning at t=0.
class ConstantVelocityMobility final : public MobilityModel {
 public:
  ConstantVelocityMobility(Vector3 start, Vector3 velocity) : start_(start), velocity_(velocity) {}

  Vector3 PositionAt(Time now) override { return start_ + velocity_ * now.seconds(); }

 private:
  Vector3 start_;
  Vector3 velocity_;
};

// Random waypoint inside an axis-aligned rectangle [0,w]×[0,h] at z=0:
// pick a destination uniformly, travel at a uniform random speed, pause,
// repeat. Legs are generated lazily and deterministically from the rng.
class RandomWaypointMobility final : public MobilityModel {
 public:
  RandomWaypointMobility(double width, double height, double min_speed, double max_speed,
                         Time pause, Rng rng)
      : width_(width),
        height_(height),
        min_speed_(min_speed),
        max_speed_(max_speed),
        pause_(pause),
        rng_(rng) {
    legs_.push_back(Leg{Time::Zero(), Time::Zero(), RandomPoint(), RandomPoint()});
    FinishLeg(legs_.back());
  }

  Vector3 PositionAt(Time now) override {
    while (legs_.back().arrive + pause_ < now) {
      Leg next;
      next.depart = legs_.back().arrive + pause_;
      next.from = legs_.back().to;
      next.to = RandomPoint();
      FinishLeg(next);
      legs_.push_back(next);
    }
    // Binary search the containing leg.
    size_t lo = 0;
    size_t hi = legs_.size();
    while (lo + 1 < hi) {
      const size_t mid = (lo + hi) / 2;
      if (legs_[mid].depart <= now) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const Leg& leg = legs_[lo];
    if (now >= leg.arrive) {
      return leg.to;  // pausing
    }
    const double f = (now - leg.depart) / (leg.arrive - leg.depart);
    return leg.from + (leg.to - leg.from) * f;
  }

 private:
  struct Leg {
    Time depart;
    Time arrive;
    Vector3 from;
    Vector3 to;
  };

  Vector3 RandomPoint() {
    return Vector3{rng_.Uniform(0.0, width_), rng_.Uniform(0.0, height_), 0.0};
  }

  void FinishLeg(Leg& leg) {
    const double speed = rng_.Uniform(min_speed_, max_speed_);
    const double distance = leg.from.DistanceTo(leg.to);
    leg.arrive = leg.depart + Time::Seconds(distance / std::max(speed, 0.01));
  }

  double width_;
  double height_;
  double min_speed_;
  double max_speed_;
  Time pause_;
  Rng rng_;
  std::vector<Leg> legs_;
};

}  // namespace wlansim

#endif  // WLANSIM_PHY_MOBILITY_H_
