// The dense reference for the channel's receiver grid. UnboundedRangeLoss
// computes exactly LogDistanceLossModel(3.0)'s received powers but keeps
// the default MaxRangeMeters (infinity), so a channel built on it can never
// bound a radius: its grid is the one cell holding every receiver in attach
// order. A channel on LogDistanceLossModel(3.0) with the same cutoff must
// reproduce its offer stream exactly while visiting at most as many.

#ifndef WLANSIM_TESTS_UNBOUNDED_RANGE_LOSS_H_
#define WLANSIM_TESTS_UNBOUNDED_RANGE_LOSS_H_

#include <cstdint>
#include <memory>

#include "phy/propagation.h"

namespace wlansim {

class UnboundedRangeLoss final : public PropagationLossModel {
 public:
  double RxPowerDbm(double tx_power_dbm, const Vector3& tx_pos, const Vector3& rx_pos,
                    double frequency_hz, uint64_t link_id) override {
    return inner_.RxPowerDbm(tx_power_dbm, tx_pos, rx_pos, frequency_hz, link_id);
  }

 private:
  LogDistanceLossModel inner_{3.0};
};

// LogDistanceLossModel(3.0), whose bounded radius lets the grid prune, or
// its unbounded-range twin.
inline std::unique_ptr<PropagationLossModel> MakeLogDistanceLoss(bool bounded) {
  if (bounded) {
    return std::make_unique<LogDistanceLossModel>(3.0);
  }
  return std::make_unique<UnboundedRangeLoss>();
}

}  // namespace wlansim

#endif  // WLANSIM_TESTS_UNBOUNDED_RANGE_LOSS_H_
