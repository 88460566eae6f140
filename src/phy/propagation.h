// Propagation loss and delay models.
//
// Loss models map (tx position, rx position, carrier frequency) to received
// power. They may be chained (e.g. log-distance + shadowing).

#ifndef WLANSIM_PHY_PROPAGATION_H_
#define WLANSIM_PHY_PROPAGATION_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

#include "core/flat_hash.h"
#include "core/random.h"
#include "core/time.h"
#include "core/vector3.h"

namespace wlansim {

class PropagationLossModel {
 public:
  virtual ~PropagationLossModel() = default;

  // Received power in dBm for a transmission at `tx_power_dbm`.
  // `link_id` identifies the (tx, rx) pair for models with per-link state
  // (shadowing); pass the same id for the same ordered pair.
  virtual double RxPowerDbm(double tx_power_dbm, const Vector3& tx_pos, const Vector3& rx_pos,
                            double frequency_hz, uint64_t link_id) = 0;

  // Conservative interference radius: a distance R such that RxPowerDbm is
  // guaranteed below `cutoff_dbm` for every receiver farther than R from the
  // transmitter. The channel's spatial receiver grid prunes receivers
  // outside R; the exact per-receiver cutoff check still runs inside it, so
  // R only has to be an upper bound, never tight. The default (infinity)
  // means "no bound can be promised": position-independent models
  // (MatrixLossModel) and models with unbounded per-link terms (log-normal
  // shadowing) return it, which makes the channel's grid one cell holding
  // every receiver.
  virtual double MaxRangeMeters(double tx_power_dbm, double frequency_hz,
                                double cutoff_dbm) const {
    (void)tx_power_dbm;
    (void)frequency_hz;
    (void)cutoff_dbm;
    return std::numeric_limits<double>::infinity();
  }

  // Bumped by every mutation that changes future RxPowerDbm results for
  // unchanged inputs (e.g. MatrixLossModel::SetLoss). The channel's link
  // cache compares it like a mobility position epoch, so mid-run loss edits
  // invalidate memoized rows automatically. Internal first-use memoization
  // (a shadowing draw) is not a mutation: replaying the same inputs still
  // yields the same power.
  uint64_t MutationEpoch() const { return mutation_epoch_; }

 protected:
  void BumpMutationEpoch() { ++mutation_epoch_; }

 private:
  uint64_t mutation_epoch_ = 0;
};

// Friis free-space: Pr = Pt + 20log10(c / (4 pi f d)). Below 1 m the model
// clamps to the 1 m loss (near field).
class FreeSpaceLossModel final : public PropagationLossModel {
 public:
  double RxPowerDbm(double tx_power_dbm, const Vector3& tx_pos, const Vector3& rx_pos,
                    double frequency_hz, uint64_t link_id) override;
  double MaxRangeMeters(double tx_power_dbm, double frequency_hz,
                        double cutoff_dbm) const override;
};

// Log-distance: PL(d) = PL(d0) + 10 n log10(d/d0), PL(d0) from Friis at the
// reference distance, with optional log-normal shadowing (one static draw
// per link, the standard "quasi-static" model).
class LogDistanceLossModel final : public PropagationLossModel {
 public:
  explicit LogDistanceLossModel(double exponent, double shadowing_sigma_db = 0.0,
                                uint64_t shadowing_seed = 1);

  double RxPowerDbm(double tx_power_dbm, const Vector3& tx_pos, const Vector3& rx_pos,
                    double frequency_hz, uint64_t link_id) override;

  // Exact inversion of the deterministic log-distance curve. With shadowing
  // enabled (sigma > 0) the per-link Gaussian term is unbounded, so no
  // finite radius can be promised and the default (infinity) is returned.
  double MaxRangeMeters(double tx_power_dbm, double frequency_hz,
                        double cutoff_dbm) const override;

 private:
  double exponent_;
  double sigma_db_;
  Rng rng_;
  // Per-link quasi-static shadowing draws, keyed by link id. Flat hash: the
  // lookup sits on the per-transmission hot path.
  FlatHash64<double> link_shadowing_db_;
};

// Explicit per-link loss in dB; unlisted links get `default_loss_db`. The
// tool for constructing exact hidden-terminal topologies.
class MatrixLossModel final : public PropagationLossModel {
 public:
  explicit MatrixLossModel(double default_loss_db = 200.0) : default_loss_db_(default_loss_db) {}

  // Symmetric: sets loss for (a, b) and (b, a). Node ids are the caller's
  // (net-layer) ids, combined into link ids via MakeLinkId.
  void SetLoss(uint32_t node_a, uint32_t node_b, double loss_db);

  static uint64_t MakeLinkId(uint32_t tx_node, uint32_t rx_node) {
    return (static_cast<uint64_t>(tx_node) << 32) | rx_node;
  }

  double RxPowerDbm(double tx_power_dbm, const Vector3& tx_pos, const Vector3& rx_pos,
                    double frequency_hz, uint64_t link_id) override;

 private:
  double default_loss_db_;
  FlatHash64<double> loss_db_;
};

class PropagationDelayModel {
 public:
  virtual ~PropagationDelayModel() = default;
  virtual Time Delay(const Vector3& a, const Vector3& b) = 0;
};

// Speed-of-light delay.
class ConstantSpeedDelayModel final : public PropagationDelayModel {
 public:
  Time Delay(const Vector3& a, const Vector3& b) override {
    constexpr double kC = 299'792'458.0;
    return Time::Seconds(a.DistanceTo(b) / kC);
  }
};

}  // namespace wlansim

#endif  // WLANSIM_PHY_PROPAGATION_H_
