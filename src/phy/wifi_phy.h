// Half-duplex 802.11 PHY state machine.
//
// States: IDLE, CCA_BUSY (energy above threshold but no decodable frame),
// RX (locked onto a preamble), TX. The PHY reports state transitions to a
// listener (the MAC's channel-access manager) and delivers decoded frames —
// with a success flag from the interference/error model — to a receive
// callback. Preamble capture: a new frame arriving during the preamble of
// the current one steals the receiver if its SINR exceeds the capture
// margin.

#ifndef WLANSIM_PHY_WIFI_PHY_H_
#define WLANSIM_PHY_WIFI_PHY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/packet.h"
#include "core/random.h"
#include "core/simulator.h"
#include "phy/error_model.h"
#include "phy/interference.h"
#include "phy/mobility.h"
#include "phy/radio_device.h"
#include "phy/wifi_mode.h"

namespace wlansim {

class Channel;

// MAC-side observer of medium state. Durations are best-effort previews;
// the matching end notification is authoritative.
class PhyListener {
 public:
  virtual ~PhyListener() = default;
  virtual void NotifyRxStart(Time duration) = 0;
  virtual void NotifyRxEnd(bool success) = 0;
  virtual void NotifyTxStart(Time duration) = 0;
  virtual void NotifyCcaBusyStart(Time duration) = 0;
};

// Reception metadata handed to the MAC with each frame.
struct RxInfo {
  double rssi_dbm = 0.0;
  double sinr = 0.0;  // linear, payload average
  WifiMode mode = BaseModeFor(PhyStandard::k80211b);
  bool success = false;  // frame passed the PHY error model
};

// The reference RadioDevice implementation. The RadioDevice ops face the
// channel; everything else (listener, receive callback, sleep, state
// machine) is the MAC-facing API, unchanged by the radio seam.
class WifiPhy : public RadioDevice {
 public:
  struct Config {
    PhyStandard standard = PhyStandard::k80211b;
    double tx_power_dbm = 16.0;
    double noise_figure_db = 7.0;
    // Signals below this never lock the receiver (preamble detection).
    double preamble_detect_dbm = -95.0;
    // Energy-detect CCA threshold for non-decodable energy.
    double ed_threshold_dbm = -62.0;
    // SINR (dB) a newcomer needs over the in-progress frame to capture the
    // receiver during the preamble.
    double capture_margin_db = 10.0;
    uint8_t channel_number = 1;
    bool short_preamble = false;
    // Models a non-802.11 ISM-band device (microwave oven, analog video
    // sender): its emissions are pure energy at every receiver.
    bool transmissions_undecodable = false;
  };

  WifiPhy(Simulator* sim, Config config, Rng rng);

  // Wiring.
  void AttachChannel(Channel* channel, uint32_t node_id, MobilityModel* mobility);
  // Swaps the mobility model instance (Node::SetMobility). The channel is
  // notified so position-derived state (the receiver grid) tracks the new model.
  void SetMobility(MobilityModel* mobility);
  void SetListener(PhyListener* listener) { listener_ = listener; }
  using ReceiveCallback = std::function<void(Packet, const RxInfo&)>;
  void SetReceiveCallback(ReceiveCallback cb) { receive_cb_ = std::move(cb); }

  enum class State : uint8_t { kIdle, kCcaBusy, kRx, kTx, kSleep };
  State state() const { return state_; }

  // True when the medium is idle for MAC contention purposes (no RX/TX and
  // energy below the ED threshold).
  bool IsIdle() const { return state_ == State::kIdle; }

  // Starts transmitting `packet` at `mode`. The MAC must have won access;
  // transmitting while receiving aborts the reception (transmit overrides).
  void StartTx(Packet packet, const WifiMode& mode);

  // Called by the channel when a signal arrives. `decodable` is false for
  // emissions from non-802.11 devices (energy only).
  void StartRx(Packet packet, const WifiMode& mode, bool short_preamble, double rx_power_dbm,
               bool decodable = true);

  // Powers the radio down/up (802.11 power save). Sleeping aborts any
  // reception in progress; arriving signals are neither decoded nor counted
  // for CCA while asleep.
  void SetSleep(bool sleep);
  bool IsAsleep() const { return state_ == State::kSleep; }

  // Retunes the radio (roaming/scanning). Any in-flight reception is lost.
  void SetChannelNumber(uint8_t number);

  // RadioDevice ops (the channel-facing surface).
  RadioCapabilities capabilities() const override;
  uint8_t channel_number() const override { return config_.channel_number; }
  uint32_t node_id() const override { return node_id_; }
  MobilityModel* mobility() const override { return mobility_; }
  // Protocol-matched signals go through the 802.11 receive state machine
  // (StartRx); anything else lands as interference energy only.
  void Deliver(Packet packet, const SignalParams& signal, double rx_power_dbm) override;

  const Config& config() const { return config_; }
  PhyTiming timing() const { return TimingFor(config_.standard); }
  double noise_w() const { return noise_w_; }

  // Simple counters for diagnostics and tests.
  struct Counters {
    uint64_t tx_frames = 0;
    uint64_t rx_ok = 0;
    uint64_t rx_error = 0;
    uint64_t rx_dropped_busy = 0;    // arrived while TX or below detection
    uint64_t rx_captured = 0;        // receptions stolen by capture
    uint64_t rx_dropped_sleeping = 0;
  };
  const Counters& counters() const { return counters_; }

  // Interference-tracker work counters (signals scanned, chunks computed,
  // cleanup drops, timeline merges) — the cache_stats() analogue for the
  // SINR chunking hot path.
  const InterferenceTracker::Stats& interference_stats() const { return interference_.stats(); }

  // Radio power draw per state, watts. Defaults are the classic Feeney &
  // Nilsson WaveLAN measurements (2001).
  struct PowerProfile {
    double tx_w = 1.65;
    double rx_w = 1.40;
    double listen_w = 1.15;  // idle + CCA-busy listening
    double sleep_w = 0.045;
  };

  // Cumulative time spent in each radio state since construction, through
  // `now` (pass sim->Now()).
  struct StateTimes {
    Time tx;
    Time rx;
    Time listen;  // idle + CCA busy
    Time sleep;

    double EnergyJoules(const PowerProfile& p) const {
      return tx.seconds() * p.tx_w + rx.seconds() * p.rx_w + listen.seconds() * p.listen_w +
             sleep.seconds() * p.sleep_w;
    }
    double EnergyJoules() const { return EnergyJoules(PowerProfile{}); }
  };
  StateTimes GetStateTimes(Time now) const;

 private:
  struct Reception {
    uint64_t signal_id;
    Packet packet;
    WifiMode mode;
    Time start;
    Time payload_start;
    Time end;
    double rx_power_dbm;
    EventId end_event;
  };

  // PLCP header length in bits for the error model (SIGNAL/PLCP fields).
  static uint64_t HeaderBits(const WifiMode& mode);

  // Whether this receiver's PHY family can demodulate `mode` at all.
  bool CanDecode(const WifiMode& mode) const;

  void BeginReception(Packet packet, const WifiMode& mode, bool short_preamble,
                      double rx_power_dbm, uint64_t signal_id);
  // Cancels the in-flight reception (sleep, retune, transmit override or
  // capture): unpins its signal and notifies the listener of the failure.
  void AbortReception();
  void EndReception();
  void EndTx();
  void ReevaluateCca();
  void SetState(State next);

  Simulator* sim_;
  Config config_;
  Rng rng_;
  uint32_t node_id_ = 0;
  MobilityModel* mobility_ = nullptr;
  PhyListener* listener_ = nullptr;
  ReceiveCallback receive_cb_;

  DefaultErrorRateModel error_model_;
  InterferenceTracker interference_;
  double noise_w_;

  State state_ = State::kIdle;
  Time last_state_change_;
  StateTimes state_times_;
  std::optional<Reception> current_rx_;
  Time tx_end_;
  bool sleep_pending_ = false;  // sleep requested mid-TX; applied at EndTx
  Time cca_busy_until_;
  EventId cca_end_event_;
  Counters counters_;
};

}  // namespace wlansim

#endif  // WLANSIM_PHY_WIFI_PHY_H_
