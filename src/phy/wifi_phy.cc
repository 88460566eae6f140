#include "phy/wifi_phy.h"

#include <cassert>
#include <utility>

#include "core/units.h"
#include "phy/channel.h"

namespace wlansim {

WifiPhy::WifiPhy(Simulator* sim, Config config, Rng rng)
    : sim_(sim),
      config_(config),
      rng_(rng),
      noise_w_(ThermalNoiseW(TimingFor(config.standard).channel_width_hz,
                             config.noise_figure_db)) {}

void WifiPhy::AttachChannel(Channel* channel, uint32_t node_id, MobilityModel* mobility) {
  // Identity and position must be in place before Attach: the channel reads
  // mobility() and capabilities() while registering.
  node_id_ = node_id;
  mobility_ = mobility;
  channel->Attach(this);
}

void WifiPhy::SetMobility(MobilityModel* mobility) {
  mobility_ = mobility;
  NotifyMobilityReplaced();
}

RadioCapabilities WifiPhy::capabilities() const {
  RadioCapabilities caps;
  caps.technology = config_.transmissions_undecodable ? "ism-energy" : "wifi";
  caps.protocol = RadioProtocol::kWifi80211;
  caps.tx_power_dbm = config_.tx_power_dbm;
  caps.frequency_hz = timing().frequency_hz;
  caps.rx_sensitivity_dbm = config_.preamble_detect_dbm;
  caps.can_receive = true;
  return caps;
}

void WifiPhy::Deliver(Packet packet, const SignalParams& signal, double rx_power_dbm) {
  if (signal.protocol != RadioProtocol::kWifi80211) {
    // Foreign-technology signal: opaque energy for the signal's airtime.
    const Time now = sim_->Now();
    interference_.AddSignal(now, now + signal.duration, DbmToW(rx_power_dbm));
    ReevaluateCca();
    return;
  }
  StartRx(std::move(packet), signal.mode, signal.short_preamble, rx_power_dbm, signal.decodable);
}

uint64_t WifiPhy::HeaderBits(const WifiMode& mode) {
  // OFDM SIGNAL field: 24 bits. DSSS PLCP header: 48 bits.
  return mode.IsOfdm() ? 24 : 48;
}

void WifiPhy::SetState(State next) {
  // Account the time spent in the state we are leaving.
  const Time now = sim_->Now();
  const Time elapsed = now - last_state_change_;
  switch (state_) {
    case State::kTx:
      state_times_.tx += elapsed;
      break;
    case State::kRx:
      state_times_.rx += elapsed;
      break;
    case State::kIdle:
    case State::kCcaBusy:
      state_times_.listen += elapsed;
      break;
    case State::kSleep:
      state_times_.sleep += elapsed;
      break;
  }
  last_state_change_ = now;
  state_ = next;
}

WifiPhy::StateTimes WifiPhy::GetStateTimes(Time now) const {
  StateTimes t = state_times_;
  const Time elapsed = now - last_state_change_;
  switch (state_) {
    case State::kTx:
      t.tx += elapsed;
      break;
    case State::kRx:
      t.rx += elapsed;
      break;
    case State::kIdle:
    case State::kCcaBusy:
      t.listen += elapsed;
      break;
    case State::kSleep:
      t.sleep += elapsed;
      break;
  }
  return t;
}

void WifiPhy::SetSleep(bool sleep) {
  if (!sleep) {
    sleep_pending_ = false;
  }
  if (sleep == (state_ == State::kSleep)) {
    return;
  }
  if (sleep) {
    if (state_ == State::kTx) {
      // A transmission (typically the ACK for the frame that triggered the
      // doze decision) is still on the air: power down when it completes.
      sleep_pending_ = true;
      return;
    }
    if (current_rx_.has_value()) {
      AbortReception();
    }
    cca_end_event_.Cancel();
    SetState(State::kSleep);
  } else {
    SetState(State::kIdle);
    ReevaluateCca();
  }
}

void WifiPhy::StartTx(Packet packet, const WifiMode& mode) {
  assert(channel() != nullptr);
  assert(state_ != State::kSleep && "MAC must wake the radio before transmitting");
  sleep_pending_ = false;
  const Time now = sim_->Now();

  if (state_ == State::kRx && current_rx_.has_value()) {
    // Transmit overrides reception (the MAC should avoid this; control
    // responses are exempt from CCA by design, e.g. ACK after SIFS).
    AbortReception();
  }
  cca_end_event_.Cancel();

  const Time duration = FrameDuration(mode, packet.size(), config_.short_preamble);
  SetState(State::kTx);
  tx_end_ = now + duration;
  ++counters_.tx_frames;
  if (listener_ != nullptr) {
    listener_->NotifyTxStart(duration);
  }
  channel()->Send(this, packet,
                  MakeWifiSignal(mode, packet.size(), config_.short_preamble,
                                 !config_.transmissions_undecodable));
  sim_->Schedule(duration, [this] { EndTx(); });
}

void WifiPhy::EndTx() {
  if (sleep_pending_) {
    sleep_pending_ = false;
    SetState(State::kSleep);
    return;
  }
  SetState(State::kIdle);
  ReevaluateCca();
}

bool WifiPhy::CanDecode(const WifiMode& mode) const {
  // A DSSS-only receiver (802.11 / 802.11b) cannot demodulate OFDM: the
  // frame is pure energy to it. OFDM receivers in the 2.4 GHz band (11g) are
  // required to decode DSSS; 11a is 5 GHz-only but channel numbering already
  // isolates bands, so cross-family DSSS reception is allowed there too.
  if (mode.IsOfdm() && (config_.standard == PhyStandard::k80211 ||
                        config_.standard == PhyStandard::k80211b)) {
    return false;
  }
  return true;
}

void WifiPhy::StartRx(Packet packet, const WifiMode& mode, bool short_preamble,
                      double rx_power_dbm, bool decodable) {
  const Time now = sim_->Now();
  const Time duration = FrameDuration(mode, packet.size(), short_preamble);
  // The tracker expires ended signals itself (AddSignal triggers the
  // legacy-compatible purge); no periodic Cleanup call needed here.
  const uint64_t signal_id = interference_.AddSignal(now, now + duration, DbmToW(rx_power_dbm));

  if (!decodable || !CanDecode(mode)) {
    ReevaluateCca();  // energy-only: may hold CCA busy, never locks rx
    return;
  }

  switch (state_) {
    case State::kSleep:
      ++counters_.rx_dropped_sleeping;
      return;
    case State::kTx:
      ++counters_.rx_dropped_busy;  // half-duplex: deaf while transmitting
      return;
    case State::kRx: {
      assert(current_rx_.has_value());
      const bool in_preamble = now < current_rx_->payload_start;
      const double current_w = DbmToW(current_rx_->rx_power_dbm);
      const double newcomer_sinr = DbmToW(rx_power_dbm) / (noise_w_ + current_w);
      if (in_preamble && rx_power_dbm >= config_.preamble_detect_dbm &&
          RatioToDb(newcomer_sinr) >= config_.capture_margin_db) {
        // Capture: drop the current frame, lock onto the stronger one.
        ++counters_.rx_captured;
        AbortReception();
        BeginReception(std::move(packet), mode, short_preamble, rx_power_dbm, signal_id);
      } else {
        ++counters_.rx_dropped_busy;  // contributes interference only
      }
      return;
    }
    case State::kIdle:
    case State::kCcaBusy:
      if (rx_power_dbm >= config_.preamble_detect_dbm) {
        BeginReception(std::move(packet), mode, short_preamble, rx_power_dbm, signal_id);
      } else {
        ReevaluateCca();
      }
      return;
  }
}

void WifiPhy::BeginReception(Packet packet, const WifiMode& mode, bool short_preamble,
                             double rx_power_dbm, uint64_t signal_id) {
  const Time now = sim_->Now();
  const Time duration = FrameDuration(mode, packet.size(), short_preamble);
  const Time payload = PayloadDuration(mode, packet.size());

  cca_end_event_.Cancel();
  Reception rx;
  rx.signal_id = signal_id;
  rx.packet = std::move(packet);
  rx.mode = mode;
  rx.start = now;
  rx.payload_start = now + (duration - payload);
  rx.end = now + duration;
  rx.rx_power_dbm = rx_power_dbm;
  current_rx_ = std::move(rx);
  // Guard the reception's own signal record against tracker expiry for the
  // duration of the reception (EndReception still needs its power).
  interference_.PinSignal(signal_id);
  SetState(State::kRx);
  if (listener_ != nullptr) {
    listener_->NotifyRxStart(duration);
  }
  current_rx_->end_event = sim_->Schedule(duration, [this] { EndReception(); });
}

void WifiPhy::AbortReception() {
  assert(current_rx_.has_value());
  current_rx_->end_event.Cancel();
  current_rx_.reset();
  interference_.UnpinSignal();
  if (listener_ != nullptr) {
    listener_->NotifyRxEnd(false);
  }
}

void WifiPhy::EndReception() {
  assert(current_rx_.has_value());
  Reception rx = std::move(*current_rx_);
  current_rx_.reset();

  InterferenceTracker::ReceptionPlan plan;
  plan.signal_id = rx.signal_id;
  plan.start = rx.start;
  plan.payload_start = rx.payload_start;
  plan.end = rx.end;
  const WifiMode& base = BaseModeFor(rx.mode.standard);
  plan.header_mode = base;
  plan.payload_mode = rx.mode;
  plan.header_bits = HeaderBits(rx.mode);
  plan.payload_bits = rx.mode.IsOfdm() ? 16 + 8 * rx.packet.size() + 6 : 8 * rx.packet.size();
  plan.noise_w = noise_w_;

  // One shared chunk sweep yields both the success probability and the
  // payload-average SINR (bit-identical to evaluating them separately).
  const InterferenceTracker::ReceptionStats rx_stats =
      interference_.EvaluateReception(plan, error_model_);
  interference_.UnpinSignal();
  const bool ok = rng_.Chance(rx_stats.success_probability);

  RxInfo info;
  info.rssi_dbm = rx.rx_power_dbm;
  info.sinr = rx_stats.mean_sinr;
  info.mode = rx.mode;
  info.success = ok;

  if (ok) {
    ++counters_.rx_ok;
  } else {
    ++counters_.rx_error;
  }

  SetState(State::kIdle);
  ReevaluateCca();
  if (listener_ != nullptr) {
    listener_->NotifyRxEnd(ok);
  }
  if (receive_cb_) {
    receive_cb_(std::move(rx.packet), info);
  }
}

void WifiPhy::ReevaluateCca() {
  if (state_ == State::kRx || state_ == State::kTx || state_ == State::kSleep) {
    return;
  }
  const Time now = sim_->Now();
  const double threshold_w = DbmToW(config_.ed_threshold_dbm);
  const double total = interference_.TotalPowerW(now);
  if (total < threshold_w) {
    SetState(State::kIdle);
    return;
  }
  const Time until = interference_.TimeWhenPowerBelow(now, threshold_w);
  if (state_ == State::kCcaBusy && until <= cca_busy_until_) {
    return;  // already covered by an earlier notification
  }
  SetState(State::kCcaBusy);
  cca_busy_until_ = until;
  if (listener_ != nullptr) {
    listener_->NotifyCcaBusyStart(until - now);
  }
  cca_end_event_.Cancel();
  cca_end_event_ = sim_->Schedule(until - now, [this] { ReevaluateCca(); });
}

void WifiPhy::SetChannelNumber(uint8_t number) {
  if (number == config_.channel_number) {
    return;
  }
  if (current_rx_.has_value()) {
    AbortReception();
    SetState(State::kIdle);
  }
  cca_end_event_.Cancel();
  config_.channel_number = number;
  // Signals from the old channel are irrelevant now.
  interference_.Cleanup(Time::Max());
  if (state_ == State::kCcaBusy) {
    SetState(State::kIdle);
  }
}

}  // namespace wlansim
