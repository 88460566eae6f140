// Management plane of WifiMac: beaconing (AP), passive scanning,
// open-system authentication, association, beacon-loss roaming (STA).

#include <algorithm>
#include <cassert>

#include "mac/wifi_mac.h"

namespace wlansim {
namespace {

constexpr Time kMgmtResponseTimeout = Time::Millis(30);
constexpr uint8_t kMgmtMaxAttempts = 4;
constexpr Time kRescanDelay = Time::Millis(200);

}  // namespace

void WifiMac::Start() {
  switch (config_.role) {
    case MacRole::kAp:
      // Stagger the first beacon a little so co-located APs do not collide
      // forever (APs share the deterministic seed otherwise).
      sim_->Schedule(Time::Micros(rng_.UniformInt(0, 2000)), [this] { SendBeacon(); });
      break;
    case MacRole::kSta:
      StartScan();
      break;
    case MacRole::kAdhoc:
      break;  // no management plane in IBSS mode
  }
}

void WifiMac::EnqueueMgmt(const MacAddress& dest, FrameSubtype subtype,
                          std::vector<uint8_t> body) {
  MacQueue::Item item;
  item.msdu = Packet{std::span<const uint8_t>(body)};
  item.dest = dest;
  item.src = config_.address;
  item.is_management = true;
  item.mgmt_subtype = static_cast<uint8_t>(subtype);
  acs_[MgmtAcIndex()].queue.EnqueueFront(std::move(item));
  MaybeRequestAccess();
}

// --- AP side -----------------------------------------------------------------

void WifiMac::SendBeacon() {
  BeaconBody body;
  body.timestamp_us = static_cast<uint64_t>(sim_->Now().micros());
  body.beacon_interval_tu = static_cast<uint16_t>(config_.beacon_interval.micros() / 1024.0);
  body.ssid = config_.ssid;
  body.channel = phy_->channel_number();
  for (const auto& [addr, sta] : associated_stas_) {
    if (!sta.ps_buffer.empty()) {
      body.tim_aids.push_back(sta.aid);
    }
  }
  EnqueueMgmt(MacAddress::Broadcast(), FrameSubtype::kBeacon, body.Serialize());
  ScheduleBeacon();
}

void WifiMac::ScheduleBeacon() {
  sim_->Schedule(config_.beacon_interval, [this] { SendBeacon(); });
}

// --- STA side ----------------------------------------------------------------

void WifiMac::StartScan() {
  state_ = StaState::kScanning;
  scan_results_.clear();
  scan_index_ = 0;
  ScanNextChannel();
}

void WifiMac::ScanNextChannel() {
  if (state_ != StaState::kScanning) {
    return;
  }
  if (scan_index_ >= config_.scan_channels.size()) {
    FinishScan();
    return;
  }
  phy_->SetChannelNumber(config_.scan_channels[scan_index_]);
  ++scan_index_;
  sim_->Schedule(config_.scan_dwell, [this] { ScanNextChannel(); });
}

void WifiMac::FinishScan() {
  // Pick the strongest beacon whose SSID matched (filtered at rx time).
  const ScanResult* best = nullptr;
  for (const ScanResult& r : scan_results_) {
    if (best == nullptr || r.rssi_dbm > best->rssi_dbm) {
      best = &r;
    }
  }
  if (best == nullptr) {
    state_ = StaState::kIdle;
    sim_->Schedule(kRescanDelay, [this] { StartScan(); });
    return;
  }
  phy_->SetChannelNumber(best->channel);
  bssid_ = best->bssid;
  state_ = StaState::kAuthenticating;
  mgmt_attempts_ = 0;
  SendAuthRequest();
}

void WifiMac::SendAuthRequest() {
  if (state_ != StaState::kAuthenticating) {
    return;
  }
  if (++mgmt_attempts_ > kMgmtMaxAttempts) {
    state_ = StaState::kIdle;
    sim_->Schedule(kRescanDelay, [this] { StartScan(); });
    return;
  }
  AuthBody body;
  body.sequence = 1;
  EnqueueMgmt(bssid_, FrameSubtype::kAuthentication, body.Serialize());
  mgmt_timeout_.Cancel();
  mgmt_timeout_ = sim_->Schedule(kMgmtResponseTimeout, [this] { OnMgmtTimeout(); });
}

void WifiMac::SendAssocRequest() {
  if (state_ != StaState::kAssociating) {
    return;
  }
  if (++mgmt_attempts_ > kMgmtMaxAttempts) {
    state_ = StaState::kIdle;
    sim_->Schedule(kRescanDelay, [this] { StartScan(); });
    return;
  }
  AssocRequestBody body;
  body.ssid = config_.ssid;
  if (BaseMode().IsOfdm()) {
    body.capability |= AssocRequestBody::kCapErp;
  }
  EnqueueMgmt(bssid_, FrameSubtype::kAssocRequest, body.Serialize());
  mgmt_timeout_.Cancel();
  mgmt_timeout_ = sim_->Schedule(kMgmtResponseTimeout, [this] { OnMgmtTimeout(); });
}

void WifiMac::OnMgmtTimeout() {
  switch (state_) {
    case StaState::kAuthenticating:
      SendAuthRequest();
      break;
    case StaState::kAssociating:
      SendAssocRequest();
      break;
    default:
      break;
  }
}

void WifiMac::BecomeAssociated(const MacAddress& bssid, uint8_t channel) {
  (void)channel;
  mgmt_timeout_.Cancel();
  state_ = StaState::kAssociated;
  if (previous_bssid_ != MacAddress() && previous_bssid_ != bssid) {
    ++counters_.handoffs;
  }
  previous_bssid_ = bssid;
  bssid_ = bssid;
  last_beacon_rx_ = sim_->Now();
  watchdog_event_.Cancel();
  watchdog_event_ = sim_->Schedule(config_.beacon_interval, [this] { BeaconWatchdog(); });
  if (assoc_cb_) {
    assoc_cb_(true, bssid_);
  }
  MaybeRequestAccess();
  if (config_.power_save) {
    EnterPowerSave();
  }
}

void WifiMac::LoseAssociation() {
  state_ = StaState::kIdle;
  watchdog_event_.Cancel();
  if (assoc_cb_) {
    assoc_cb_(false, bssid_);
  }
  StartScan();
}

void WifiMac::BeaconWatchdog() {
  if (state_ != StaState::kAssociated) {
    return;
  }
  // A power-saving station intentionally skips listen_interval - 1 beacons
  // per cycle; scale the loss budget accordingly.
  const int64_t listen =
      config_.power_save ? std::max<int64_t>(config_.listen_interval, 1) : 1;
  const Time budget =
      config_.beacon_interval * (static_cast<int64_t>(config_.beacon_loss_limit) * listen);
  const Time silence = sim_->Now() - last_beacon_rx_;
  if (silence > budget) {
    LoseAssociation();
    return;
  }
  watchdog_event_ = sim_->Schedule(config_.beacon_interval * listen, [this] { BeaconWatchdog(); });
}

// --- Management frame reception ------------------------------------------------

void WifiMac::HandleManagement(const MacHeader& header, Packet packet, const RxInfo& info) {
  const bool for_me = header.addr1 == config_.address;
  const bool group = header.addr1.IsGroup();
  if (!for_me && !group) {
    return;
  }
  if (for_me) {
    SendAck(header.addr2, info.mode);
    if (IsDuplicate(header)) {
      ++counters_.rx_duplicates;
      return;
    }
  }

  switch (header.subtype) {
    case FrameSubtype::kBeacon: {
      auto body = BeaconBody::Deserialize(packet.bytes());
      if (!body.has_value() || config_.role != MacRole::kSta) {
        return;
      }
      ++counters_.beacons_received;
      if (state_ == StaState::kScanning && body->ssid == config_.ssid) {
        // addr3 is the BSSID in beacons; record the candidate.
        scan_results_.push_back(ScanResult{header.addr3, body->channel, info.rssi_dbm});
      } else if (state_ == StaState::kAssociated && header.addr3 == bssid_) {
        last_beacon_rx_ = sim_->Now();
        if (ps_cycle_active_) {
          HandleBeaconInPowerSave(*body);
        }
      }
      return;
    }
    case FrameSubtype::kAuthentication: {
      auto body = AuthBody::Deserialize(packet.bytes());
      if (!body.has_value()) {
        return;
      }
      if (config_.role == MacRole::kAp && body->sequence == 1) {
        AuthBody reply;
        reply.sequence = 2;
        reply.status = 0;
        EnqueueMgmt(header.addr2, FrameSubtype::kAuthentication, reply.Serialize());
      } else if (config_.role == MacRole::kSta && state_ == StaState::kAuthenticating &&
                 body->sequence == 2 && body->status == 0 && header.addr2 == bssid_) {
        mgmt_timeout_.Cancel();
        state_ = StaState::kAssociating;
        mgmt_attempts_ = 0;
        SendAssocRequest();
      }
      return;
    }
    case FrameSubtype::kAssocRequest: {
      if (config_.role != MacRole::kAp) {
        return;
      }
      auto body = AssocRequestBody::Deserialize(packet.bytes());
      if (!body.has_value() || body->ssid != config_.ssid) {
        return;
      }
      StaInfo info;
      info.aid = next_aid_;
      info.erp = body->IsErp();
      auto [it, inserted] = associated_stas_.try_emplace(header.addr2, std::move(info));
      if (inserted) {
        ++next_aid_;
      }
      AssocResponseBody reply;
      reply.status = 0;
      reply.aid = it->second.aid;
      EnqueueMgmt(header.addr2, FrameSubtype::kAssocResponse, reply.Serialize());
      return;
    }
    case FrameSubtype::kAssocResponse: {
      if (config_.role != MacRole::kSta || state_ != StaState::kAssociating) {
        return;
      }
      auto body = AssocResponseBody::Deserialize(packet.bytes());
      if (!body.has_value() || body->status != 0 || header.addr2 != bssid_) {
        return;
      }
      aid_ = body->aid;
      BecomeAssociated(bssid_, phy_->channel_number());
      return;
    }
    case FrameSubtype::kDeauthentication:
    case FrameSubtype::kDisassociation: {
      if (config_.role == MacRole::kSta && state_ == StaState::kAssociated &&
          header.addr2 == bssid_) {
        LoseAssociation();
      } else if (config_.role == MacRole::kAp) {
        associated_stas_.erase(header.addr2);
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace wlansim
