#include "mac/wifi_mac.h"

#include <algorithm>
#include <cassert>

namespace wlansim {
namespace {

// Extra slack on response timeouts beyond the nominal SIFS + response time,
// covering propagation and the receiver's slot-boundary decision.
Time ResponseSlack(const ChannelAccessManager::Params& p) {
  return p.slot * 2 + Time::Micros(1);
}

uint16_t DurationMicrosCeil(Time t) {
  const int64_t us = (t.picos() + 999'999) / 1'000'000;
  return static_cast<uint16_t>(std::min<int64_t>(us, 0x7FFF));
}

}  // namespace

WifiMac::WifiMac(Simulator* sim, WifiPhy* phy, Config config, Rng rng)
    : sim_(sim), phy_(phy), config_(std::move(config)), rng_(rng) {
  const PhyTiming timing =
      TimingFor(phy->config().standard, config_.cts_to_self_protection);
  const Time ack_at_base = AckDuration(BaseModeFor(phy->config().standard));

  base_params_.slot = timing.slot;
  base_params_.sifs = timing.sifs;
  base_params_.difs = timing.Difs();
  base_params_.eifs = timing.Eifs(ack_at_base);
  base_params_.cw_min = timing.cw_min;
  base_params_.cw_max = timing.cw_max;

  auto make_ac = [&](const char* name, Time aifs, uint32_t cw_min, uint32_t cw_max) {
    ChannelAccessManager::Params p = base_params_;
    p.difs = aifs;
    p.eifs = base_params_.sifs + ack_at_base + aifs;
    p.cw_min = cw_min;
    p.cw_max = cw_max;
    acs_.emplace_back(config_.queue_limit,
                      std::make_unique<ChannelAccessManager>(sim, p, rng_.Fork(name)), cw_min,
                      cw_max);
    const size_t index = acs_.size() - 1;
    acs_.back().access->SetAccessGrantedCallback([this, index] { OnAccessGranted(index); });
  };

  if (config_.qos_enabled) {
    // Index order matches AccessCategory values: BK, BE, VI, VO.
    for (size_t i = 0; i < kAccessCategoryCount; ++i) {
      const auto ac = static_cast<AccessCategory>(i);
      const EdcaParams edca = DefaultEdcaParams(ac, timing.cw_min, timing.cw_max);
      const Time aifs = timing.sifs + timing.slot * static_cast<int64_t>(edca.aifsn);
      make_ac(ToString(ac).c_str(), aifs, edca.cw_min, edca.cw_max);
    }
  } else {
    make_ac("dcf", base_params_.difs, timing.cw_min, timing.cw_max);
  }

  phy_->SetListener(this);
  phy_->SetReceiveCallback([this](Packet packet, const RxInfo& info) {
    OnPhyReceive(std::move(packet), info);
  });
}

// --- PhyListener fan-out -------------------------------------------------------

void WifiMac::NotifyRxStart(Time duration) {
  for (auto& ac : acs_) {
    ac.access->NotifyRxStart(duration);
  }
}
void WifiMac::NotifyRxEnd(bool success) {
  for (auto& ac : acs_) {
    ac.access->NotifyRxEnd(success);
  }
}
void WifiMac::NotifyTxStart(Time duration) {
  for (auto& ac : acs_) {
    ac.access->NotifyTxStart(duration);
  }
}
void WifiMac::NotifyCcaBusyStart(Time duration) {
  for (auto& ac : acs_) {
    ac.access->NotifyCcaBusyStart(duration);
  }
}

void WifiMac::UpdateNavAll(Time until) {
  for (auto& ac : acs_) {
    ac.access->UpdateNav(until);
  }
}

Time WifiMac::NavEnd() const {
  return acs_.front().access->nav_end();
}

// --- Modes / crypto helpers ----------------------------------------------------

const WifiMode& WifiMac::MgmtMode() const {
  if (phy_->config().standard == PhyStandard::k80211g) {
    return BaseModeFor(PhyStandard::k80211b);
  }
  return BaseMode();
}

const WifiMode& WifiMac::ProtectionMode() const {
  // CTS-to-self goes out at a rate every legacy (non-ERP) station decodes.
  static const WifiMode& dsss1 = BaseModeFor(PhyStandard::k80211b);
  return dsss1;
}

LinkCipher* WifiMac::CipherFor(const MacAddress& peer) {
  if (config_.cipher == CipherSuite::kOpen) {
    return nullptr;
  }
  auto it = ciphers_.find(peer);
  if (it == ciphers_.end()) {
    it = ciphers_.emplace(peer, CreateCipher(config_.cipher, config_.cipher_key)).first;
  }
  return it->second.get();
}

// --- Queueing --------------------------------------------------------------------

size_t WifiMac::AcIndexFor(uint8_t priority) const {
  if (!config_.qos_enabled) {
    return 0;
  }
  return static_cast<size_t>(AcForPriority(priority));
}

size_t WifiMac::MgmtAcIndex() const {
  // Management frames ride the highest-priority queue under EDCA.
  return config_.qos_enabled ? static_cast<size_t>(AccessCategory::kVoice) : 0;
}

bool WifiMac::Enqueue(Packet msdu, MacAddress dest, uint8_t priority) {
  MacQueue::Item item;
  msdu.meta().priority = priority;
  item.msdu = std::move(msdu);
  item.dest = dest;
  item.src = config_.address;
  item.priority = priority;
  if (!acs_[AcIndexFor(priority)].queue.Enqueue(std::move(item))) {
    return false;
  }
  MaybeRequestAccess();
  return true;
}

size_t WifiMac::QueueSize() const {
  size_t total = 0;
  for (const auto& ac : acs_) {
    total += ac.queue.size();
  }
  return total;
}

size_t WifiMac::QueueSizeForPriority(uint8_t priority) const {
  return acs_[AcIndexFor(priority)].queue.size();
}

uint16_t WifiMac::NextSequence(const MacAddress& dest) {
  uint16_t& counter = sequence_counters_[dest];
  counter = static_cast<uint16_t>((counter + 1) & 0x0FFF);
  return counter;
}

void WifiMac::MaybeRequestAccess() {
  if (phy_->IsAsleep() && QueueSize() > 0) {
    PsWake();
  }
  for (auto& ac : acs_) {
    if (ac.queue.IsEmpty() || ac.access->IsAccessRequested()) {
      continue;
    }
    const MacQueue::Item* next = ac.queue.Peek();
    if (config_.role == MacRole::kSta && !next->is_management &&
        state_ != StaState::kAssociated) {
      continue;  // hold data until associated
    }
    if (state_ == StaState::kScanning && !next->is_management) {
      continue;
    }
    ac.access->RequestAccess();
  }
}

void WifiMac::OnAccessGranted(size_t ac_index) {
  if (tx_.has_value()) {
    if (tx_->ac_index == ac_index) {
      // Retry of the in-flight exchange.
      StartFrameExchange();
      return;
    }
    // EDCA internal collision: another AC owns the transmitter. The loser
    // behaves exactly as after an external collision — double its CW and
    // contend again.
    ++counters_.internal_collisions;
    AcState& loser = acs_[ac_index];
    if (!loser.queue.IsEmpty()) {
      const uint32_t doubled =
          std::min(2 * loser.access->last_backoff_slots() + 1, loser.cw_max);
      loser.access->RequestAccess(std::max(doubled, loser.cw_min));
    }
    return;
  }
  auto item = acs_[ac_index].queue.Dequeue();
  // AP: frames for dozing stations are diverted into their PS buffer and
  // announced via the next beacon's TIM instead of being transmitted.
  while (item.has_value() && config_.role == MacRole::kAp && !item->is_management &&
         !item->ps_release && StaIsDozing(item->dest)) {
    ApBufferForDozing(std::move(*item));
    item = acs_[ac_index].queue.Dequeue();
  }
  if (!item.has_value()) {
    return;
  }

  TxContext tx;
  tx.item = std::move(*item);
  tx.ac_index = ac_index;
  tx.cw = acs_[ac_index].cw_min;
  tx.sequence = NextSequence(tx.item.dest);

  // Fragmentation plan (data only; management frames are small).
  const size_t msdu_size = tx.item.msdu.size();
  size_t cipher_overhead = 0;
  if (!tx.item.is_management && config_.cipher != CipherSuite::kOpen) {
    cipher_overhead = CipherTotalOverheadBytes(config_.cipher);
  }
  const size_t per_fragment_budget =
      config_.frag_threshold > kDataHeaderSize + kFcsSize + cipher_overhead
          ? config_.frag_threshold - kDataHeaderSize - kFcsSize - cipher_overhead
          : 256;
  if (!tx.item.is_management && msdu_size > per_fragment_budget) {
    size_t offset = 0;
    while (offset < msdu_size) {
      const size_t len = std::min(per_fragment_budget, msdu_size - offset);
      tx.fragments.emplace_back(offset, len);
      offset += len;
    }
  } else {
    tx.fragments.emplace_back(0, msdu_size);
  }

  tx_ = std::move(tx);
  StartFrameExchange();
}

void WifiMac::StartFrameExchange() {
  assert(tx_.has_value());
  const auto [offset, length] = tx_->fragments[tx_->current_fragment];
  (void)offset;

  // Select the data mode now so RTS decisions and durations are consistent.
  const bool broadcast = tx_->item.dest.IsGroup();
  if (tx_->item.is_management || broadcast) {
    tx_->data_mode = MgmtMode();
  } else if (rate_ != nullptr) {
    tx_->data_mode = rate_->SelectMode(tx_->item.dest, length, tx_->retries);
  } else {
    tx_->data_mode = BaseMode();
  }
  // An AP must not address a legacy (non-ERP) station with OFDM: clamp to
  // the fastest DSSS rate its radio can demodulate.
  if (config_.role == MacRole::kAp && tx_->data_mode.IsOfdm()) {
    auto it = associated_stas_.find(tx_->item.dest);
    if (it != associated_stas_.end() && !it->second.erp) {
      tx_->data_mode = ModesFor(PhyStandard::k80211b).back();
    }
  }

  size_t cipher_overhead = 0;
  if (!tx_->item.is_management && config_.cipher != CipherSuite::kOpen) {
    cipher_overhead = CipherTotalOverheadBytes(config_.cipher);
  }
  const size_t mpdu_size = kDataHeaderSize + length + cipher_overhead + kFcsSize;

  if (!broadcast && !tx_->item.is_management && mpdu_size > config_.rts_threshold) {
    SendRts();
  } else if (config_.cts_to_self_protection && tx_->data_mode.IsOfdm()) {
    SendCtsToSelf();
  } else {
    SendDataFragment();
  }
}

void WifiMac::SendRts() {
  assert(tx_.has_value());
  const auto [offset, length] = tx_->fragments[tx_->current_fragment];
  (void)offset;
  size_t cipher_overhead =
      config_.cipher != CipherSuite::kOpen ? CipherTotalOverheadBytes(config_.cipher) : 0;
  const size_t mpdu_size = kDataHeaderSize + length + cipher_overhead + kFcsSize;

  const WifiMode& ctl_mode = ControlResponseMode(tx_->data_mode);
  const bool sp = phy_->config().short_preamble;
  const Time data_dur = FrameDuration(tx_->data_mode, mpdu_size, sp);
  const Time ack_dur = AckDuration(ctl_mode, sp);
  const Time cts_dur = CtsDuration(ctl_mode, sp);

  MacHeader rts;
  rts.type = FrameType::kControl;
  rts.subtype = FrameSubtype::kRts;
  rts.addr1 = (config_.role == MacRole::kSta) ? bssid_ : tx_->item.dest;
  rts.addr2 = config_.address;
  rts.duration_us = DurationMicrosCeil(3 * Sifs() + cts_dur + data_dur + ack_dur);

  Packet frame = BuildMpdu(rts, {});
  ++counters_.tx_rts;
  tx_->awaiting_cts = true;
  tx_->awaiting_ack = false;

  const Time rts_dur = RtsDuration(ctl_mode, sp);
  const Time timeout = rts_dur + Sifs() + cts_dur + ResponseSlack(base_params_);
  response_timeout_.Cancel();
  response_timeout_ = sim_->Schedule(timeout, [this] { OnCtsTimeout(); });
  phy_->StartTx(std::move(frame), ctl_mode);
}

void WifiMac::SendCtsToSelf() {
  assert(tx_.has_value());
  const auto [offset, length] = tx_->fragments[tx_->current_fragment];
  (void)offset;
  size_t cipher_overhead =
      config_.cipher != CipherSuite::kOpen && !tx_->item.is_management
          ? CipherTotalOverheadBytes(config_.cipher)
          : 0;
  const size_t mpdu_size = kDataHeaderSize + length + cipher_overhead + kFcsSize;
  const bool sp = phy_->config().short_preamble;
  const Time data_dur = FrameDuration(tx_->data_mode, mpdu_size, sp);
  const Time ack_dur = AckDuration(ControlResponseMode(tx_->data_mode), sp);

  MacHeader cts;
  cts.type = FrameType::kControl;
  cts.subtype = FrameSubtype::kCts;
  cts.addr1 = config_.address;  // to self
  cts.duration_us = DurationMicrosCeil(2 * Sifs() + data_dur + ack_dur);

  Packet frame = BuildMpdu(cts, {});
  ++counters_.tx_cts;
  const Time cts_dur = CtsDuration(ProtectionMode(), sp);
  // Data follows one SIFS after the protection frame.
  sim_->Schedule(cts_dur + Sifs(), [this] {
    if (tx_.has_value()) {
      SendDataFragment();
    }
  });
  phy_->StartTx(std::move(frame), ProtectionMode());
}

void WifiMac::SendDataFragment() {
  assert(tx_.has_value());
  const auto [offset, length] = tx_->fragments[tx_->current_fragment];
  const bool broadcast = tx_->item.dest.IsGroup();
  const bool last_fragment = tx_->current_fragment + 1 == tx_->fragments.size();
  const bool sp = phy_->config().short_preamble;

  MacHeader h;
  if (tx_->item.is_management) {
    h.type = FrameType::kManagement;
    h.subtype = static_cast<FrameSubtype>(tx_->item.mgmt_subtype);
    h.addr1 = tx_->item.dest;
    h.addr2 = config_.address;
    h.addr3 = (config_.role == MacRole::kSta) ? bssid_ : config_.address;
  } else {
    h.type = FrameType::kData;
    h.subtype = tx_->item.is_null ? FrameSubtype::kNullData : FrameSubtype::kData;
    h.power_mgmt = tx_->item.pm_bit;
    h.more_data = tx_->item.more_data;
    switch (config_.role) {
      case MacRole::kAdhoc:
        h.addr1 = tx_->item.dest;
        h.addr2 = config_.address;
        h.addr3 = MacAddress();  // IBSS id (zero in this simulator)
        break;
      case MacRole::kSta:
        h.to_ds = true;
        h.addr1 = bssid_;
        h.addr2 = config_.address;
        h.addr3 = tx_->item.dest;
        break;
      case MacRole::kAp:
        h.from_ds = true;
        h.addr1 = tx_->item.dest;
        h.addr2 = config_.address;
        h.addr3 = tx_->item.src;
        break;
    }
  }
  h.sequence = tx_->sequence;
  h.fragment = static_cast<uint8_t>(tx_->current_fragment);
  h.more_fragments = !last_fragment;
  h.retry = tx_->retries > 0;

  // Body: the fragment's slice, optionally encrypted. Reserving the cipher
  // re-framing overhead up front makes the suite's header/trailer growth
  // realloc-free (Protect's own reserve becomes a no-op).
  auto msdu_bytes = tx_->item.msdu.bytes();
  std::vector<uint8_t> body;
  body.reserve(length + (tx_->item.is_management || config_.cipher == CipherSuite::kOpen
                             ? 0
                             : CipherTotalOverheadBytes(config_.cipher)));
  body.assign(msdu_bytes.begin() + static_cast<ptrdiff_t>(offset),
              msdu_bytes.begin() + static_cast<ptrdiff_t>(offset + length));
  if (!tx_->item.is_management) {
    if (LinkCipher* cipher = CipherFor(tx_->item.dest); cipher != nullptr) {
      FrameCryptoContext ctx;
      ctx.ta = config_.address;
      ctx.da = tx_->item.dest;
      ctx.sa = tx_->item.src;
      ctx.priority = tx_->item.priority;
      cipher->Protect(ctx, body);
      h.protected_frame = true;
    }
  }

  const WifiMode& ctl_mode = ControlResponseMode(tx_->data_mode);
  const Time ack_dur = AckDuration(ctl_mode, sp);
  if (broadcast || (tx_->item.is_management &&
                    static_cast<FrameSubtype>(tx_->item.mgmt_subtype) == FrameSubtype::kBeacon)) {
    h.duration_us = 0;
  } else if (last_fragment) {
    h.duration_us = DurationMicrosCeil(Sifs() + ack_dur);
  } else {
    const auto [next_off, next_len] = tx_->fragments[tx_->current_fragment + 1];
    (void)next_off;
    size_t cipher_overhead =
        config_.cipher != CipherSuite::kOpen ? CipherTotalOverheadBytes(config_.cipher) : 0;
    const Time next_dur =
        FrameDuration(tx_->data_mode, kDataHeaderSize + next_len + cipher_overhead + kFcsSize, sp);
    h.duration_us = DurationMicrosCeil(3 * Sifs() + 2 * ack_dur + next_dur);
  }

  PacketMeta meta = tx_->item.msdu.meta();
  meta.retries = tx_->retries;
  Packet frame = BuildMpdu(h, body, meta);

  ++counters_.tx_data_attempts;
  if (tx_->retries > 0) {
    ++counters_.retries;
  }
  if (tx_->item.is_management &&
      static_cast<FrameSubtype>(tx_->item.mgmt_subtype) == FrameSubtype::kBeacon) {
    ++counters_.tx_beacons;
  }

  if (broadcast) {
    tx_->awaiting_ack = false;
    const Time dur = FrameDuration(tx_->data_mode, frame.size(), sp);
    sim_->Schedule(dur, [this] {
      if (tx_.has_value()) {
        SequenceComplete(true);
      }
    });
  } else {
    tx_->awaiting_ack = true;
    tx_->awaiting_cts = false;
    const Time data_dur = FrameDuration(tx_->data_mode, frame.size(), sp);
    const Time timeout = data_dur + Sifs() + ack_dur + ResponseSlack(base_params_);
    response_timeout_.Cancel();
    response_timeout_ = sim_->Schedule(timeout, [this] { OnAckTimeout(); });
  }
  phy_->StartTx(std::move(frame), tx_->data_mode);
}

void WifiMac::OnCtsTimeout() {
  if (!tx_.has_value() || !tx_->awaiting_cts) {
    return;
  }
  ++counters_.cts_timeouts;
  tx_->awaiting_cts = false;
  TxAttemptFailed();
}

void WifiMac::OnAckTimeout() {
  if (!tx_.has_value() || !tx_->awaiting_ack) {
    return;
  }
  ++counters_.ack_timeouts;
  tx_->awaiting_ack = false;
  if (rate_ != nullptr && !tx_->item.is_management) {
    rate_->OnTxResult(tx_->item.dest, tx_->data_mode, false, sim_->Now());
  }
  TxAttemptFailed();
}

void WifiMac::TxAttemptFailed() {
  assert(tx_.has_value());
  ++tx_->retries;
  if (tx_->retries > config_.retry_limit) {
    if (rate_ != nullptr && !tx_->item.is_management) {
      rate_->OnFinalFailure(tx_->item.dest);
    }
    ++counters_.tx_data_dropped;
    SequenceComplete(false);
    return;
  }
  AcState& ac = acs_[tx_->ac_index];
  tx_->cw = std::min(2 * tx_->cw + 1, ac.cw_max);
  ac.access->RequestAccess(tx_->cw);
}

void WifiMac::FragmentAcked() {
  assert(tx_.has_value());
  if (rate_ != nullptr && !tx_->item.is_management) {
    rate_->OnTxResult(tx_->item.dest, tx_->data_mode, true, sim_->Now());
  }
  tx_->retries = 0;
  ++tx_->current_fragment;
  if (tx_->current_fragment < tx_->fragments.size()) {
    // Fragment burst: the next fragment follows one SIFS after the ACK.
    sim_->Schedule(Sifs(), [this] {
      if (tx_.has_value()) {
        SendDataFragment();
      }
    });
    return;
  }
  SequenceComplete(true);
}

void WifiMac::SequenceComplete(bool success) {
  response_timeout_.Cancel();
  tx_.reset();
  if (success) {
    ++counters_.tx_data_ok;
  }
  if (tx_done_) {
    tx_done_();
  }
  MaybeRequestAccess();
  MaybeResumeSleep();
}

// --- Reception ---------------------------------------------------------------

void WifiMac::OnPhyReceive(Packet packet, const RxInfo& info) {
  if (!info.success) {
    return;  // PHY-corrupt frame; EIFS handled by the access managers
  }
  auto header_opt = ParseMpdu(packet);
  if (!header_opt.has_value()) {
    return;
  }
  const MacHeader& header = *header_opt;

  // Virtual carrier sense: frames not addressed to us set the NAV.
  if (header.addr1 != config_.address && header.duration_us > 0) {
    UpdateNavAll(sim_->Now() + Time::Micros(static_cast<int64_t>(header.duration_us)));
  }

  switch (header.type) {
    case FrameType::kControl:
      if (header.subtype == FrameSubtype::kRts && header.addr1 == config_.address) {
        HandleRts(header, info);
      } else if (header.subtype == FrameSubtype::kPsPoll && header.addr1 == config_.address) {
        HandlePsPoll(header);
      } else if (header.subtype == FrameSubtype::kCts && header.addr1 == config_.address) {
        HandleCts(header);
      } else if (header.subtype == FrameSubtype::kAck && header.addr1 == config_.address) {
        HandleAck(header);
      }
      return;
    case FrameType::kData:
      HandleData(header, std::move(packet), info);
      return;
    case FrameType::kManagement:
      HandleManagement(header, std::move(packet), info);
      return;
  }
}

void WifiMac::HandleRts(const MacHeader& header, const RxInfo& info) {
  // Respond with CTS only if our NAV is idle (protects ongoing exchanges).
  if (NavEnd() > sim_->Now()) {
    return;
  }
  const WifiMode cts_mode = ControlResponseMode(info.mode);
  const Time cts_dur = CtsDuration(cts_mode, phy_->config().short_preamble);
  const uint16_t remaining = header.duration_us;
  const auto cts_and_sifs = DurationMicrosCeil(Sifs() + cts_dur);
  const uint16_t duration =
      remaining > cts_and_sifs ? static_cast<uint16_t>(remaining - cts_and_sifs) : 0;
  const MacAddress to = header.addr2;
  sim_->Schedule(Sifs(), [this, to, duration, cts_mode] { SendCts(to, duration, cts_mode); });
}

void WifiMac::SendCts(const MacAddress& to, uint16_t duration_us, const WifiMode& mode) {
  MacHeader cts;
  cts.type = FrameType::kControl;
  cts.subtype = FrameSubtype::kCts;
  cts.addr1 = to;
  cts.duration_us = duration_us;
  ++counters_.tx_cts;
  phy_->StartTx(BuildMpdu(cts, {}), mode);
}

void WifiMac::HandleCts(const MacHeader&) {
  if (!tx_.has_value() || !tx_->awaiting_cts) {
    return;
  }
  tx_->awaiting_cts = false;
  response_timeout_.Cancel();
  sim_->Schedule(Sifs(), [this] {
    if (tx_.has_value()) {
      SendDataFragment();
    }
  });
}

void WifiMac::HandleAck(const MacHeader&) {
  if (!tx_.has_value() || !tx_->awaiting_ack) {
    return;
  }
  tx_->awaiting_ack = false;
  response_timeout_.Cancel();
  FragmentAcked();
}

void WifiMac::SendAck(const MacAddress& to, const WifiMode& eliciting_mode) {
  MacHeader ack;
  ack.type = FrameType::kControl;
  ack.subtype = FrameSubtype::kAck;
  ack.addr1 = to;
  ack.duration_us = 0;
  ++counters_.tx_acks;
  phy_->StartTx(BuildMpdu(ack, {}), ControlResponseMode(eliciting_mode));
}

bool WifiMac::IsDuplicate(const MacHeader& header) {
  const uint16_t key = static_cast<uint16_t>((header.sequence << 4) | header.fragment);
  auto it = rx_dedup_.find(header.addr2);
  if (it != rx_dedup_.end() && header.retry && it->second == key) {
    return true;
  }
  rx_dedup_[header.addr2] = key;
  return false;
}

void WifiMac::HandleData(const MacHeader& header, Packet packet, const RxInfo& info) {
  const bool for_me = header.addr1 == config_.address;
  const bool group = header.addr1.IsGroup();
  if (!for_me && !group) {
    return;  // NAV already updated
  }
  if (for_me) {
    // ACK after SIFS, even for duplicates (the ACK may have been lost).
    SendAck(header.addr2, info.mode);
  }
  if (for_me && IsDuplicate(header)) {
    ++counters_.rx_duplicates;
    return;
  }
  if (config_.role == MacRole::kAp) {
    // Track the transmitter's power-management announcement.
    auto it = associated_stas_.find(header.addr2);
    if (it != associated_stas_.end()) {
      it->second.dozing = header.power_mgmt;
    }
  }
  if (header.subtype == FrameSubtype::kNullData) {
    return;  // signalling only
  }
  if (config_.role == MacRole::kSta && ps_cycle_active_ && for_me) {
    if (header.more_data) {
      ps_awaiting_data_ = true;
      sim_->Schedule(Time::Micros(1), [this] { SendPsPoll(); });
    } else {
      ps_awaiting_data_ = false;
      MaybeResumeSleep();
    }
  }

  // Work out (SA, DA) by DS bits.
  MacAddress src;
  MacAddress dest;
  if (header.to_ds && !header.from_ds) {  // STA → AP
    src = header.addr2;
    dest = header.addr3;
  } else if (!header.to_ds && header.from_ds) {  // AP → STA
    src = header.addr3;
    dest = header.addr1;
  } else {  // IBSS
    src = header.addr2;
    dest = header.addr1;
  }

  // Decrypt the MPDU body.
  std::vector<uint8_t> body(packet.bytes().begin(), packet.bytes().end());
  if (header.protected_frame) {
    LinkCipher* cipher = CipherFor(header.addr2);
    FrameCryptoContext ctx;
    ctx.ta = header.addr2;
    ctx.da = dest;
    ctx.sa = src;
    ctx.priority = packet.meta().priority;
    if (cipher == nullptr || !cipher->Unprotect(ctx, body)) {
      ++counters_.rx_decrypt_failures;
      return;
    }
  }

  // Defragmentation.
  if (header.fragment == 0 && !header.more_fragments) {
    Packet msdu{std::span<const uint8_t>(body)};
    msdu.meta() = packet.meta();
    ++counters_.rx_data;
    DeliverUp(std::move(msdu), src, dest);
    return;
  }
  Reassembly& r = reassembly_[header.addr2];
  if (header.fragment == 0) {
    r.sequence = header.sequence;
    r.next_fragment = 1;
    r.bytes = std::move(body);
    r.meta = packet.meta();
    r.src = src;
    r.dest = dest;
    return;
  }
  if (r.sequence != header.sequence || r.next_fragment != header.fragment) {
    reassembly_.erase(header.addr2);  // out-of-order: drop the partial MSDU
    return;
  }
  r.bytes.insert(r.bytes.end(), body.begin(), body.end());
  ++r.next_fragment;
  if (!header.more_fragments) {
    Packet msdu{std::span<const uint8_t>(r.bytes)};
    msdu.meta() = r.meta;
    ++counters_.rx_data;
    DeliverUp(std::move(msdu), r.src, r.dest);
    reassembly_.erase(header.addr2);
  }
}

void WifiMac::DeliverUp(Packet msdu, const MacAddress& src, const MacAddress& dest) {
  if (config_.role == MacRole::kAp && dest != config_.address && !dest.IsGroup()) {
    // Bridge: relay toward an associated station.
    if (associated_stas_.contains(dest)) {
      MacQueue::Item item;
      const uint8_t priority = msdu.meta().priority;
      item.msdu = std::move(msdu);
      item.dest = dest;
      item.src = src;
      item.priority = priority;
      if (acs_[AcIndexFor(priority)].queue.Enqueue(std::move(item))) {
        MaybeRequestAccess();
      }
    }
    return;
  }
  if (forward_up_) {
    forward_up_(std::move(msdu), src, dest);
  }
}

}  // namespace wlansim
