#include "phy/channel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/hotpath_stats.h"
#include "core/units.h"
#include "phy/mobility.h"
#include "phy/propagation.h"

namespace wlansim {

// Shared per-transmission delivery state. The packet is a CoW view of the
// sender's buffer (the copy at construction bumps a refcount, it moves no
// bytes); one record serves every receiver of one Send. Intrusively
// refcounted by the closures that carry it, so it lives exactly until the
// last delivery runs — or until an undrained event queue destroys the
// closures at teardown.
struct Channel::DeliveryRecord {
  Packet packet;
  SignalParams signal;
  uint32_t refs;

  static void Unref(DeliveryRecord* rec) {
    if (--rec->refs == 0) {
      delete rec;
    }
  }
};

// The per-receiver delivery closure: a record reference, the receiver, and
// its faded power — 24 bytes, comfortably inside EventFn::kInlineBytes, so
// scheduling an arrival never heap-allocates in the event kernel. Move-only
// RAII: the reference drops when the closure is destroyed, whether or not
// it ran.
struct Channel::DeliveryClosure {
  DeliveryRecord* rec;
  RadioDevice* rx;
  double rx_dbm;

  DeliveryClosure(DeliveryRecord* record, RadioDevice* receiver, double dbm)
      : rec(record), rx(receiver), rx_dbm(dbm) {
    ++rec->refs;
  }
  DeliveryClosure(DeliveryClosure&& other) noexcept
      : rec(other.rec), rx(other.rx), rx_dbm(other.rx_dbm) {
    other.rec = nullptr;
  }
  DeliveryClosure(const DeliveryClosure&) = delete;
  DeliveryClosure& operator=(const DeliveryClosure&) = delete;
  DeliveryClosure& operator=(DeliveryClosure&&) = delete;
  ~DeliveryClosure() {
    if (rec != nullptr) {
      DeliveryRecord::Unref(rec);
    }
  }

  void operator()() {
    // Each receiver gets its own Packet instance viewing the shared buffer
    // (refcount bump, no byte copy); its meta rides along unchanged.
    rx->Deliver(rec->packet, rec->signal, rx_dbm);
  }
};

Channel::Channel(Simulator* sim, std::unique_ptr<PropagationLossModel> loss, Rng rng)
    : sim_(sim), loss_(std::move(loss)), rng_(rng) {}

Channel::~Channel() {
  HotPathStats::channel_bytes_copied.fetch_add(send_stats_.bytes_copied,
                                               std::memory_order_relaxed);
}

void Channel::Attach(RadioDevice* device) {
  if (device_index_.Find(reinterpret_cast<uintptr_t>(device)) != nullptr) {
    throw std::invalid_argument("Channel::Attach: device already attached");
  }
  device_index_.InsertOrAssign(reinterpret_cast<uintptr_t>(device),
                               static_cast<uint32_t>(devices_.size()));
  devices_.push_back(device);
  device_can_rx_.push_back(device->capabilities().can_receive ? 1 : 0);
  device->channel_ = this;
  if (device->mobility() != nullptr) {
    device->mobility()->RegisterMutationCounter(&topology_generation_);
  }
  ++topology_generation_;
}

void Channel::OnDeviceMobilityReplaced(RadioDevice* device) {
  if (device->mobility() != nullptr) {
    device->mobility()->RegisterMutationCounter(&topology_generation_);
  }
  ++topology_generation_;
}

void Channel::Send(RadioDevice* sender, const Packet& packet, const SignalParams& signal) {
  ++send_stats_.sends;
  // Account CoW faults across the whole fan-out: any deep copy between
  // here and the epilogue (there should be none — receivers share one
  // immutable buffer) lands in bytes_copied.
  const uint64_t copied_before = Packet::CowCopiedBytes();

  TxContext ctx;
  ctx.sender = sender;
  ctx.packet = &packet;
  ctx.signal = &signal;
  ctx.now = sim_->Now();
  const RadioCapabilities caps = sender->capabilities();
  ctx.tx_power_dbm = caps.tx_power_dbm;
  ctx.frequency = caps.frequency_hz;
  ctx.tx_channel_number = sender->channel_number();
  ctx.tx_node_id = sender->node_id();
  ctx.tx_mobility = sender->mobility();
  ctx.tx_static = ctx.tx_mobility->IsStatic();
  ctx.tx_epoch = ctx.tx_mobility->PositionEpoch();
  ctx.loss_epoch = loss_->MutationEpoch();
  const uint32_t* tx_index = device_index_.Find(reinterpret_cast<uintptr_t>(sender));
  assert(tx_index != nullptr);
  ctx.tx_index = *tx_index;

  if (grid_generation_ != topology_generation_ || grid_loss_epoch_ != ctx.loss_epoch) {
    RebuildGrid();
  }
  if (cell_size_ == 0.0) {
    // Unbounded radius: the grid is one cell holding every device in attach
    // order, which is devices_ itself.
    for (size_t i = 0; i < devices_.size(); ++i) {
      OfferTo(i, ctx);
    }
  } else {
    // Any receiver whose pre-fading power can reach the cutoff lies within
    // the sender's interference radius, and the radius never exceeds
    // cell_size_, so the 3x3 cell block around the sender covers every
    // candidate that OfferTo could deliver to. Receivers in the block but
    // outside the radius are visited anyway and fall to the exact cutoff
    // check — the grid only prunes, it never decides.
    ctx.tx_pos = ctx.tx_mobility->PositionAt(ctx.now);
    ctx.tx_pos_known = true;
    scratch_candidates_.clear();
    const int64_t cx = static_cast<int64_t>(std::floor(ctx.tx_pos.x / cell_size_));
    const int64_t cy = static_cast<int64_t>(std::floor(ctx.tx_pos.y / cell_size_));
    for (int64_t dy = -1; dy <= 1; ++dy) {
      for (int64_t dx = -1; dx <= 1; ++dx) {
        if (const std::vector<uint32_t>* cell = grid_cells_.Find(CellKey(cx + dx, cy + dy))) {
          scratch_candidates_.insert(scratch_candidates_.end(), cell->begin(), cell->end());
        }
      }
    }
    scratch_candidates_.insert(scratch_candidates_.end(), moving_.begin(), moving_.end());
    // Ascending index order = the one-cell grid's visit order, so the fading
    // draws below consume rng_ in exactly the same sequence.
    std::sort(scratch_candidates_.begin(), scratch_candidates_.end());
    for (const uint32_t i : scratch_candidates_) {
      OfferTo(i, ctx);
    }
  }

  // Drop Send's reference; the scheduled closures keep the record (and the
  // shared buffer behind it) alive until the last delivery.
  if (ctx.record != nullptr) {
    DeliveryRecord::Unref(ctx.record);
  }
  send_stats_.bytes_copied += Packet::CowCopiedBytes() - copied_before;
}

void Channel::OfferTo(size_t rx_index, TxContext& ctx) {
  RadioDevice* rx = devices_[rx_index];
  if (rx == ctx.sender || !device_can_rx_[rx_index] ||
      rx->channel_number() != ctx.tx_channel_number) {
    return;
  }
  ++send_stats_.candidates_visited;
  MobilityModel* rx_mobility = rx->mobility();
  const bool cacheable = ctx.tx_static && rx_mobility->IsStatic();
  const uint64_t key = LinkKey(ctx.tx_index, static_cast<uint32_t>(rx_index));

  double rx_dbm;
  Time delay;
  bool hit = false;
  if (cacheable) {
    if (const LinkState* entry = link_cache_.Find(key);
        entry != nullptr && entry->tx_mobility == ctx.tx_mobility &&
        entry->rx_mobility == rx_mobility && entry->tx_epoch == ctx.tx_epoch &&
        entry->rx_epoch == rx_mobility->PositionEpoch() &&
        entry->loss_epoch == ctx.loss_epoch) {
      rx_dbm = entry->rx_dbm;
      delay = entry->delay;
      hit = true;
      ++cache_stats_.hits;
    }
  }
  if (!hit) {
    if (!ctx.tx_pos_known) {
      ctx.tx_pos = ctx.tx_mobility->PositionAt(ctx.now);
      ctx.tx_pos_known = true;
    }
    const Vector3 rx_pos = rx_mobility->PositionAt(ctx.now);
    const uint64_t link_id = MatrixLossModel::MakeLinkId(ctx.tx_node_id, rx->node_id());
    rx_dbm = loss_->RxPowerDbm(ctx.tx_power_dbm, ctx.tx_pos, rx_pos, ctx.frequency, link_id);
    delay = delay_model_.Delay(ctx.tx_pos, rx_pos);
    ++cache_stats_.misses;
    if (cacheable) {
      link_cache_.InsertOrAssign(key, LinkState{rx_dbm, delay, ctx.tx_mobility, rx_mobility,
                                                ctx.tx_epoch, rx_mobility->PositionEpoch(),
                                                ctx.loss_epoch});
    }
  }

  // The cutoff gates everything downstream — including the fading draw, so
  // a suppressed receiver consumes no RNG, whatever the grid's shape.
  // Compared on the pre-fading power: the cutoff models receiver-independent
  // propagation reach, not fast-fading luck.
  if (rx_dbm < rx_cutoff_dbm_) {
    ++send_stats_.cutoff_suppressed;
    return;
  }
  ++send_stats_.offers;
  if (send_probe_) {
    send_probe_(ctx.sender, rx, rx_dbm, delay);
  }
  if (fading_ != nullptr) {
    rx_dbm += RatioToDb(fading_->SampleGain(rng_));
  }

  // Zero-copy fan-out: the first offer materializes ONE shared record (the
  // Packet copy inside it shares the sender's buffer — a refcount bump, no
  // bytes move) and every receiver's arrival is a 24-byte closure over it,
  // small enough that the event slab's inline buffer (SBO) path is taken.
  // The receive op sees the full on-air description (protocol, airtime,
  // mode) with its per-receiver power.
  if (ctx.record == nullptr) {
    ctx.record = new DeliveryRecord{*ctx.packet, *ctx.signal, /*refs=*/1};
  }
  static_assert(EventFn::kInlinable<DeliveryClosure>,
                "delivery closure must fit the event slab's inline buffer");
  sim_->Schedule(delay, DeliveryClosure(ctx.record, rx, rx_dbm));
}

void Channel::RebuildGrid() {
  ++send_stats_.grid_rebuilds;
  grid_generation_ = topology_generation_;
  grid_loss_epoch_ = loss_->MutationEpoch();
  grid_cells_.Clear();
  moving_.clear();

  double radius = 0.0;
  for (const RadioDevice* dev : devices_) {
    const RadioCapabilities caps = dev->capabilities();
    radius = std::max(radius,
                      loss_->MaxRangeMeters(caps.tx_power_dbm, caps.frequency_hz, rx_cutoff_dbm_));
  }
  if (!std::isfinite(radius)) {
    // Unbounded radius (matrix/shadowing loss, or -inf cutoff): no cell
    // size can cover it, so the grid is the one cell Send reads straight
    // from devices_.
    cell_size_ = 0.0;
    return;
  }
  // Cell size = the largest attached interference radius, padded so a
  // borderline receiver (floating-point rounding at exactly the radius)
  // still lands inside the 3x3 query block rather than being pruned.
  cell_size_ = radius * 1.001 + 1.0;

  const Time now = sim_->Now();
  for (uint32_t i = 0; i < devices_.size(); ++i) {
    MobilityModel* mobility = devices_[i]->mobility();
    if (mobility == nullptr || !mobility->IsStatic()) {
      moving_.push_back(i);  // ascending by construction
      continue;
    }
    const Vector3 pos = mobility->PositionAt(now);
    const uint64_t cell_key =
        CellKey(static_cast<int64_t>(std::floor(pos.x / cell_size_)),
                static_cast<int64_t>(std::floor(pos.y / cell_size_)));
    std::vector<uint32_t>* cell = grid_cells_.Find(cell_key);
    if (cell == nullptr) {
      cell = &grid_cells_.InsertOrAssign(cell_key, {});
    }
    cell->push_back(i);  // ascending within each cell by construction
  }
}

}  // namespace wlansim
