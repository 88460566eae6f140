// The shared radio medium.
//
// Connects every attached RadioDevice (phy/radio_device.h — WifiPhy is one
// implementation among several); on each transmission it computes, per
// receiver, the propagation delay and received power (path loss model plus
// an optional per-frame fading draw) and schedules the arrival. Devices
// tuned to different channel numbers do not hear each other
// (adjacent-channel leakage is out of scope); devices of different radio
// technologies on the same channel number hear each other as energy.
//
// Hot paths, in layers:
//
//  - Link cache: received power and delay between two *static* nodes never
//    change, so they are memoized in a sparse per-(tx, rx) LinkState row
//    (FlatHash64 keyed by the index pair) instead of being recomputed
//    through the loss model on every transmission. Rows validate against
//    the endpoints' MobilityModel identity, their position epochs, and the
//    loss model's mutation epoch — a moving node (IsStatic() == false)
//    bypasses the cache, and a teleported static node (SetPosition bumps
//    its epoch) invalidates its rows on the next lookup, with no explicit
//    invalidation traffic. The cache holds only links that transmissions
//    actually touch, so it stays proportional to the live working set, not
//    to devices^2, and Attach is O(1).
//
//  - Reception cutoff: SetRxCutoffDbm installs a channel-wide floor —
//    a transmission whose pre-fading received power at a device is below
//    the cutoff is not delivered at all (no frame, no CCA energy, no
//    interference contribution). This is a *semantic* of the channel,
//    applied identically whether or not the spatial index is enabled; that
//    identity is what makes the indexed path bit-exact. Default: -infinity
//    (deliver everything, the historical behaviour).
//
//  - Spatial receiver index: with a finite cutoff and a loss model that can
//    bound its interference radius (PropagationLossModel::MaxRangeMeters),
//    EnableSpatialIndex makes Send visit only receivers inside the
//    transmitter's radius, found through a uniform grid over static node
//    positions (cell size = the largest attached radius). The grid is
//    rebuilt lazily when the topology generation moves — Attach, a static
//    node's SetPosition (via MobilityModel::RegisterMutationCounter), a
//    mobility-model swap, or a cutoff change all bump it. Moving nodes are
//    never indexed: they sit on a bypass list that every Send visits.
//    Candidates are visited in ascending attach order — the dense loop's
//    order — so the per-receiver fading draws consume the channel RNG in
//    exactly the same sequence and small-topology outputs stay
//    byte-identical to the dense path.
//
//  - Zero-copy fan-out: each Send materializes at most one refcounted
//    DeliveryRecord holding a CoW view of the sender's packet buffer plus
//    the SignalParams; every receiver arrival is a small closure over the
//    record (record pointer, receiver, faded power) that fits the event
//    slab's inline buffer. The old per-receiver cost — a deep buffer copy
//    plus a heap-allocated oversized closure — is gone entirely;
//    SendStats::bytes_copied and EventQueue::HeapFallbacks() both staying
//    at zero is the enforced evidence (bench_m6_fanout --check).
//
// Registration is the attach contract described in radio_device.h: Attach
// is the one entry point for devices (it indexes the device, registers its
// mobility model with the topology counter, and installs the back-link that
// powers RadioDevice::NotifyMobilityReplaced); AttachProbe is the one entry
// point for delivery instrumentation.

#ifndef WLANSIM_PHY_CHANNEL_H_
#define WLANSIM_PHY_CHANNEL_H_

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/flat_hash.h"
#include "core/packet.h"
#include "core/random.h"
#include "core/simulator.h"
#include "phy/fading.h"
#include "phy/propagation.h"
#include "phy/radio_device.h"
#include "phy/wifi_mode.h"

namespace wlansim {

class MobilityModel;

class Channel {
 public:
  // Environment overrides (read once at construction, before any setter):
  // WLANSIM_SPATIAL_INDEX=1 enables the spatial index and
  // WLANSIM_RX_CUTOFF_DBM=<dbm> sets the reception cutoff. They exist so CI
  // can A/B an unmodified scenario binary against the dense path without
  // perturbing its parameters (and therefore its CSV output).
  Channel(Simulator* sim, std::unique_ptr<PropagationLossModel> loss, Rng rng);
  // Folds the fan-out copy counter into HotPathStats (see send_stats()).
  ~Channel();

  // Optional per-frame fading (applied on top of the loss model, never
  // cached). Setting it does not disturb the link cache.
  void SetFading(std::unique_ptr<FadingModel> fading) { fading_ = std::move(fading); }

  // Registers `device` on this medium (the attach contract, see the header
  // comment). Throws std::invalid_argument if the device is already
  // attached. The device must outlive the channel's last Send.
  void Attach(RadioDevice* device);

  // Broadcasts `packet` from `sender` (which must be attached). Called by
  // the transmit op of every RadioDevice implementation.
  void Send(RadioDevice* sender, const Packet& packet, const SignalParams& signal);

  // Channel-wide reception floor in dBm (see the header comment). Applies
  // to the pre-fading received power; receivers exactly at the cutoff are
  // still delivered (>= compare).
  void SetRxCutoffDbm(double dbm) {
    rx_cutoff_dbm_ = dbm;
    ++topology_generation_;
  }
  double rx_cutoff_dbm() const { return rx_cutoff_dbm_; }

  // Spatial receiver index on/off. Purely an acceleration structure: with
  // the cutoff semantics fixed, enabling it never changes which receivers
  // hear a transmission, their received powers, delays, or any RNG draw.
  void EnableSpatialIndex(bool on) { spatial_enabled_ = on; }
  bool spatial_index_enabled() const { return spatial_enabled_; }

  // Built-in loss models bump their MutationEpoch on mid-run edits (e.g.
  // MatrixLossModel::SetLoss), which invalidates memoized rows
  // automatically.
  PropagationLossModel& loss_model() { return *loss_; }

  // Link-cache hit/miss counters (diagnostics and cache tests).
  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;  // includes uncacheable (moving-endpoint) links
  };
  const CacheStats& cache_stats() const { return cache_stats_; }

  // Transmission fan-out counters. `offers` and `sends` are invariant
  // between the dense and indexed paths (the differential CI gate relies on
  // that); the remaining counters describe how much work each path did.
  struct SendStats {
    uint64_t sends = 0;               // Send() calls
    uint64_t offers = 0;              // receiver arrivals actually scheduled
    uint64_t candidates_visited = 0;  // receivers examined (incl. suppressed)
    uint64_t cutoff_suppressed = 0;   // visited but below the cutoff
    uint64_t grid_queries = 0;        // sends answered by the spatial index
    uint64_t grid_rebuilds = 0;
    // Packet bytes deep-copied (CoW faults) inside Send's fan-out loop.
    // The zero-copy contract: every receiver gets a view of one shared
    // immutable buffer, so this stays 0 on the steady-state path — the
    // m6 bench gates on it (folded into HotPathStats at destruction).
    uint64_t bytes_copied = 0;
  };
  const SendStats& send_stats() const { return send_stats_; }

  // Test/trace hook, attached through the same front door as devices:
  // observes every scheduled delivery with its *pre-fading* received power
  // and propagation delay (the deterministic link quantities the
  // differential tests compare). Null detaches; not a hot-path feature.
  using SendProbe = std::function<void(const RadioDevice* tx, const RadioDevice* rx,
                                       double rx_dbm, Time delay)>;
  void AttachProbe(SendProbe probe) { send_probe_ = std::move(probe); }

 private:
  friend class RadioDevice;  // NotifyMobilityReplaced -> OnDeviceMobilityReplaced

  // Shared per-transmission delivery state: ONE intrusively refcounted
  // record per Send holds the packet view (sharing the sender's buffer)
  // and the SignalParams; every receiver's delivery closure carries just a
  // record pointer + receiver + power, small enough for the event slab's
  // inline buffer. Both defined in channel.cc.
  struct DeliveryRecord;
  struct DeliveryClosure;

  // One memoized (tx, rx) link. Valid while both endpoints still use the
  // same MobilityModel instances and neither position epoch nor the loss
  // model's mutation epoch has moved.
  struct LinkState {
    double rx_dbm = 0.0;  // pre-fading received power
    Time delay;
    const MobilityModel* tx_mobility = nullptr;  // nullptr = never filled
    const MobilityModel* rx_mobility = nullptr;
    uint64_t tx_epoch = 0;
    uint64_t rx_epoch = 0;
    uint64_t loss_epoch = 0;
  };

  // Per-Send state shared by every receiver visit.
  struct TxContext {
    RadioDevice* sender = nullptr;
    const Packet* packet = nullptr;
    const SignalParams* signal = nullptr;
    Time now;
    double tx_power_dbm = 0.0;
    double frequency = 0.0;
    uint8_t tx_channel_number = 0;
    uint32_t tx_node_id = 0;
    MobilityModel* tx_mobility = nullptr;
    bool tx_static = false;
    uint64_t tx_epoch = 0;
    uint64_t loss_epoch = 0;
    uint32_t tx_index = 0;
    Vector3 tx_pos;
    bool tx_pos_known = false;
    // Created lazily by the first offer (a transmission nobody hears
    // allocates nothing); Send drops its reference after the fan-out.
    DeliveryRecord* record = nullptr;
  };

  static uint64_t LinkKey(uint32_t tx_index, uint32_t rx_index) {
    return (static_cast<uint64_t>(tx_index) << 32) | rx_index;
  }
  static uint64_t CellKey(int64_t cx, int64_t cy) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(cx)) << 32) |
           static_cast<uint32_t>(cy);
  }

  // Part of the attach contract, reached only through
  // RadioDevice::NotifyMobilityReplaced(): re-registers the topology
  // counter on the device's new mobility model and forces a grid rebuild.
  void OnDeviceMobilityReplaced(RadioDevice* device);

  // The shared per-receiver body of Send: cache lookup or loss-model
  // computation, the cutoff check, the fading draw, and arrival scheduling.
  // Both the dense loop and the indexed loop funnel through it, in the same
  // receiver order — that is the bit-exactness argument in one sentence.
  void OfferTo(size_t rx_index, TxContext& ctx);

  // True when Send may use the grid: index enabled, finite cutoff, and the
  // loss model bounded every attached transmitter's radius at last rebuild.
  bool GridUsable() const { return spatial_enabled_ && cell_size_ > 0.0; }
  bool GridCurrent() const {
    return grid_generation_ == topology_generation_ && grid_loss_epoch_ == loss_->MutationEpoch();
  }
  void RebuildGrid();

  Simulator* sim_;
  std::unique_ptr<PropagationLossModel> loss_;
  std::unique_ptr<FadingModel> fading_;
  ConstantSpeedDelayModel delay_model_;
  Rng rng_;
  std::vector<RadioDevice*> devices_;
  std::vector<uint8_t> device_can_rx_;  // capabilities().can_receive, cached at attach
  FlatHash64<uint32_t> device_index_;   // RadioDevice* -> index into devices_
  FlatHash64<LinkState> link_cache_;    // keyed by LinkKey(tx, rx); sparse
  CacheStats cache_stats_;

  double rx_cutoff_dbm_ = -std::numeric_limits<double>::infinity();
  bool spatial_enabled_ = false;

  // Spatial grid over static devices. cell_size_ <= 0 means "no usable
  // grid" (unbounded radius or nothing attached): Send stays on the dense
  // loop.
  double cell_size_ = 0.0;
  FlatHash64<std::vector<uint32_t>> grid_cells_;  // CellKey -> device indices (ascending)
  std::vector<uint32_t> moving_;                  // non-static devices, ascending
  uint64_t topology_generation_ = 0;  // bumped by Attach/teleports/swaps/cutoff
  uint64_t grid_generation_ = 0;      // topology generation the grid was built at
  uint64_t grid_loss_epoch_ = 0;      // loss MutationEpoch at build
  bool grid_built_ = false;
  std::vector<uint32_t> scratch_candidates_;

  SendStats send_stats_;
  SendProbe send_probe_;
};

}  // namespace wlansim

#endif  // WLANSIM_PHY_CHANNEL_H_
