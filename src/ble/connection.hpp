#pragma once
// A BLE connection: the time-sliced, channel-hopping, acknowledged link
// described in section 2.2 of the paper.
//
// Model summary (one compound DES event per connection event):
//  * The coordinator's drifting sleep clock advances the anchor point.
//  * Both endpoints must hold a granted radio claim for the anchor slot,
//    otherwise the event is skipped (this is where shading bites).
//  * Within an event, TX/RX packet pairs are exchanged until (a) both LL
//    queues drain, (b) the window up to the next radio claim of either node
//    (Figure 4) or the own next anchor is exhausted, (c) the per-event pair
//    budget is reached, or (d) a CRC error aborts the event (section 5.2).
//  * A lost data PDU stays at the head of its queue and is retransmitted one
//    connection interval later (section 5.1).
//  * When the time since the last valid packet exceeds the supervision
//    timeout, the connection terminates on both ends.

#include <cstdint>
#include <deque>
#include <optional>

#include "ble/channel_selection.hpp"
#include "ble/l2cap.hpp"
#include "ble/ll_types.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mgap::sim {
class Simulator;
}

namespace mgap::ble {

class Controller;
class BleWorld;

/// Per-connection state written on *every* connection event — the hot
/// subset of Connection and its first member, so the anchor, the four
/// supervision timestamps, the armed event and the grant/retry flags share
/// the object's first cache line. The fields the idle event reads next
/// (endpoints, parameters, config, channel selection, RNG, stats) follow it
/// in Connection, then the queues and pending LL procedures, which the idle
/// event only tests for emptiness. AFH tables and L2CAP state come last, out
/// of the way until an exchange actually moves data. schedule_event() hands
/// the span through pending_chmap_ to the event queue as a prefetch hint.
struct ConnHot {
  sim::TimePoint anchor;
  sim::TimePoint last_valid_rx_coord;
  sim::TimePoint last_valid_rx_sub;
  sim::TimePoint last_sub_sync;
  sim::EventId next_event{};
  std::uint16_t event_counter{0};
  unsigned latency_skips{0};
  bool open{false};
  bool coord_granted{false};
  bool sub_granted{false};
  bool sub_intentional_skip{false};
  // Head-of-queue PDU already failed at least once (kPduRetrans flagging).
  bool coord_retry{false};
  bool sub_retry{false};
};

/// Tunables of the connection-event engine (NimBLE-flavoured defaults).
struct ConnectionConfig {
  /// Radio time reserved per connection event. NimBLE schedules connections
  /// in 1.25 ms slots; data may extend beyond the reservation until the next
  /// claim of either node.
  sim::Duration reserve_slot{sim::Duration::ms_f(1.25)};
  /// Host/controller processing bound on packet pairs per event; calibrated
  /// so a saturated single link reaches the ~500 kbps the paper measured.
  unsigned max_pairs_per_event{30};
  /// Instantaneous sleep-clock jitter added to window widening.
  sim::Duration ww_margin{sim::Duration::us(50)};

  // Adaptive channel hopping (the ADH the Bluetooth standard leaves to
  // controller implementers, section 2.2; evaluated by Spoerk et al. in the
  // paper's related work). When enabled, the coordinator estimates per-
  // channel PER over a sliding window and removes consistently bad channels
  // through the channel-map update procedure.
  bool adaptive_channel_map{false};
  unsigned afh_eval_events{128};      // evaluation window (connection events)
  unsigned afh_min_samples{8};        // PDU draws needed to judge a channel
  double afh_per_threshold{0.4};      // exclusion threshold
  unsigned afh_min_channels{8};       // never hop on fewer channels
};

class alignas(64) Connection {
 public:
  Connection(sim::Simulator& sim, BleWorld& world, ConnId id, Controller& coord,
             Controller& sub, const ConnParams& params, sim::TimePoint first_anchor,
             std::uint32_t access_address, const ChannelMap& chmap, LinkStats& stats,
             const ConnectionConfig& config, sim::Rng rng);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Arms the first connection event. Called once by BleWorld.
  void start();

  /// Host-initiated disconnect (either side).
  void close(DisconnectReason reason = DisconnectReason::kLocalClose);

  [[nodiscard]] bool is_open() const { return hot_.open; }
  [[nodiscard]] ConnId id() const { return id_; }
  [[nodiscard]] BleWorld& world() const { return world_; }
  [[nodiscard]] Controller& node(Role r) const;
  [[nodiscard]] Controller& coordinator() const { return node(Role::kCoordinator); }
  [[nodiscard]] Controller& subordinate() const { return node(Role::kSubordinate); }
  [[nodiscard]] Role role_of(const Controller& c) const;
  [[nodiscard]] Controller& peer_of(const Controller& c) const;
  [[nodiscard]] const ConnParams& params() const { return params_; }
  [[nodiscard]] std::uint32_t access_address() const { return access_address_; }
  [[nodiscard]] const ChannelMap& channel_map() const { return chmap_; }
  [[nodiscard]] L2capCoc& coc() { return coc_; }
  [[nodiscard]] LinkStats& link_stats() { return stats_; }
  [[nodiscard]] std::uint16_t event_counter() const { return hot_.event_counter; }
  [[nodiscard]] sim::TimePoint next_anchor() const { return hot_.anchor; }

  /// Queues an LL data PDU for transfer from side `from`. Charges the sending
  /// node's BLE buffer pool; false when the pool is exhausted.
  bool enqueue(Role from, LlPdu pdu);
  [[nodiscard]] std::size_t queue_len(Role from) const { return queue_of(from).size(); }
  [[nodiscard]] std::size_t queued_bytes(Role from) const;

  /// LL connection-parameter update procedure: the new parameters take effect
  /// six events after the request (models the spec's instant offset).
  void request_param_update(const ConnParams& params);

  /// LL channel-map update procedure (same six-event apply delay).
  void request_channel_map_update(const ChannelMap& map);

  /// Displaces the next anchor by `delta` (clock-step fault): the pending
  /// event is re-armed at the shifted time while the supervision baselines
  /// stay put, so a large step can legitimately trip the timeout.
  void shift_anchor(sim::Duration delta);

 private:
  static constexpr unsigned kUpdateDelayEvents = 6;

  [[nodiscard]] std::deque<LlPdu>& queue_of(Role r) {
    return r == Role::kCoordinator ? coord_q_ : sub_q_;
  }
  [[nodiscard]] const std::deque<LlPdu>& queue_of(Role r) const {
    return r == Role::kCoordinator ? coord_q_ : sub_q_;
  }

  void claim_event_slots(sim::TimePoint anchor);
  void schedule_event(sim::TimePoint anchor);
  void on_conn_event(sim::TimePoint anchor);
  /// Runs the TX/RX pair loop; returns true when the subordinate received at
  /// least one valid PDU (it resynchronised its sleep clock).
  bool run_exchange(sim::TimePoint anchor, std::uint8_t channel);
  void deliver_later(Role to, LlPdu pdu, sim::TimePoint at);
  void terminate(DisconnectReason reason);
  [[nodiscard]] sim::Duration window_widening(sim::TimePoint at) const;

  // Member order is the idle connection event's read order (see ConnHot).
  ConnHot hot_;
  Controller& coord_;
  Controller& sub_;
  ConnParams params_;
  ConnectionConfig config_;
  ChannelSelection chan_sel_;
  ChannelMap chmap_;
  sim::Rng rng_;
  LinkStats& stats_;
  sim::Simulator& sim_;
  BleWorld& world_;
  ConnId id_;
  std::uint32_t access_address_;
  // The link-PER model's last answer for this pair and until when it holds
  // (phy/link_per.hpp), taken under BleWorld::link_model_version
  // link_per_version_. An origin link_per_until_ has lapsed: the first
  // exchange asks the model.
  std::uint32_t link_per_version_{0};
  double link_per_{0.0};
  sim::TimePoint link_per_until_;

  std::deque<LlPdu> coord_q_;
  std::deque<LlPdu> sub_q_;

  std::optional<ConnParams> pending_params_;
  std::uint16_t apply_params_at_{0};
  std::optional<ChannelMap> pending_chmap_;
  std::uint16_t apply_chmap_at_{0};

  // Adaptive-hopping PER estimation (sliding window, coordinator side).
  std::array<std::uint32_t, 37> afh_tx_{};
  std::array<std::uint32_t, 37> afh_fail_{};
  void afh_note(std::uint8_t channel, bool ok);
  void afh_evaluate();

  L2capCoc coc_;
};

}  // namespace mgap::ble
