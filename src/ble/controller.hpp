#pragma once
// Per-node BLE controller + host interface: radio arbitration, GAP
// (advertising / initiating), L2CAP entry points, buffer pool, and activity
// accounting for the energy model. Plays the role NimBLE plays on a real
// board (Figure 5).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "ble/connection.hpp"
#include "ble/l2cap.hpp"
#include "ble/ll_types.hpp"
#include "ble/radio_scheduler.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "sim/ids.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mgap::sim {
class Simulator;
}

namespace mgap::ble {

class BleWorld;

struct AdvParams {
  sim::Duration interval{sim::Duration::ms(90)};  // section 4.2 configuration
  sim::Duration jitter{sim::Duration::ms(10)};    // advDelay per spec: U[0,10] ms
};

struct ScanParams {
  sim::Duration window{sim::Duration::ms(100)};   // section 4.2 configuration
  sim::Duration interval{sim::Duration::ms(100)};
};

struct ControllerConfig {
  std::size_t buffer_bytes{6600};  // NimBLE packet buffer (section 4.2)
  ConnectionConfig conn;
  L2capCoc::Config l2cap;
  AdvParams adv;
  ScanParams scan;
};

/// Radio-activity counters consumed by the energy model (section 5.4).
struct RadioActivity {
  std::uint64_t conn_events_coord{0};
  std::uint64_t conn_events_sub{0};
  std::uint64_t packet_pairs{0};     // pairs beyond the mandatory first exchange
  std::uint64_t bytes_tx{0};         // on-air bytes incl. LL overhead and empties
  std::uint64_t bytes_rx{0};
  std::uint64_t data_bytes_tx{0};    // payload bytes of data PDUs only
  std::uint64_t data_bytes_rx{0};
  std::uint64_t adv_events{0};
  sim::Duration scan_time{};         // accumulated listening time
};

class alignas(64) Controller {
 public:
  struct HostCallbacks {
    std::function<void(Connection&)> on_open;
    std::function<void(Connection&, DisconnectReason)> on_close;
    std::function<void(Connection&, std::vector<std::uint8_t>, sim::TimePoint)> on_sdu;
    /// Buffer space or credits became available on this node's side of the
    /// connection (backpressure release towards the IP stack).
    std::function<void(Connection&)> on_tx_space;
  };

  /// `creation_index` is the node's position in BleWorld::nodes().
  Controller(sim::Simulator& sim, BleWorld& world, NodeId id, std::uint32_t creation_index,
             sim::SleepClock clock, ControllerConfig config);

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }
  /// Position in BleWorld::nodes(): unlike the id, invariant under relabeling.
  [[nodiscard]] std::uint32_t creation_index() const { return creation_index_; }
  [[nodiscard]] const sim::SleepClock& clock() const { return clock_; }
  [[nodiscard]] RadioScheduler& scheduler() { return sched_; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }
  [[nodiscard]] BleWorld& world() { return world_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  void set_host(HostCallbacks callbacks) { host_ = std::move(callbacks); }

  // --- radio power (fault injection) ---------------------------------------
  /// Powers the radio down/up. Off kills GAP activity (advertising, scan
  /// intents) immediately; open connections are NOT torn down here — their
  /// events simply stop being granted, so the peers observe the loss through
  /// the supervision timeout, exactly like a real crash.
  void set_radio_on(bool on);
  [[nodiscard]] bool radio_on() const { return radio_on_; }

  /// Replaces the sleep-clock drift (clock-perturbation faults).
  void set_clock_drift(double ppm) { clock_ = sim::SleepClock{ppm}; }

  // --- GAP -----------------------------------------------------------------
  /// Starts connectable advertising (subordinate-to-be).
  void start_advertising();
  void stop_advertising();
  [[nodiscard]] bool is_advertising() const { return advertising_; }

  /// Application payload carried in advertisements (e.g. the node's RPL rank
  /// for metadata-driven topology formation, Lee et al. [29]).
  void set_adv_data(std::uint16_t data) { adv_data_ = data; }
  [[nodiscard]] std::uint16_t adv_data() const { return adv_data_; }

  /// Starts scanning for `peer` and initiates a connection with `params` when
  /// an advertisement is heard (coordinator-to-be). Several concurrent
  /// intents to different peers are allowed.
  void start_initiating(NodeId peer, ConnParams params);
  void stop_initiating(NodeId peer);
  [[nodiscard]] bool is_initiating(NodeId peer) const;

  /// Passive observation: reports every advertisement this node's scanner
  /// picks up (used by dynamic connection managers to discover peers).
  using ObserverCb = std::function<void(NodeId advertiser, std::uint16_t adv_data)>;
  void start_observing(ObserverCb cb);
  void stop_observing();
  [[nodiscard]] bool is_observing() const { return observer_ != nullptr; }

  // --- data path -------------------------------------------------------------
  /// Sends an L2CAP SDU (an IP datagram) on `conn` from this node's side.
  bool l2cap_send(Connection& conn, std::vector<std::uint8_t> sdu);

  [[nodiscard]] std::vector<Connection*> connections() const;
  [[nodiscard]] Connection* connection_to(NodeId peer) const;

  // --- buffer pool -----------------------------------------------------------
  bool pool_alloc(std::size_t n);
  void pool_free(std::size_t n);
  [[nodiscard]] std::size_t pool_used() const { return pool_used_; }
  [[nodiscard]] std::size_t pool_capacity() const { return config_.buffer_bytes; }
  [[nodiscard]] std::uint64_t pool_denied() const { return pool_denied_; }

  // --- accounting --------------------------------------------------------------
  [[nodiscard]] const RadioActivity& activity() const { return activity_; }
  [[nodiscard]] RadioActivity& activity() { return activity_; }

  /// The memory a connection event reads of this endpoint: from clock_
  /// through the scheduler's first inline claims (see the hot-first members
  /// below), 4 cache lines. Connection names it in its prefetch hint.
  [[nodiscard]] sim::TouchSpan idle_span() const {
    const auto* first = reinterpret_cast<const std::byte*>(&clock_);
    const auto* end = static_cast<const std::byte*>(sched_.hot_claims_end());
    return {first, static_cast<std::size_t>(end - first)};
  }

  // --- internal hooks (Connection / BleWorld) ----------------------------------
  void notify_open(Connection& conn);
  void notify_close(Connection& conn, DisconnectReason reason);
  void notify_sdu(Connection& conn, std::vector<std::uint8_t> sdu, sim::TimePoint at);
  void notify_tx_space(Connection& conn);
  /// True when this node's scanner would pick up an adv event at `t`.
  [[nodiscard]] bool scanner_hears(sim::TimePoint t, sim::Duration adv_duration) const;
  [[nodiscard]] const ConnParams* initiating_params(NodeId peer) const;
  void notify_observed(NodeId advertiser, std::uint16_t adv_data) {
    if (observer_) observer_(advertiser, adv_data);
  }

 private:
  void schedule_adv_event();
  void on_adv_event(std::uint64_t session);

  // Owner id used for advertising claims in the radio scheduler; connection
  // ids start at 1, so reserve the top bit for GAP activities.
  [[nodiscard]] std::uint64_t adv_owner() const { return (1ULL << 63) | id_; }

  // Hot first: a connection event reads the clock, the radio state, the
  // node id, the activity counters and the claim table of both endpoints.
  sim::SleepClock clock_;
  bool radio_on_{true};
  NodeId id_;
  RadioActivity activity_;
  RadioScheduler sched_;

  sim::Simulator& sim_;
  BleWorld& world_;
  ControllerConfig config_;
  sim::Rng rng_;
  HostCallbacks host_;

  bool advertising_{false};
  std::uint64_t adv_session_{0};
  std::uint16_t adv_data_{0};
  std::uint32_t creation_index_;
  ObserverCb observer_;
  sim::TimePoint observe_start_;

  struct Intent {
    NodeId peer;
    ConnParams params;
    sim::TimePoint scan_start;
  };
  std::vector<Intent> intents_;

  std::size_t pool_used_{0};
  std::uint64_t pool_denied_{0};
  std::map<NodeId, Connection*> links_;  // open connections by peer
};

}  // namespace mgap::ble
