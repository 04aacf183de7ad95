#pragma once
// BleWorld: the radio environment tying controllers together. Owns all
// controllers and connections (closed connections are kept as inert records
// so late-delivered events and statistics stay valid), routes advertising
// events to interested initiators, and hands out per-link statistics.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ble/controller.hpp"
#include "ble/connection.hpp"
#include "ble/ll_types.hpp"
#include "phy/channel_model.hpp"
#include "phy/link_per.hpp"
#include "sim/arena.hpp"
#include "sim/ids.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mgap::sim {
class Simulator;
}

namespace mgap::obs {
class Recorder;
}

namespace mgap::ble {

class BleWorld {
 public:
  /// `arena_mode` selects how per-node state (controllers, connections, link
  /// stats) is allocated: bump-arena (default) or plain heap. Simulation
  /// results are bit-identical under either mode (pinned by test_arena).
  BleWorld(sim::Simulator& sim, phy::ChannelModel channel_model,
           sim::Arena::Mode arena_mode = sim::Arena::Mode::kBump);

  BleWorld(const BleWorld&) = delete;
  BleWorld& operator=(const BleWorld&) = delete;

  /// Throws std::invalid_argument on a duplicate node id — a config error
  /// that must surface in release builds too, not just under assert.
  Controller& add_node(NodeId id, double drift_ppm, ControllerConfig config = {});
  [[nodiscard]] Controller* find(NodeId id) const;
  /// Creation order; pointers stay valid for the world's lifetime (the
  /// backing arena frees them only at teardown).
  [[nodiscard]] const std::vector<Controller*>& nodes() const { return nodes_; }

  [[nodiscard]] phy::ChannelModel& channel_model() { return channel_model_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Optional per-receiver channel-PER hook: maps the base model's PER on
  /// `channel` to the PER `receiver` hears there (fault windows fold
  /// interference on top). Delivery rolls against the *receiver's* PER —
  /// interference is a property of where the listener sits. Null keeps the
  /// base model for everyone.
  using ChannelPerFn = std::function<double(NodeId receiver, std::uint8_t channel, double base)>;
  void set_channel_per(ChannelPerFn fn) { channel_per_ = std::move(fn); }
  [[nodiscard]] double channel_per(NodeId receiver, std::uint8_t channel) const {
    const double base = channel_model_.per(channel);
    return channel_per_ ? channel_per_(receiver, channel, base) : base;
  }

  /// Allocation telemetry for the scale benches.
  [[nodiscard]] const sim::Arena& arena() const { return arena_; }

  /// Optional pairwise link-quality model (geometry, mobility, fault
  /// windows): an additional PER in [0,1] for the pair — 0 keeps the
  /// testbed's "all nodes in range" default, 1 means out of range. Combined
  /// multiplicatively with the per-channel model. The model also reports
  /// until when its answer holds (phy/link_per.hpp); connections keep the
  /// answer until then. Installing a model invalidates every kept answer.
  using LinkPerFn = phy::LinkPerFn;
  void set_link_per(LinkPerFn fn) {
    link_per_ = std::move(fn);
    ++link_model_version_;
  }
  /// A plain PER hook says nothing about when its value changes, so its
  /// answers hold only until now: connections ask it on every exchange.
  void set_link_per(std::function<double(NodeId, NodeId)> fn);
  /// The raw installed hook (null when unset); lets a fault injector compose
  /// its own windows over a pre-existing model instead of replacing it.
  [[nodiscard]] const LinkPerFn& link_per_fn() const { return link_per_; }
  [[nodiscard]] phy::LinkPer link_per(NodeId a, NodeId b) const {
    return link_per_ ? link_per_(a, b) : phy::LinkPer{};
  }
  /// Bumped by every set_link_per; a connection's kept answer is stale once
  /// this moves.
  [[nodiscard]] std::uint32_t link_model_version() const { return link_model_version_; }

  /// Optional per-node advertising candidate tables (the topo subsystem's
  /// spatial index). When installed, route_adv_event iterates only the
  /// advertiser's in-range candidates instead of all nodes — the structure
  /// that takes a 1000-node sim off the O(N)-per-advertisement scan. Lists
  /// must be ascending by id (the order the full scan visits) and must cover
  /// every pair with link PER < 1; nodes absent from a list never hear that
  /// advertiser.
  void set_neighbor_table(const std::map<NodeId, std::vector<NodeId>>& table);
  [[nodiscard]] bool has_neighbor_table() const { return !table_ids_.empty(); }

  /// Advertising-path instrumentation: how many adv events were routed, how
  /// many candidate controllers those routes visited, and how many fell back
  /// to the full-`nodes_` scan (0 whenever a neighbor table is installed —
  /// the scale benches assert exactly that).
  [[nodiscard]] std::uint64_t adv_events_routed() const { return adv_events_routed_; }
  [[nodiscard]] std::uint64_t adv_candidates_scanned() const {
    return adv_candidates_scanned_;
  }
  [[nodiscard]] std::uint64_t adv_full_scans() const { return adv_full_scans_; }

  /// Channel map applied to newly created connections (the experiments
  /// exclude jammed channel 22 on all nodes, section 4.2).
  void set_default_channel_map(ChannelMap map) { default_chmap_ = map; }
  [[nodiscard]] const ChannelMap& default_channel_map() const { return default_chmap_; }

  /// Creates and starts a connection; used by the GAP connect path and
  /// directly by tests.
  Connection& open_connection(Controller& coord, Controller& sub, const ConnParams& params,
                              sim::TimePoint first_anchor);

  /// Called by an advertising controller for each transmitted adv event;
  /// routes it to at most one listening initiator.
  void route_adv_event(Controller& advertiser, sim::TimePoint t, sim::Duration duration);

  [[nodiscard]] LinkStats& link_stats(NodeId coordinator, NodeId subordinate);
  [[nodiscard]] std::vector<const LinkStats*> all_link_stats() const;
  [[nodiscard]] std::uint64_t total_conn_losses() const;

  [[nodiscard]] std::vector<Connection*> open_connections() const;
  [[nodiscard]] Connection* find_connection(ConnId id) const;
  [[nodiscard]] std::uint64_t connections_created() const { return next_conn_id_ - 1; }

  [[nodiscard]] sim::Rng& rng() { return rng_; }

  /// Optional typed binary event recorder (obs subsystem); null disables.
  /// Propagates to every controller's radio scheduler, present and future.
  void set_recorder(obs::Recorder* recorder);
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

 private:
  void resolve_adv_rows();

  obs::Recorder* recorder_{nullptr};
  std::uint32_t link_model_version_{0};
  LinkPerFn link_per_;
  sim::Simulator& sim_;
  phy::ChannelModel channel_model_;
  ChannelPerFn channel_per_;
  ChannelMap default_chmap_{ChannelMap::all()};
  std::vector<Controller*> nodes_;
  std::map<NodeId, Controller*> by_id_;
  /// Rows of 32-bit entries stored flat: row r is
  /// entries[start[r] .. start[r + 1]).
  struct FlatRows {
    std::vector<std::uint32_t> start{0};
    std::vector<std::uint32_t> entries;

    [[nodiscard]] std::span<const std::uint32_t> row(std::size_t r) const {
      return {entries.data() + start[r], entries.data() + start[r + 1]};
    }
    void end_row() { start.push_back(static_cast<std::uint32_t>(entries.size())); }
  };
  /// The installed neighbor table: table_rows_ row r lists the candidate ids
  /// of advertiser table_ids_[r] (ascending).
  std::vector<NodeId> table_ids_;
  FlatRows table_rows_;
  /// The same rows resolved once per node set: row i belongs to creation
  /// index i and lists its candidates' creation indices, ids never added
  /// dropped. Stale (and rebuilt by the next advertising event) when its row
  /// count differs from nodes_.
  FlatRows adv_rows_;
  std::uint64_t adv_events_routed_{0};
  std::uint64_t adv_candidates_scanned_{0};
  std::uint64_t adv_full_scans_{0};
  std::vector<Connection*> connections_;
  std::map<std::pair<NodeId, NodeId>, LinkStats*> link_stats_;
  ConnId next_conn_id_{1};
  sim::Rng rng_;
  /// Owns every controller, connection and link-stats record. Declared last:
  /// destroyed first, in reverse allocation order (connections before the
  /// controllers they reference), while the raw-pointer containers above are
  /// still intact.
  sim::Arena arena_;
};

}  // namespace mgap::ble
