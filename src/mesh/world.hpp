#pragma once
// Bluetooth Mesh managed flooding over the advertising bearer.
//
// One MeshWorld is the shared medium plus the per-node Mesh stack for every
// node of an experiment:
//   * advertising bearer: each transmission is one ~1 ms advertising event
//     (phy::kAdvEventDuration) on channels 37-39; receivers are the nodes in
//     radio range, read from the transmitter's receiver row (set_receivers;
//     the experiment builds the rows from the geometric channel). A
//     reception is lost to the pairwise link PER, to the adv-channel PER of
//     the receiver's current scan channel, or to a *collision* — any
//     overlapping adv event from another in-range transmitter. Nothing is
//     assumed away: flooding self-interference emerges from the same channel
//     models the connection-oriented backend uses.
//   * network layer: relay with TTL decrement, network message cache
//     (SRC+SEQ dedup, FIFO; mesh::MessageCache), per-node relay feature
//     spread deterministically to match mesh.relay_density.
//   * lower transport: 12-byte segmentation/reassembly so IP-sized SDUs ride
//     on advertising PDUs; bounded reassembly table with oldest-first
//     eviction.
//   * heartbeat publication: periodic broadcast PDUs whose observed TTL
//     delta measures the flooding radius end to end.
//
// Mode::kDirect reuses the bearer + segmentation but turns relaying off and
// addresses only the IP next hop: IPv6 over plain BLE advertisements, the
// connectionless-but-routed fourth point of the backend comparison.
//
// Determinism: one sequentially numbered RNG stream drawn only inside event
// handlers (timestamp order), node iteration in ascending id, relay election
// by creation index — same-seed bit-identity and monotone-relabel invariance
// hold by construction and are pinned by tests/test_link_backend.cpp.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "mesh/message_cache.hpp"
#include "mesh/spec.hpp"
#include "net/netif.hpp"
#include "obs/events.hpp"
#include "obs/recorder.hpp"
#include "phy/channel_model.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mgap::mesh {

/// Broadcast (group) destination: every node consumes, relays keep flooding.
inline constexpr NodeId kAllNodes = 0xFFFFFFFFu;

/// Lower-transport segment payload (Mesh Profile: 12 bytes per segment).
inline constexpr std::size_t kSegPayload = 12;

class MeshWorld;

/// net::Netif adapter for one mesh node. The lower transport segments any
/// SDU, so the netif advertises the full IPv6 MTU and 6LoWPAN fragmentation
/// never engages below it.
class MeshNetif final : public net::Netif {
 public:
  MeshNetif(MeshWorld& world, NodeId id) : world_{world}, id_{id} {}

  bool send(NodeId next_hop, std::vector<std::uint8_t> frame) override;
  [[nodiscard]] std::size_t mtu() const override { return 1280; }
  [[nodiscard]] bool neighbor_up(NodeId /*neighbor*/) const override { return true; }

  // World-side entry points (Netif's signal methods are protected).
  void deliver(NodeId src, std::vector<std::uint8_t> frame, sim::TimePoint at) {
    deliver_rx(src, std::move(frame), at);
  }
  void writable(NodeId next_hop) { signal_writable(next_hop); }

 private:
  MeshWorld& world_;
  NodeId id_;
};

/// One network PDU as it floods: a lower-transport segment plus the network
/// header fields the relay rule needs.
struct NetworkPdu {
  NodeId src{0};
  NodeId dst{0};
  std::uint32_t seq{0};
  std::uint32_t ttl{0};
  std::uint32_t init_ttl{0};
  bool heartbeat{false};
  std::uint32_t msg_tag{0};    // origination-local SDU id (reassembly key)
  std::uint16_t seg_idx{0};
  std::uint16_t seg_count{1};
  std::vector<std::uint8_t> payload;
};

struct MeshNodeStats {
  std::uint64_t adv_events{0};        // transmissions put on air
  std::uint64_t originated{0};        // network PDUs this node originated
  std::uint64_t relayed{0};           // network PDUs re-broadcast
  std::uint64_t relay_suppressed{0};  // relay off / TTL exhausted
  std::uint64_t cache_hits{0};        // duplicates killed by the message cache
  std::uint64_t rx_pdus{0};           // bearer receptions handed to network
  std::uint64_t collisions{0};        // receptions lost to overlapping events
  std::uint64_t fade_losses{0};       // receptions lost to pairwise link PER
  std::uint64_t chan_losses{0};       // receptions lost to adv-channel PER
  std::uint64_t duty_misses{0};       // receptions lost to scan duty cycle
  std::uint64_t queue_drops{0};       // TX queue overflow (flooding collapse)
  std::uint64_t backpressure{0};      // netif send() refusals
  std::uint64_t sdu_tx{0};
  std::uint64_t sdu_rx{0};
  std::uint64_t seg_tx{0};            // segments originated
  std::uint64_t reasm_evicted{0};
  std::uint64_t heartbeat_tx{0};
  std::uint64_t heartbeat_rx{0};
  std::uint32_t heartbeat_hops_max{0};
};

class MeshWorld {
 public:
  enum class Mode : std::uint8_t {
    kFlood,   // Bluetooth Mesh managed flooding
    kDirect,  // IPv6 over advertisements: no relay, next-hop addressing
  };

  /// One peer a node's advertising events reach, with the pair's link PER.
  struct Receiver {
    NodeId id{0};
    double per{0.0};
  };
  /// Per transmitting node, the peers it reaches, ascending by id. A row
  /// holds only pairs with PER < 1; a node without a row reaches no one.
  using ReceiverRows = std::map<NodeId, std::vector<Receiver>>;

  MeshWorld(sim::Simulator& sim, MeshConfig config, Mode mode,
            phy::ChannelModel channels);

  MeshWorld(const MeshWorld&) = delete;
  MeshWorld& operator=(const MeshWorld&) = delete;

  void set_recorder(obs::Recorder* rec) { rec_ = rec; }
  /// The radio graph. Without rows every other node is a receiver at PER 0.
  /// An interferer collides at a receiver only when the receiver is in the
  /// *interferer's* row, so the rows must hold every pair with PER < 1.
  /// Throws std::invalid_argument on a row that is not strictly ascending,
  /// names its own node or holds a PER outside [0, 1); rows naming a node
  /// that was never added are rejected when they are resolved (start()).
  void set_receivers(ReceiverRows rows);

  /// Creates the node's mesh state + netif. Relay election happens here, by
  /// creation index, so exactly floor(n * relay_density) of n nodes relay
  /// regardless of their ids.
  MeshNetif& add_node(NodeId id);
  /// Resolves the receiver rows against the added nodes and schedules
  /// heartbeat publication (none when mesh.heartbeat is 0).
  void start();

  /// Test/experiment override of the per-node relay feature.
  void set_relay(NodeId id, bool relay);
  [[nodiscard]] bool relay_enabled(NodeId id) const;

  /// Crash/reboot fault hooks: a crashed node's radio is off and its queue,
  /// reassembly state, and pending writable signals are gone (RAM does not
  /// survive); SEQ and the message cache persist like flash-backed state.
  void on_node_crash(NodeId id);
  void on_node_reboot(NodeId id);

  [[nodiscard]] const MeshNodeStats& stats(NodeId id) const;
  [[nodiscard]] const std::vector<NodeId>& node_order() const { return order_; }
  /// Bearer reception ratio: receptions handed up / in-range reception
  /// opportunities (the mesh analogue of link-layer PDR).
  [[nodiscard]] double reception_ratio() const {
    return rx_opportunities_ == 0
               ? 1.0
               : static_cast<double>(rx_heard_) /
                     static_cast<double>(rx_opportunities_);
  }

  // MeshNetif entry point.
  bool origin_send(NodeId id, NodeId dst, std::vector<std::uint8_t> frame);

 private:
  struct Reasm {
    sim::TimePoint first_at;
    std::uint16_t seg_count{0};
    std::uint16_t got{0};
    std::vector<std::vector<std::uint8_t>> segs;
    std::vector<bool> have;
  };

  struct MeshNode;

  /// A receiver row entry resolved to its node.
  struct Peer {
    NodeId id{0};
    double per{0.0};
    MeshNode* node{nullptr};
  };

  struct MeshNode {
    NodeId id{0};
    std::uint64_t creation_index{0};
    bool relay{false};
    bool radio_on{true};
    std::unique_ptr<MeshNetif> netif;
    std::deque<NetworkPdu> queue;
    bool tx_scheduled{false};
    std::uint32_t seq{0};
    std::uint32_t msg_tag{0};
    MessageCache cache;  // network message cache over (src, seq)
    std::vector<Peer> row;  // resolved receiver row (when rows are set)
    std::map<std::uint64_t, Reasm> reasm;
    std::set<NodeId> blocked;  // next hops awaiting a writable signal
    MeshNodeStats stats;
  };

  struct TxWindow {
    const MeshNode* node{nullptr};
    sim::TimePoint start;
    sim::TimePoint end;
  };

  /// Another window as one delivery sees it: its start lies within a third
  /// of an event (`close`), and/or it overlaps the delivered event.
  struct Interferer {
    const MeshNode* node{nullptr};
    bool close{false};
    bool overlaps{false};
  };

  MeshNode& node(NodeId id);
  /// Builds every node's Peer row (or the all-nodes row) from the inputs.
  void resolve_rows();
  /// True when `r` is in `o`'s receiver row: `o`'s events reach `r`.
  [[nodiscard]] bool in_range(const MeshNode& o, NodeId r) const;
  /// The advertising channel `n`'s scanner currently listens on: nodes
  /// rotate through 37-39, phase-offset by creation index.
  [[nodiscard]] std::uint8_t scan_channel(const MeshNode& n) const;

  void enqueue_copies(MeshNode& n, const NetworkPdu& pdu);
  void schedule_tx(MeshNode& n);
  void tx_fire(MeshNode& n);
  void deliver(MeshNode& t, const NetworkPdu& pdu, sim::TimePoint start,
               sim::TimePoint end);
  void network_rx(MeshNode& r, const NetworkPdu& pdu);
  void transport_rx(MeshNode& r, const NetworkPdu& pdu);
  void deliver_sdu(MeshNode& r, NodeId src, std::vector<std::uint8_t> sdu);
  void maybe_signal_writable(MeshNode& n);
  void originate_heartbeat(NodeId id);

  void emit(obs::EventType type, const obs::Event& e);

  sim::Simulator& sim_;
  MeshConfig cfg_;
  Mode mode_;
  phy::ChannelModel channels_;
  obs::Recorder* rec_{nullptr};
  ReceiverRows rows_;
  bool resolved_{false};
  std::vector<Peer> everyone_;  // every node, ascending id (no rows set)
  sim::Rng rng_;
  std::map<NodeId, std::unique_ptr<MeshNode>> nodes_;
  std::vector<NodeId> order_;
  std::vector<TxWindow> active_tx_;
  std::vector<Interferer> interferers_;  // deliver()'s scratch
  std::uint64_t rx_opportunities_{0};
  std::uint64_t rx_heard_{0};
};

}  // namespace mgap::mesh
