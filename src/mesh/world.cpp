#include "mesh/world.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "phy/ble_phy.hpp"

namespace mgap::mesh {

namespace {

/// Scanners rotate their listening channel through 37-39 on this period;
/// transmitters put a copy on all three channels inside one adv event, so
/// only the copy on the receiver's current channel matters.
constexpr sim::Duration kScanRotation = sim::Duration::ms(100);

[[nodiscard]] std::uint64_t cache_key(NodeId src, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(src) << 32) | seq;
}

}  // namespace

bool MeshNetif::send(NodeId next_hop, std::vector<std::uint8_t> frame) {
  return world_.origin_send(id_, next_hop, std::move(frame));
}

MeshWorld::MeshWorld(sim::Simulator& sim, MeshConfig config, Mode mode,
                     phy::ChannelModel channels)
    : sim_{sim},
      cfg_{config},
      mode_{mode},
      channels_{channels},
      rng_{sim.make_rng()} {}

MeshNetif& MeshWorld::add_node(NodeId id) {
  auto owned = std::make_unique<MeshNode>();
  MeshNode& n = *owned;
  n.id = id;
  n.creation_index = order_.size();
  // Relay election by creation index: after n adds, exactly
  // floor(n * relay_density) nodes relay, independent of node ids (the
  // monotone-relabel invariant) and stable as the world grows.
  const double f = cfg_.relay_density;
  n.relay = mode_ == Mode::kFlood &&
            std::floor(static_cast<double>(n.creation_index + 1) * f) >
                std::floor(static_cast<double>(n.creation_index) * f);
  n.netif = std::make_unique<MeshNetif>(*this, id);
  n.cache = MessageCache{cfg_.cache_entries};
  auto [it, inserted] = nodes_.emplace(id, std::move(owned));
  if (!inserted) throw std::invalid_argument{"mesh: duplicate node id"};
  order_.push_back(id);
  resolved_ = false;
  return *it->second->netif;
}

void MeshWorld::set_receivers(ReceiverRows rows) {
  for (const auto& [id, row] : rows) {
    const std::string where = "mesh: receiver row of node " + std::to_string(id);
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].id == id) throw std::invalid_argument{where + " names the node itself"};
      if (i > 0 && row[i].id <= row[i - 1].id) {
        throw std::invalid_argument{where + " is not strictly ascending by id"};
      }
      if (!(row[i].per >= 0.0 && row[i].per < 1.0)) {
        throw std::invalid_argument{where + " holds a PER outside [0, 1)"};
      }
    }
  }
  rows_ = std::move(rows);
  resolved_ = false;
}

void MeshWorld::resolve_rows() {
  const auto find = [this](NodeId id) -> MeshNode* {
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) {
      throw std::invalid_argument{"mesh: receiver rows name unknown node " +
                                  std::to_string(id)};
    }
    return it->second.get();
  };
  everyone_.clear();
  for (const auto& [id, n] : nodes_) {
    everyone_.push_back(Peer{id, 0.0, n.get()});
    n->row.clear();
  }
  for (const auto& [id, row] : rows_) {
    MeshNode* owner = find(id);
    owner->row.reserve(row.size());
    for (const Receiver& r : row) owner->row.push_back(Peer{r.id, r.per, find(r.id)});
  }
  resolved_ = true;
}

void MeshWorld::start() {
  resolve_rows();
  if (cfg_.heartbeat_period.is_zero()) return;
  // Deterministic phase stagger over the creation order, so the fleet's
  // heartbeats do not synchronize into one collision burst.
  const auto count = static_cast<std::int64_t>(order_.size());
  for (std::int64_t i = 0; i < count; ++i) {
    const NodeId id = order_[static_cast<std::size_t>(i)];
    const sim::Duration phase = cfg_.heartbeat_period * (i + 1) / (count + 1);
    sim_.schedule_in(phase, [this, id] { originate_heartbeat(id); });
  }
}

void MeshWorld::set_relay(NodeId id, bool relay) { node(id).relay = relay; }

bool MeshWorld::relay_enabled(NodeId id) const {
  return nodes_.at(id)->relay;
}

const MeshNodeStats& MeshWorld::stats(NodeId id) const {
  return nodes_.at(id)->stats;
}

MeshWorld::MeshNode& MeshWorld::node(NodeId id) { return *nodes_.at(id); }

std::uint8_t MeshWorld::scan_channel(const MeshNode& n) const {
  const auto slot = static_cast<std::uint64_t>(sim_.now().count_ns()) /
                    static_cast<std::uint64_t>(kScanRotation.count_ns());
  return static_cast<std::uint8_t>(
      phy::kFirstAdvChannel + (slot + n.creation_index) % phy::kNumAdvChannels);
}

bool MeshWorld::in_range(const MeshNode& o, NodeId r) const {
  if (rows_.empty()) return true;
  const auto it = std::lower_bound(o.row.begin(), o.row.end(), r,
                                   [](const Peer& p, NodeId id) { return p.id < id; });
  return it != o.row.end() && it->id == r;
}

void MeshWorld::enqueue_copies(MeshNode& n, const NetworkPdu& pdu) {
  for (std::uint32_t c = 0; c < cfg_.transmit_count; ++c) {
    if (n.queue.size() >= cfg_.queue_cap) {
      ++n.stats.queue_drops;
      break;
    }
    n.queue.push_back(pdu);
  }
  schedule_tx(n);
}

void MeshWorld::schedule_tx(MeshNode& n) {
  if (n.tx_scheduled || !n.radio_on || n.queue.empty()) return;
  n.tx_scheduled = true;
  // Mean gap = adv_interval; the jitter de-synchronizes relays that all
  // heard the same PDU at the same instant.
  const sim::Duration gap =
      rng_.uniform_duration(cfg_.adv_interval / 2, cfg_.adv_interval * 3 / 2);
  sim_.schedule_in(gap, [this, &n] { tx_fire(n); });
}

void MeshWorld::tx_fire(MeshNode& n) {
  n.tx_scheduled = false;
  if (!n.radio_on || n.queue.empty()) return;
  NetworkPdu pdu = std::move(n.queue.front());
  n.queue.pop_front();
  ++n.stats.adv_events;

  const sim::TimePoint start = sim_.now();
  const sim::TimePoint end = start + phy::kAdvEventDuration;
  // Prune windows that can no longer overlap any in-flight event.
  const sim::TimePoint horizon = start - phy::kAdvEventDuration * 2;
  std::erase_if(active_tx_,
                [horizon](const TxWindow& w) { return w.end < horizon; });
  active_tx_.push_back(TxWindow{&n, start, end});

  sim_.schedule_at(end, [this, &n, pdu = std::move(pdu), start, end] {
    deliver(n, pdu, start, end);
  });
  if (!n.queue.empty()) schedule_tx(n);
  maybe_signal_writable(n);
}

void MeshWorld::deliver(MeshNode& t, const NetworkPdu& pdu, sim::TimePoint start,
                        sim::TimePoint end) {
  if (!resolved_) resolve_rows();
  // Half-duplex + collisions. An adv event cycles channels 37->38->39, one
  // third of the event each; the scanner captures only its channel's
  // portion. Two events therefore collide at a receiver only when their
  // same-channel thirds overlap — i.e. their starts lie within a third of an
  // event of each other — and the interferer is in the receiver's range. A
  // receiver that was itself transmitting anywhere in the window hears
  // nothing (half-duplex, full event). Receptions schedule but never start
  // transmissions, so the windows that can matter are picked once here.
  const sim::Duration third = phy::kAdvEventDuration / 3;
  interferers_.clear();
  for (const TxWindow& o : active_tx_) {
    if (o.node == &t && o.start == start) continue;  // our own window
    const sim::Duration skew = o.start < start ? start - o.start : o.start - start;
    const bool overlaps = o.start < end && o.end > start;
    if (skew < third || overlaps) interferers_.push_back({o.node, skew < third, overlaps});
  }
  // Receivers: the transmitter's row when rows are set, else every node.
  // Ascending id either way.
  for (const Peer& p : rows_.empty() ? everyone_ : t.row) {
    MeshNode& r = *p.node;
    if (&r == &t || !r.radio_on) continue;
    ++rx_opportunities_;

    bool lost_overlap = false;
    for (const Interferer& o : interferers_) {
      lost_overlap = o.node == &r ? o.overlaps : o.close && in_range(*o.node, r.id);
      if (lost_overlap) break;
    }
    if (lost_overlap) {
      ++r.stats.collisions;
      continue;
    }
    if (p.per > 0.0 && rng_.chance(p.per)) {
      ++r.stats.fade_losses;
      continue;
    }
    const double cper = channels_.per(scan_channel(r));
    if (cper > 0.0 && rng_.chance(cper)) {
      ++r.stats.chan_losses;
      continue;
    }
    if (cfg_.scan_duty < 1.0 && rng_.chance(1.0 - cfg_.scan_duty)) {
      ++r.stats.duty_misses;
      continue;
    }
    ++rx_heard_;
    network_rx(r, pdu);
  }
}

void MeshWorld::network_rx(MeshNode& r, const NetworkPdu& pdu) {
  ++r.stats.rx_pdus;
  if (mode_ == Mode::kDirect) {
    // No relaying, no promiscuous processing: only the addressed next hop
    // consumes; the cache still kills transmit_count duplicates.
    if (pdu.dst != r.id) return;
    if (r.cache.check_insert(cache_key(pdu.src, pdu.seq))) {
      ++r.stats.cache_hits;
      return;
    }
    transport_rx(r, pdu);
    return;
  }

  if (pdu.src == r.id) return;  // own flood echoed back
  if (r.cache.check_insert(cache_key(pdu.src, pdu.seq))) {
    ++r.stats.cache_hits;
    if (rec_ && rec_->wants(obs::EventType::kMeshCacheHit)) {
      obs::Event e;
      e.at = sim_.now();
      e.type = obs::EventType::kMeshCacheHit;
      e.node = r.id;
      e.id = cache_key(pdu.src, pdu.seq);
      e.a = pdu.dst;
      e.flags = pdu.heartbeat ? obs::kMeshHeartbeat : std::uint16_t{0};
      rec_->record(e);
    }
    return;
  }

  if (pdu.heartbeat) {
    ++r.stats.heartbeat_rx;
    const std::uint32_t hops = pdu.init_ttl - pdu.ttl + 1;
    r.stats.heartbeat_hops_max = std::max(r.stats.heartbeat_hops_max, hops);
  } else if (pdu.dst == r.id) {
    // Unicast to an element of this node: consume, never relay.
    transport_rx(r, pdu);
    return;
  }

  // Relay rule: dst is elsewhere (or a broadcast group) — re-flood with the
  // TTL decremented, if this node has the relay feature and TTL allows.
  if (r.relay && pdu.ttl >= 2) {
    NetworkPdu copy = pdu;
    --copy.ttl;
    ++r.stats.relayed;
    if (rec_ && rec_->wants(obs::EventType::kMeshRelay)) {
      obs::Event e;
      e.at = sim_.now();
      e.type = obs::EventType::kMeshRelay;
      e.node = r.id;
      e.id = cache_key(copy.src, copy.seq);
      e.chan = static_cast<std::uint8_t>(copy.ttl);
      e.a = copy.dst;
      e.b = (static_cast<std::uint32_t>(copy.seg_idx) << 16) | copy.seg_count;
      e.flags = copy.heartbeat ? obs::kMeshHeartbeat : std::uint16_t{0};
      rec_->record(e);
    }
    enqueue_copies(r, copy);
  } else {
    ++r.stats.relay_suppressed;
  }
}

void MeshWorld::transport_rx(MeshNode& r, const NetworkPdu& pdu) {
  if (pdu.seg_count <= 1) {
    deliver_sdu(r, pdu.src, pdu.payload);
    return;
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(pdu.src) << 32) | pdu.msg_tag;
  auto it = r.reasm.find(key);
  if (it == r.reasm.end()) {
    if (r.reasm.size() >= cfg_.reasm_entries) {
      // Oldest-first eviction (ties by key): the half-built SDU is lost.
      auto victim = r.reasm.begin();
      for (auto cand = r.reasm.begin(); cand != r.reasm.end(); ++cand) {
        if (cand->second.first_at < victim->second.first_at) victim = cand;
      }
      ++r.stats.reasm_evicted;
      if (rec_ && rec_->wants(obs::EventType::kMeshSegment)) {
        obs::Event e;
        e.at = sim_.now();
        e.type = obs::EventType::kMeshSegment;
        e.node = r.id;
        e.id = victim->first;
        e.a = victim->second.got;
        e.b = victim->second.seg_count;
        e.flags = obs::kMeshSegEvicted;
        rec_->record(e);
      }
      r.reasm.erase(victim);
    }
    Reasm fresh;
    fresh.first_at = sim_.now();
    fresh.seg_count = pdu.seg_count;
    fresh.segs.resize(pdu.seg_count);
    fresh.have.assign(pdu.seg_count, false);
    it = r.reasm.emplace(key, std::move(fresh)).first;
  }
  Reasm& entry = it->second;
  if (pdu.seg_count != entry.seg_count || pdu.seg_idx >= entry.seg_count) return;
  if (entry.have[pdu.seg_idx]) return;
  entry.have[pdu.seg_idx] = true;
  entry.segs[pdu.seg_idx] = pdu.payload;
  ++entry.got;
  if (entry.got < entry.seg_count) return;

  std::vector<std::uint8_t> sdu;
  for (const auto& seg : entry.segs) sdu.insert(sdu.end(), seg.begin(), seg.end());
  if (rec_ && rec_->wants(obs::EventType::kMeshSegment)) {
    obs::Event e;
    e.at = sim_.now();
    e.type = obs::EventType::kMeshSegment;
    e.node = r.id;
    e.id = key;
    e.a = entry.seg_count;
    e.b = entry.seg_count;
    e.flags = obs::kMeshSegReassembled;
    rec_->record(e);
  }
  const NodeId src = pdu.src;
  r.reasm.erase(it);
  deliver_sdu(r, src, std::move(sdu));
}

void MeshWorld::deliver_sdu(MeshNode& r, NodeId src,
                            std::vector<std::uint8_t> sdu) {
  ++r.stats.sdu_rx;
  r.netif->deliver(src, std::move(sdu), sim_.now());
}

bool MeshWorld::origin_send(NodeId id, NodeId dst,
                            std::vector<std::uint8_t> frame) {
  MeshNode& n = node(id);
  if (!n.radio_on) return false;
  const std::size_t seg_count =
      std::max<std::size_t>(1, (frame.size() + kSegPayload - 1) / kSegPayload);
  if (seg_count > 0xFFFF) return false;
  const std::size_t needed =
      seg_count * static_cast<std::size_t>(cfg_.transmit_count);
  if (n.queue.size() + needed > cfg_.queue_cap) {
    // Bearer queue cannot take the whole SDU: refuse and let the IP stack
    // hold the frame until the writable signal (netif back-pressure).
    n.blocked.insert(dst);
    ++n.stats.backpressure;
    return false;
  }

  const std::uint32_t tag = n.msg_tag++;
  const std::uint32_t ttl = mode_ == Mode::kDirect ? 1 : cfg_.ttl;
  for (std::size_t i = 0; i < seg_count; ++i) {
    NetworkPdu pdu;
    pdu.src = id;
    pdu.dst = dst;
    pdu.seq = n.seq++;
    pdu.ttl = ttl;
    pdu.init_ttl = ttl;
    pdu.msg_tag = tag;
    pdu.seg_idx = static_cast<std::uint16_t>(i);
    pdu.seg_count = static_cast<std::uint16_t>(seg_count);
    const std::size_t lo = i * kSegPayload;
    const std::size_t hi = std::min(frame.size(), lo + kSegPayload);
    pdu.payload.assign(frame.begin() + static_cast<std::ptrdiff_t>(lo),
                       frame.begin() + static_cast<std::ptrdiff_t>(hi));
    if (mode_ == Mode::kFlood) n.cache.check_insert(cache_key(id, pdu.seq));
    ++n.stats.originated;
    ++n.stats.seg_tx;
    if (rec_ && rec_->wants(obs::EventType::kMeshSegment)) {
      obs::Event e;
      e.at = sim_.now();
      e.type = obs::EventType::kMeshSegment;
      e.node = id;
      e.id = (static_cast<std::uint64_t>(id) << 32) | tag;
      e.a = static_cast<std::uint32_t>(i);
      e.b = static_cast<std::uint32_t>(seg_count);
      e.flags = obs::kMeshSegTx;
      rec_->record(e);
    }
    enqueue_copies(n, pdu);
  }
  ++n.stats.sdu_tx;
  return true;
}

void MeshWorld::maybe_signal_writable(MeshNode& n) {
  if (n.blocked.empty()) return;
  if (n.queue.size() + cfg_.transmit_count > cfg_.queue_cap) return;
  std::set<NodeId> blocked;
  blocked.swap(n.blocked);  // the retry may legitimately re-block
  for (const NodeId dst : blocked) n.netif->writable(dst);
}

void MeshWorld::originate_heartbeat(NodeId id) {
  MeshNode& n = node(id);
  if (n.radio_on) {
    NetworkPdu pdu;
    pdu.src = id;
    pdu.dst = kAllNodes;
    pdu.seq = n.seq++;
    pdu.ttl = cfg_.ttl;
    pdu.init_ttl = cfg_.ttl;
    pdu.heartbeat = true;
    n.cache.check_insert(cache_key(id, pdu.seq));
    ++n.stats.heartbeat_tx;
    enqueue_copies(n, pdu);
  }
  sim_.schedule_in(cfg_.heartbeat_period, [this, id] { originate_heartbeat(id); });
}

void MeshWorld::on_node_crash(NodeId id) {
  MeshNode& n = node(id);
  n.radio_on = false;
  n.queue.clear();
  n.reasm.clear();
  n.blocked.clear();
}

void MeshWorld::on_node_reboot(NodeId id) {
  MeshNode& n = node(id);
  n.radio_on = true;
  schedule_tx(n);
}

}  // namespace mgap::mesh
