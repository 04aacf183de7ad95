#include "net/ip_stack.hpp"

#include <cassert>

#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace mgap::net {

namespace {
// Backoff jitter draws come from a dedicated per-node stream id far above the
// sequentially assigned component streams (the statconn discipline), so
// enabling netif back-pressure never shifts the draws of any other component.
constexpr std::uint64_t kFlowJitterStreamBase = 0xF10A'0000ULL;
}  // namespace

void IpStack::record_pktbuf_drop(bool rx_path) {
  if (recorder_ == nullptr || !recorder_->wants(obs::EventType::kPktbufDrop)) return;
  obs::Event e;
  e.at = sim_.now();
  e.type = obs::EventType::kPktbufDrop;
  e.flags = rx_path ? obs::kPktbufRx : 0;
  e.node = node_;
  e.a = static_cast<std::uint32_t>(pktbuf_.used());
  e.b = static_cast<std::uint32_t>(pktbuf_.capacity());
  recorder_->record(e);
}

void IpStack::note_pktbuf_water() {
  if (recorder_ == nullptr || pktbuf_.high_water() <= reported_water_ ||
      !recorder_->wants(obs::EventType::kPktbufWater)) {
    return;
  }
  reported_water_ = pktbuf_.high_water();
  obs::Event e;
  e.at = sim_.now();
  e.type = obs::EventType::kPktbufWater;
  e.node = node_;
  e.a = static_cast<std::uint32_t>(reported_water_);
  e.b = static_cast<std::uint32_t>(pktbuf_.capacity());
  recorder_->record(e);
}

void IpStack::record_ip_packet(std::uint16_t direction,
                               std::span<const std::uint8_t> packet,
                               sim::TimePoint at) {
  if (recorder_ == nullptr || !recorder_->wants(obs::EventType::kIpPacket)) return;
  obs::Event e;
  e.at = at;
  e.type = obs::EventType::kIpPacket;
  e.flags = direction;
  e.node = node_;
  e.a = static_cast<std::uint32_t>(packet.size());
  recorder_->record(e, packet);
}

void IpStack::record_breaker(NodeId next_hop, BreakerState state, std::uint32_t shed) {
  if (recorder_ == nullptr || !recorder_->wants(obs::EventType::kFlowBreaker)) return;
  obs::Event e;
  e.at = sim_.now();
  e.type = obs::EventType::kFlowBreaker;
  e.flags = static_cast<std::uint16_t>(state);
  e.node = node_;
  e.a = static_cast<std::uint32_t>(next_hop);
  e.b = shed;
  recorder_->record(e);
}

void IpStack::record_defer(NodeId next_hop, sim::Duration delay, unsigned streak) {
  if (recorder_ == nullptr || !recorder_->wants(obs::EventType::kFlowDefer)) return;
  obs::Event e;
  e.at = sim_.now();
  e.type = obs::EventType::kFlowDefer;
  e.flags = static_cast<std::uint16_t>(streak > 0xFFFF ? 0xFFFF : streak);
  e.node = node_;
  e.a = static_cast<std::uint32_t>(next_hop);
  e.b = static_cast<std::uint32_t>(delay.count_us());
  recorder_->record(e);
}

IpStack::IpStack(sim::Simulator& sim, NodeId node, Netif& netif, IpStackConfig config)
    : sim_{sim},
      node_{node},
      netif_{netif},
      config_{config},
      pktbuf_{config.pktbuf_bytes},
      nib_{config.nib_capacity},
      flow_rng_{sim.make_rng(kFlowJitterStreamBase + config.flow_stream)} {
  // In-flight reassembly buffers live in the shared pool (GNRC semantics);
  // without this the reassembler would be a hidden unbounded side heap.
  reasm_.bind_pool(&pktbuf_, config.pkt_overhead);
  netif_.set_rx([this](NodeId src, std::vector<std::uint8_t> frame, sim::TimePoint at) {
    on_frame(src, std::move(frame), at);
  });
  netif_.set_writable([this](NodeId next_hop) { try_drain(next_hop); });
  netif_.set_neighbor_down([this](NodeId neighbor) { flush_neighbor(neighbor); });
}

void IpStack::udp_bind(std::uint16_t port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

bool IpStack::udp_send(const Ipv6Addr& dst, std::uint16_t src_port, std::uint16_t dst_port,
                       std::vector<std::uint8_t> payload) {
  const std::vector<std::uint8_t> udp =
      udp_encode(address(), dst, src_port, dst_port, payload);
  Ipv6Header h;
  h.src = address();
  h.dst = dst;
  h.next_header = kProtoUdp;
  h.hop_limit = kDefaultHopLimit;
  ++stats_.udp_sent;
  std::vector<std::uint8_t> packet = ipv6_encode(h, udp);
  record_ip_packet(obs::kIpTx, packet, sim_.now());
  return output(std::move(packet));
}

IpStack::FlowState& IpStack::flow_state(NodeId next_hop) {
  auto it = flow_.find(next_hop);
  if (it == flow_.end()) {
    it = flow_
             .emplace(next_hop,
                      FlowState{CircuitBreaker{config_.flow.breaker_threshold,
                                               config_.flow.breaker_open,
                                               config_.flow.breaker_probes},
                                0, false})
             .first;
  }
  return it->second;
}

BreakerState IpStack::breaker_state(NodeId next_hop) const {
  const auto it = flow_.find(next_hop);
  return it == flow_.end() ? BreakerState::kClosed : it->second.breaker.state();
}

std::uint64_t IpStack::breaker_opens() const {
  std::uint64_t total = 0;
  for (const auto& [hop, fs] : flow_) total += fs.breaker.opens();
  return total;
}

bool IpStack::breaker_admit(NodeId next_hop) {
  FlowState& fs = flow_state(next_hop);
  const BreakerState before = fs.breaker.state();
  const bool ok = fs.breaker.allow(sim_.now());
  if (fs.breaker.state() != before) record_breaker(next_hop, fs.breaker.state(), 0);
  return ok;
}

bool IpStack::output(std::vector<std::uint8_t> packet) {
  const auto h = ipv6_decode(packet);
  if (!h) {
    ++stats_.drop_malformed;
    return false;
  }
  const auto next_hop_addr = routes_.lookup(h->dst);
  if (!next_hop_addr) {
    ++stats_.drop_no_route;
    return false;
  }
  const auto next_hop = nib_.resolve(*next_hop_addr);
  if (!next_hop) {
    ++stats_.drop_no_neighbor;
    return false;
  }
  if (!netif_.neighbor_up(*next_hop)) {
    // Traffic that would traverse a broken link is dropped (section 5.1).
    ++stats_.drop_link_down;
    return false;
  }
  if (config_.flow.breaker && !breaker_admit(*next_hop)) {
    // The link is hopeless right now: shed at admission rather than letting
    // the packet eat pktbuf while it queues towards a dead end.
    ++stats_.drop_breaker;
    return false;
  }

  const std::vector<std::uint8_t> encoded =
      sixlo_encode(packet, config_.compression, node_, *next_hop);
  auto frames = sixlo_fragment(encoded, netif_.mtu(), frag_tag_++);

  if (config_.flow.bounded_queue()) {
    // Admission control, atomic per packet: either every fragment fits the
    // bounded queue or the packet is refused (back-pressure, not tail-drop).
    const auto it = pending_.find(*next_hop);
    const std::size_t queued = it == pending_.end() ? 0 : it->second.size();
    if (queued + frames.size() > config_.flow.txq_frames) {
      ++stats_.drop_queue_full;
      return false;
    }
  }

  for (auto& frame : frames) {
    if (!pktbuf_.alloc(frame.size() + config_.pkt_overhead)) {
      // The shared packet buffer overflows: the section 5.2 loss mechanism.
      ++stats_.drop_pktbuf;
      record_pktbuf_drop(false);
      update_rx_ready();
      return false;
    }
    note_pktbuf_water();
    pending_[*next_hop].push_back(Pending{std::move(frame)});
  }
  try_drain(*next_hop);
  update_rx_ready();
  return true;
}

void IpStack::try_drain(NodeId next_hop) {
  auto it = pending_.find(next_hop);
  if (it == pending_.end()) return;
  auto& q = it->second;
  if (config_.flow.any() && flow_state(next_hop).backoff_armed) {
    return;  // a backoff window is running; the retry timer resumes the drain
  }
  while (!q.empty()) {
    if (!netif_.neighbor_up(next_hop)) break;  // flushed via neighbor_down signal
    if (config_.flow.breaker && !breaker_admit(next_hop)) break;
    // Copy: the netif may consume the frame, but on failure we keep ours.
    if (!netif_.send(next_hop, q.front().frame)) {
      on_send_refused(next_hop);
      break;
    }
    pktbuf_.free(q.front().frame.size() + config_.pkt_overhead);
    q.pop_front();
    if (config_.flow.any()) {
      FlowState& fs = flow_state(next_hop);
      fs.fail_streak = 0;
      if (config_.flow.breaker) {
        const BreakerState before = fs.breaker.state();
        fs.breaker.on_success();
        if (fs.breaker.state() != before) {
          record_breaker(next_hop, fs.breaker.state(), 0);
        }
      }
    }
  }
  update_rx_ready();
}

void IpStack::on_send_refused(NodeId next_hop) {
  if (!config_.flow.any()) return;
  FlowState& fs = flow_state(next_hop);
  if (config_.flow.breaker && fs.breaker.on_failure(sim_.now())) {
    // Tripped open: everything queued towards this hop is load we already
    // know we cannot move — shed it now so the pktbuf breathes.
    const std::size_t shed = shed_queue(next_hop);
    record_breaker(next_hop, BreakerState::kOpen, static_cast<std::uint32_t>(shed));
    return;
  }
  if (!config_.flow.backoff || fs.backoff_armed) return;
  if (fs.fail_streak < 31) ++fs.fail_streak;
  sim::Duration delay = config_.flow.backoff_base;
  for (unsigned i = 1; i < fs.fail_streak && delay < config_.flow.backoff_max; ++i) {
    delay = delay * 2;
  }
  delay = sim::min(delay, config_.flow.backoff_max);
  if (config_.flow.backoff_jitter.count_ns() > 0) {
    delay = delay + flow_rng_.uniform_duration(sim::Duration{},
                                               config_.flow.backoff_jitter);
  }
  fs.backoff_armed = true;
  ++stats_.flow_deferrals;
  record_defer(next_hop, delay, fs.fail_streak);
  sim_.schedule_in(delay, [this, next_hop] {
    flow_state(next_hop).backoff_armed = false;
    try_drain(next_hop);
  });
}

std::size_t IpStack::shed_queue(NodeId next_hop) {
  auto it = pending_.find(next_hop);
  if (it == pending_.end()) return 0;
  const std::size_t shed = it->second.size();
  for (const Pending& p : it->second) {
    pktbuf_.free(p.frame.size() + config_.pkt_overhead);
    ++stats_.drop_breaker;
  }
  it->second.clear();
  update_rx_ready();
  return shed;
}

void IpStack::update_rx_ready() {
  const std::size_t used = pktbuf_.used();
  const std::size_t cap = pktbuf_.capacity();
  if (rx_ready_) {
    if (used * 100 > cap * config_.flow.congest_on_pct) {
      rx_ready_ = false;
      netif_.rx_ready(false);
    }
  } else if (used * 100 <= cap * config_.flow.congest_off_pct) {
    rx_ready_ = true;
    netif_.rx_ready(true);
  }
}

void IpStack::purge() {
  for (auto& [next_hop, queue] : pending_) {
    for (const Pending& p : queue) {
      pktbuf_.free(p.frame.size() + config_.pkt_overhead);
      ++stats_.drop_link_down;
    }
    queue.clear();
  }
  reasm_.clear();
  // RAM state does not survive a reboot: breakers and backoff streaks reset
  // with everything else (pending retry timers clear their flag harmlessly).
  for (auto& [next_hop, fs] : flow_) {
    fs.breaker.reset();
    fs.fail_streak = 0;
    fs.backoff_armed = false;
  }
  update_rx_ready();
}

void IpStack::flush_neighbor(NodeId neighbor) {
  auto it = pending_.find(neighbor);
  if (it != pending_.end()) {
    for (const Pending& p : it->second) {
      pktbuf_.free(p.frame.size() + config_.pkt_overhead);
      ++stats_.drop_link_down;
    }
    it->second.clear();
  }
  // The link is gone: a fresh connection must not inherit the old one's
  // breaker state or backoff streak, so post-repair delivery is never slower
  // than a bare reconnect.
  const auto fs = flow_.find(neighbor);
  if (fs != flow_.end()) {
    fs->second.breaker.reset();
    fs->second.fail_streak = 0;
    fs->second.backoff_armed = false;
  }
  update_rx_ready();
}

std::size_t IpStack::queued_bytes(NodeId next_hop) const {
  auto it = pending_.find(next_hop);
  if (it == pending_.end()) return 0;
  std::size_t total = 0;
  for (const Pending& p : it->second) total += p.frame.size();
  return total;
}

std::size_t IpStack::queued_frames(NodeId next_hop) const {
  auto it = pending_.find(next_hop);
  return it == pending_.end() ? 0 : it->second.size();
}

void IpStack::on_frame(NodeId src, std::vector<std::uint8_t> frame, sim::TimePoint at) {
  // Re-evaluate congestion after the rx charge is released below (guard
  // destructors run in reverse order, so this fires after Release frees).
  struct Refresh {
    IpStack& stack;
    ~Refresh() { stack.update_rx_ready(); }
  } refresh{*this};
  // GNRC allocates every received frame in the shared pktbuf before
  // processing; under TX backlog arriving packets are dropped right here.
  const std::size_t rx_charge = frame.size() + config_.pkt_overhead;
  if (!pktbuf_.alloc(rx_charge)) {
    ++stats_.drop_pktbuf;
    record_pktbuf_drop(true);
    return;
  }
  note_pktbuf_water();
  update_rx_ready();
  struct Release {
    Pktbuf& buf;
    std::size_t n;
    ~Release() { buf.free(n); }
  } release{pktbuf_, rx_charge};

  std::vector<std::uint8_t> encoded;
  if (sixlo_is_fragment(frame)) {
    auto done = reasm_.feed(src, frame, at);
    if (!done) return;  // waiting for more fragments
    encoded = std::move(*done);
  } else {
    encoded = std::move(frame);
  }
  auto packet = sixlo_decode(encoded, src, node_);
  if (!packet) {
    ++stats_.drop_malformed;
    return;
  }
  ++stats_.rx_packets;
  handle_packet(std::move(*packet), at);
}

void IpStack::handle_packet(std::vector<std::uint8_t> packet, sim::TimePoint at) {
  const auto h = ipv6_decode(packet);
  if (!h) {
    ++stats_.drop_malformed;
    return;
  }
  if (h->dst == address() || h->dst == link_local()) {
    record_ip_packet(obs::kIpRx, packet, at);
    deliver_local(*h, packet, at);
    return;
  }
  // Forwarding (the node is a 6LoWPAN router, section 4.2).
  if (!ipv6_decrement_hop_limit(packet)) {
    ++stats_.drop_hop_limit;
    return;
  }
  record_ip_packet(obs::kIpForward, packet, at);
  if (output(std::move(packet))) ++stats_.forwarded;
}

void IpStack::deliver_local(const Ipv6Header& h, std::span<const std::uint8_t> packet,
                            sim::TimePoint at) {
  if (h.next_header != kProtoUdp) {
    ++stats_.drop_no_handler;
    return;
  }
  auto dg = udp_decode(h.src, h.dst, ipv6_payload(packet));
  if (!dg) {
    ++stats_.drop_malformed;
    return;
  }
  auto it = udp_handlers_.find(dg->dst_port);
  if (it == udp_handlers_.end()) {
    ++stats_.drop_no_handler;
    return;
  }
  ++stats_.udp_delivered;
  it->second(h.src, dg->src_port, dg->dst_port, std::move(dg->payload), at);
}

}  // namespace mgap::net
