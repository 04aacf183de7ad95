#include "app/coap_endpoint.hpp"

#include <algorithm>
#include <cmath>

#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace mgap::app {

namespace {

// Dedicated RNG stream family for initial-RTO jitter (ACK_RANDOM_FACTOR):
// drawing from a fixed stream id instead of the client's sequential stream
// means CoAP jitter draws never shift when components are added elsewhere.
constexpr std::uint64_t kRtoStreamBase = 0xC0A9'0000ULL;

// CoCoA estimator constants (Betzler et al., CoAP Simple Congestion Control/
// Advanced). RTO terms in seconds.
constexpr double kCocoaAlpha = 0.125;   // SRTT gain
constexpr double kCocoaBeta = 0.25;     // RTTVAR gain
constexpr double kStrongK = 4.0;        // RTO_strong = SRTT + 4 RTTVAR
constexpr double kWeakK = 1.0;          // RTO_weak = SRTT + 1 RTTVAR
constexpr double kStrongMix = 0.5;      // overall = 0.5 strong + 0.5 prev
constexpr double kWeakMix = 0.25;       // overall = 0.25 weak + 0.75 prev
constexpr double kRtoMinS = 0.25;       // overall-estimate clamp
constexpr double kRtoMaxS = 32.0;

void record_coap(net::IpStack& stack, sim::TimePoint at, std::uint64_t token,
                 obs::CoapPhase phase, std::uint32_t a) {
  obs::Recorder* rec = stack.recorder();
  if (rec == nullptr || !rec->wants(obs::EventType::kCoapTxn)) return;
  obs::Event e;
  e.at = at;
  e.type = obs::EventType::kCoapTxn;
  e.flags = static_cast<std::uint16_t>(phase);
  e.node = stack.node();
  e.id = token;
  e.a = a;
  rec->record(e);
}

std::uint64_t token_to_u64(const std::vector<std::uint8_t>& token) {
  std::uint64_t v = 0;
  for (const std::uint8_t b : token) v = v << 8 | b;
  return v;
}

std::vector<std::uint8_t> u64_to_token(std::uint64_t v) {
  // Fixed 4-byte tokens: together with the 3-byte "gap" path this yields the
  // paper's 100-byte IP packets for 39-byte payloads.
  return {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
}

}  // namespace

CoapServer::CoapServer(net::IpStack& stack, std::uint16_t port) : stack_{stack}, port_{port} {
  stack_.udp_bind(port_, [this](const net::Ipv6Addr& src, std::uint16_t sport,
                                std::uint16_t dport, std::vector<std::uint8_t> payload,
                                sim::TimePoint at) {
    on_datagram(src, sport, dport, std::move(payload), at);
  });
}

void CoapServer::on_get(std::string path, Handler handler) {
  resources_[std::move(path)] = std::move(handler);
}

void CoapServer::on_datagram(const net::Ipv6Addr& src, std::uint16_t src_port,
                             std::uint16_t /*dst_port*/, std::vector<std::uint8_t> payload,
                             sim::TimePoint at) {
  auto msg = coap_decode(payload);
  if (!msg || !msg->is_request()) return;

  // Deduplicate retransmitted CON requests: replay the cached response
  // instead of re-executing the handler (RFC 7252 section 4.2).
  const auto key = std::make_pair(src, msg->message_id);
  if (msg->type == CoapType::kCon) {
    // Expire stale cache entries (EXCHANGE_LIFETIME ~ 247 s; 60 s suffices
    // for the workloads here and bounds memory).
    std::erase_if(dedup_, [at](const auto& kv) {
      return at - kv.second.at > sim::Duration::sec(60);
    });
    auto cached = dedup_.find(key);
    if (cached != dedup_.end()) {
      ++duplicates_rx_;
      if (stack_.udp_send(src, port_, src_port, cached->second.wire)) ++responses_tx_;
      return;
    }
  }
  ++requests_rx_;

  CoapMessage rsp;
  auto it = resources_.find(msg->uri_path());
  if (msg->code == kCodeGet && it != resources_.end()) {
    rsp = it->second(*msg, src);
  } else {
    rsp.code = kCodeNotFound;
  }
  // CON requests get piggybacked ACK responses; NON requests NON responses.
  rsp.type = msg->type == CoapType::kCon ? CoapType::kAck : CoapType::kNon;
  rsp.token = msg->token;
  rsp.message_id = msg->message_id;

  const auto wire = coap_encode(rsp);
  if (msg->type == CoapType::kCon) dedup_[key] = CachedResponse{wire, at};
  if (stack_.udp_send(src, port_, src_port, wire)) ++responses_tx_;
}

CoapClient::CoapClient(sim::Simulator& sim, net::IpStack& stack, std::uint16_t local_port)
    : sim_{sim},
      stack_{stack},
      local_port_{local_port},
      // rng_ keeps its sequential stream slot for construction-order
      // stability even though RTO jitter now draws from rto_rng_.
      rng_{sim.make_rng()},
      rto_rng_{sim.make_rng(kRtoStreamBase)} {
  stack_.udp_bind(local_port_, [this](const net::Ipv6Addr& src, std::uint16_t sport,
                                      std::uint16_t dport, std::vector<std::uint8_t> payload,
                                      sim::TimePoint at) {
    on_datagram(src, sport, dport, std::move(payload), at);
  });
}

bool CoapClient::get(const net::Ipv6Addr& dst, std::string_view path,
                     std::vector<std::uint8_t> payload, ResponseCb cb) {
  CoapMessage req;
  req.type = CoapType::kNon;
  req.code = kCodeGet;
  req.message_id = next_mid_++;
  const std::uint64_t token_id = next_token_++;
  req.token = u64_to_token(token_id);
  req.add_uri_path(path);
  req.payload = std::move(payload);

  Pending p;
  p.sent = sim_.now();
  p.cb = std::move(cb);
  pending_[token_id] = std::move(p);
  ++requests_sent_;
  record_coap(stack_, sim_.now(), token_id, obs::CoapPhase::kSentNon,
              static_cast<std::uint32_t>(req.payload.size()));
  return stack_.udp_send(dst, local_port_, kCoapPort, coap_encode(req));
}

bool CoapClient::con_get(const net::Ipv6Addr& dst, std::string_view path,
                         std::vector<std::uint8_t> payload, ResponseCb cb,
                         TimeoutCb on_timeout) {
  CoapMessage req;
  req.type = CoapType::kCon;
  req.code = kCodeGet;
  req.message_id = next_mid_++;
  const std::uint64_t token_id = next_token_++;
  req.token = u64_to_token(token_id);
  req.add_uri_path(path);
  req.payload = std::move(payload);

  Pending p;
  p.sent = sim_.now();
  p.cb = std::move(cb);
  p.confirmable = true;
  p.wire = coap_encode(req);
  p.dst = dst;
  p.on_timeout = std::move(on_timeout);
  pending_[token_id] = std::move(p);
  // The request counts as sent the moment it is handed to the client: queue
  // time under NSTART is part of the measured RTT (the paper's metric).
  ++requests_sent_;
  record_coap(stack_, sim_.now(), token_id, obs::CoapPhase::kSentCon,
              static_cast<std::uint32_t>(req.payload.size()));
  if (cc_.nstart > 0) {
    DestState& ds = dests_[dst];
    if (ds.outstanding >= cc_.nstart) {
      ++nstart_deferrals_;
      ds.queue.push_back(token_id);
      return true;  // accepted; transmission waits for a free NSTART slot
    }
  }
  return dispatch(token_id);
}

void CoapClient::set_cc(CoapCcConfig cc) {
  cc_ = cc;
  rto_rng_ = sim_.make_rng(kRtoStreamBase + cc.rto_stream);
}

bool CoapClient::dispatch(std::uint64_t token_id) {
  auto it = pending_.find(token_id);
  if (it == pending_.end()) return false;
  Pending& p = it->second;
  p.dispatched = true;
  p.attempts = 1;
  p.first_tx = sim_.now();
  p.timeout = initial_rto(p.dst);
  p.init_timeout = p.timeout;
  ++dests_[p.dst].outstanding;
  const bool ok = stack_.udp_send(p.dst, local_port_, kCoapPort, p.wire);
  arm_retransmission(token_id);
  return ok;
}

void CoapClient::release_slot(const net::Ipv6Addr& dst) {
  auto it = dests_.find(dst);
  if (it == dests_.end()) return;
  DestState& ds = it->second;
  if (ds.outstanding > 0) --ds.outstanding;
  while (!ds.queue.empty()) {
    const std::uint64_t next = ds.queue.front();
    ds.queue.pop_front();
    if (pending_.find(next) != pending_.end()) {
      dispatch(next);  // expired queue entries are skipped
      break;
    }
  }
}

sim::Duration CoapClient::initial_rto(const net::Ipv6Addr& dst) {
  double base_s = con_params_.ack_timeout.to_sec_f();
  if (cc_.mode == CoapCcConfig::Mode::kCocoa) {
    const auto it = cocoa_.find(dst);
    if (it != cocoa_.end() && it->second.has_rto) {
      CocoaState& st = it->second;
      // Lazy RTO aging: estimates that sat unused decay back towards sanity
      // — small ones grow (stale confidence), large ones shrink.
      const double idle_s = (sim_.now() - st.last_update).to_sec_f();
      if (st.rto < 1.0 && idle_s > 16.0 * st.rto) {
        st.rto = std::clamp(2.0 * st.rto, kRtoMinS, kRtoMaxS);
        st.last_update = sim_.now();
      } else if (st.rto > 3.0 && idle_s > 4.0 * st.rto) {
        st.rto = 1.0 + st.rto / 2.0;
        st.last_update = sim_.now();
      }
      base_s = st.rto;
    }
  }
  // Initial timeout in [RTO, RTO * ACK_RANDOM_FACTOR], jitter from the
  // dedicated stream.
  return sim::Duration::sec_f(
      base_s * rto_rng_.uniform_real(1.0, con_params_.ack_random_factor));
}

void CoapClient::cocoa_update(const net::Ipv6Addr& dst, double rtt_s, unsigned attempts) {
  CocoaState& st = cocoa_[dst];
  double rto_x = 0.0;
  double mix = 0.0;
  if (attempts <= 1) {
    // Strong sample: the response matches an unretransmitted request.
    if (!st.has_strong) {
      st.srtt_s = rtt_s;
      st.rttvar_s = rtt_s / 2.0;
      st.has_strong = true;
    } else {
      st.rttvar_s = (1.0 - kCocoaBeta) * st.rttvar_s + kCocoaBeta * std::abs(st.srtt_s - rtt_s);
      st.srtt_s = (1.0 - kCocoaAlpha) * st.srtt_s + kCocoaAlpha * rtt_s;
    }
    rto_x = st.srtt_s + kStrongK * st.rttvar_s;
    mix = kStrongMix;
  } else if (attempts <= 3) {
    // Weak sample (RTT measured from the first transmission): ambiguous,
    // so it moves the overall estimate with less weight and K = 1.
    if (!st.has_weak) {
      st.srtt_w = rtt_s;
      st.rttvar_w = rtt_s / 2.0;
      st.has_weak = true;
    } else {
      st.rttvar_w = (1.0 - kCocoaBeta) * st.rttvar_w + kCocoaBeta * std::abs(st.srtt_w - rtt_s);
      st.srtt_w = (1.0 - kCocoaAlpha) * st.srtt_w + kCocoaAlpha * rtt_s;
    }
    rto_x = st.srtt_w + kWeakK * st.rttvar_w;
    mix = kWeakMix;
  } else {
    return;  // three or more retransmissions: sample too ambiguous to use
  }
  const double prev = st.has_rto ? st.rto : con_params_.ack_timeout.to_sec_f();
  st.rto = std::clamp(mix * rto_x + (1.0 - mix) * prev, kRtoMinS, kRtoMaxS);
  st.has_rto = true;
  st.last_update = sim_.now();
}

double CoapClient::rto_estimate(const net::Ipv6Addr& dst) const {
  const auto it = cocoa_.find(dst);
  if (cc_.mode != CoapCcConfig::Mode::kCocoa || it == cocoa_.end() || !it->second.has_rto) {
    return con_params_.ack_timeout.to_sec_f();
  }
  return it->second.rto;
}

void CoapClient::arm_retransmission(std::uint64_t token_id) {
  auto it = pending_.find(token_id);
  if (it == pending_.end()) return;
  it->second.timer = sim_.schedule_in(it->second.timeout,
                                      [this, token_id] { on_retransmit_timer(token_id); });
}

void CoapClient::on_retransmit_timer(std::uint64_t token_id) {
  auto it = pending_.find(token_id);
  if (it == pending_.end()) return;  // answered meanwhile
  Pending& p = it->second;
  if (p.attempts > con_params_.max_retransmit) {
    ++con_timeouts_;
    record_coap(stack_, sim_.now(), token_id, obs::CoapPhase::kTimeout, p.attempts);
    TimeoutCb cb = std::move(p.on_timeout);
    const net::Ipv6Addr dst = p.dst;
    pending_.erase(it);
    release_slot(dst);
    if (cb) cb();
    return;
  }
  ++p.attempts;
  ++retransmissions_;
  record_coap(stack_, sim_.now(), token_id, obs::CoapPhase::kRetransmit, p.attempts);
  if (cc_.mode == CoapCcConfig::Mode::kCocoa) {
    // CoCoA variable backoff: the factor follows the exchange's initial RTO
    // — small RTOs back off hard (x3) so retransmissions do not bunch inside
    // one RTT; large ones gently (x1.3) so MAX_RETRANSMIT still fits.
    const double init_s = p.init_timeout.to_sec_f();
    const double factor = init_s < 1.0 ? 3.0 : (init_s > 3.0 ? 1.3 : 2.0);
    p.timeout = sim::min(p.timeout.scaled(factor), sim::Duration::sec_f(kRtoMaxS));
  } else {
    p.timeout = p.timeout * 2;  // binary exponential backoff
  }
  (void)stack_.udp_send(p.dst, local_port_, kCoapPort, p.wire);
  arm_retransmission(token_id);
}

void CoapClient::on_datagram(const net::Ipv6Addr& /*src*/, std::uint16_t /*src_port*/,
                             std::uint16_t /*dst_port*/, std::vector<std::uint8_t> payload,
                             sim::TimePoint at) {
  auto msg = coap_decode(payload);
  if (!msg || !msg->is_response()) return;
  auto it = pending_.find(token_to_u64(msg->token));
  if (it == pending_.end()) {
    ++stale_responses_;
    return;
  }
  ++responses_rx_;
  const sim::Duration rtt = at - it->second.sent;
  record_coap(stack_, at, it->first, obs::CoapPhase::kResponse,
              static_cast<std::uint32_t>(rtt.count_us()));
  if (it->second.timer.valid()) sim_.cancel(it->second.timer);
  const bool was_con = it->second.confirmable && it->second.dispatched;
  if (was_con && cc_.mode == CoapCcConfig::Mode::kCocoa) {
    // Estimator samples run from the first transmission, not from con_get:
    // NSTART queue time is the client's own doing, not network RTT.
    cocoa_update(it->second.dst, (at - it->second.first_tx).to_sec_f(),
                 it->second.attempts);
  }
  const net::Ipv6Addr dst = it->second.dst;
  auto cb = std::move(it->second.cb);
  pending_.erase(it);
  if (was_con) release_slot(dst);
  if (cb) cb(*msg, rtt);
}

void CoapClient::expire_pending(sim::Duration age) {
  const sim::TimePoint now = sim_.now();
  std::vector<net::Ipv6Addr> released;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.sent > age) {
      if (it->second.timer.valid()) sim_.cancel(it->second.timer);
      if (it->second.confirmable && it->second.dispatched) {
        released.push_back(it->second.dst);
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  // Queued-but-undispatched entries vanish silently: release_slot skips
  // tokens that are no longer pending.
  for (const net::Ipv6Addr& dst : released) release_slot(dst);
}

}  // namespace mgap::app
