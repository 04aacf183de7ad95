#include "ble/controller.hpp"

#include <algorithm>
#include <cassert>

#include "ble/world.hpp"
#include "sim/simulator.hpp"

namespace mgap::ble {

Controller::Controller(sim::Simulator& sim, BleWorld& world, NodeId id,
                       std::uint32_t creation_index, sim::SleepClock clock,
                       ControllerConfig config)
    : clock_{clock},
      id_{id},
      sim_{sim},
      world_{world},
      config_{std::move(config)},
      rng_{sim.make_rng()},
      creation_index_{creation_index} {}

// --- GAP: advertising --------------------------------------------------------

void Controller::set_radio_on(bool on) {
  if (radio_on_ == on) return;
  radio_on_ = on;
  if (!on) {
    stop_advertising();
    while (!intents_.empty()) stop_initiating(intents_.back().peer);
  }
}

void Controller::start_advertising() {
  if (advertising_ || !radio_on_) return;
  advertising_ = true;
  ++adv_session_;
  const std::uint64_t session = adv_session_;
  // First event after the spec's 0..advDelay jitter only: reconnects must be
  // fast (the paper measures 10-100 ms reconnect delays, section 4.2).
  const sim::Duration delay = rng_.uniform_duration(sim::Duration{}, config_.adv.jitter);
  sim_.schedule_in(delay, [this, session] { on_adv_event(session); });
}

void Controller::stop_advertising() {
  advertising_ = false;
  ++adv_session_;
}

void Controller::on_adv_event(std::uint64_t session) {
  if (!advertising_ || session != adv_session_) return;

  const sim::TimePoint now = sim_.now();
  const sim::Duration dur = phy::kAdvEventDuration;
  // Advertising competes for the same radio as connection events; a denied
  // claim skips this advertising event.
  if (sched_.try_claim(now, now + dur, adv_owner())) {
    ++activity_.adv_events;
    world_.route_adv_event(*this, now, dur);
    sched_.release(adv_owner());
  }

  if (!advertising_ || session != adv_session_) return;  // connect may have stopped us
  const sim::Duration delay =
      config_.adv.interval + rng_.uniform_duration(sim::Duration{}, config_.adv.jitter);
  sim_.schedule_in(delay, [this, session] { on_adv_event(session); });
}

// --- GAP: scanning / initiating ------------------------------------------------

void Controller::start_initiating(NodeId peer, ConnParams params) {
  if (is_initiating(peer) || !radio_on_) return;
  intents_.push_back(Intent{peer, params, sim_.now()});
}

void Controller::stop_initiating(NodeId peer) {
  auto it = std::find_if(intents_.begin(), intents_.end(),
                         [peer](const Intent& i) { return i.peer == peer; });
  if (it == intents_.end()) return;
  activity_.scan_time += sim_.now() - it->scan_start;
  intents_.erase(it);
}

bool Controller::is_initiating(NodeId peer) const {
  return std::any_of(intents_.begin(), intents_.end(),
                     [peer](const Intent& i) { return i.peer == peer; });
}

void Controller::start_observing(ObserverCb cb) {
  observer_ = std::move(cb);
  observe_start_ = sim_.now();
}

void Controller::stop_observing() {
  if (observer_) activity_.scan_time += sim_.now() - observe_start_;
  observer_ = nullptr;
}

const ConnParams* Controller::initiating_params(NodeId peer) const {
  auto it = std::find_if(intents_.begin(), intents_.end(),
                         [peer](const Intent& i) { return i.peer == peer; });
  return it == intents_.end() ? nullptr : &it->params;
}

bool Controller::scanner_hears(sim::TimePoint t, sim::Duration adv_duration) const {
  if (!radio_on_) return false;
  // The scanner is a lower-priority radio user: connection events preempt it.
  if (!sched_.is_free(t, t + adv_duration, /*owner=*/0)) return false;
  if (config_.scan.window >= config_.scan.interval) return true;  // 100% duty
  // Scan-window phase test relative to the scan start.
  sim::TimePoint start;
  if (!intents_.empty()) {
    start = intents_.front().scan_start;
  } else if (observer_) {
    start = observe_start_;
  } else {
    return false;
  }
  const sim::Duration phase = (t - start) % config_.scan.interval;
  return phase < config_.scan.window;
}

// --- data path -----------------------------------------------------------------

bool Controller::l2cap_send(Connection& conn, std::vector<std::uint8_t> sdu) {
  if (!conn.is_open()) return false;
  return conn.coc().send(conn.role_of(*this), std::move(sdu), sim_.now());
}

std::vector<Connection*> Controller::connections() const {
  std::vector<Connection*> out;
  out.reserve(links_.size());
  for (const auto& [peer, conn] : links_) out.push_back(conn);
  return out;
}

Connection* Controller::connection_to(NodeId peer) const {
  auto it = links_.find(peer);
  return it == links_.end() ? nullptr : it->second;
}

// --- buffer pool -----------------------------------------------------------------

bool Controller::pool_alloc(std::size_t n) {
  if (pool_used_ + n > config_.buffer_bytes) {
    ++pool_denied_;
    return false;
  }
  pool_used_ += n;
  return true;
}

void Controller::pool_free(std::size_t n) {
  assert(pool_used_ >= n);
  pool_used_ -= n;
}

// --- host notification -------------------------------------------------------------

void Controller::notify_open(Connection& conn) {
  links_[conn.peer_of(*this).id()] = &conn;
  if (host_.on_open) host_.on_open(conn);
}

void Controller::notify_close(Connection& conn, DisconnectReason reason) {
  auto it = links_.find(conn.peer_of(*this).id());
  if (it != links_.end() && it->second == &conn) links_.erase(it);
  if (host_.on_close) host_.on_close(conn, reason);
}

void Controller::notify_sdu(Connection& conn, std::vector<std::uint8_t> sdu,
                            sim::TimePoint at) {
  if (host_.on_sdu) host_.on_sdu(conn, std::move(sdu), at);
}

void Controller::notify_tx_space(Connection& conn) {
  if (host_.on_tx_space) host_.on_tx_space(conn);
}

}  // namespace mgap::ble
