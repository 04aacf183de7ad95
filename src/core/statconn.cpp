#include "core/statconn.hpp"

#include <algorithm>
#include <cassert>

#include "ble/world.hpp"
#include "sim/simulator.hpp"

namespace mgap::core {

namespace {
// Backoff jitter draws come from a dedicated per-node stream id far above the
// sequentially assigned component streams, so enabling backoff never shifts
// the draws of any other component. Keyed by the controller's creation index
// rather than its node id: ids are labels, and a monotone relabeling of the
// topology must reproduce the run bit-for-bit (pinned by test_metamorphic).
constexpr std::uint64_t kBackoffStreamBase = 0x0B0FF'0000ULL;
}  // namespace

Statconn::Statconn(NimbleNetif& netif, StatconnConfig config)
    : netif_{netif},
      ctrl_{netif.controller()},
      config_{config},
      backoff_rng_{ctrl_.world().simulator().make_rng(
          kBackoffStreamBase + ctrl_.creation_index())} {
  if (config_.policy.is_randomized()) config_.enforce_unique_intervals = true;
  netif_.add_link_listener(
      [this](ble::Connection& conn, bool up, ble::DisconnectReason reason) {
        on_link_event(conn, up, reason);
      });
}

void Statconn::add_subordinate_link(NodeId peer) {
  links_.push_back(Link{peer, ble::Role::kSubordinate, false, false, 0, {}});
  if (started_) reconcile();
}

void Statconn::add_coordinator_link(NodeId peer) {
  links_.push_back(Link{peer, ble::Role::kCoordinator, false, false, 0, {}});
  if (started_) reconcile();
}

void Statconn::suspend() {
  if (suspended_) return;
  suspended_ = true;
  ctrl_.stop_advertising();
  for (const Link& link : links_) {
    if (link.local_role == ble::Role::kCoordinator) ctrl_.stop_initiating(link.peer);
  }
}

void Statconn::resume() {
  if (!suspended_) return;
  suspended_ = false;
  // All links of a rebooting node come back at once; a fresh jitter per link
  // spreads the burst even when the crash outlived every backoff deadline.
  const sim::TimePoint now = ctrl_.world().simulator().now();
  for (Link& link : links_) {
    if (!link.up) {
      link.retry_at =
          now + backoff_rng_.uniform_duration({}, config_.reconnect_backoff_jitter);
    }
  }
  reconcile();
}

void Statconn::start() {
  started_ = true;
  reconcile();
  if (config_.param_update_mitigation) {
    // Periodic local collision repair through LL parameter updates (the
    // section 6.3 design-space alternative).
    schedule_collision_check();
  }
}

void Statconn::schedule_collision_check() {
  sim::Simulator& sim = ctrl_.world().simulator();
  sim.schedule_in(config_.update_check_interval, [this] {
    check_interval_collisions();
    schedule_collision_check();
  });
}

void Statconn::check_interval_collisions() {
  // Find a colliding pair among this node's connections; repair through the
  // one where we are subordinate (the update runs without negotiation).
  const auto conns = ctrl_.connections();
  for (ble::Connection* conn : conns) {
    if (conn->role_of(ctrl_) != ble::Role::kSubordinate) continue;
    const auto others = live_intervals(conn);
    if (!IntervalPolicy::collides(conn->params().interval, others)) continue;
    // Draw a locally non-colliding interval around the target; the peer's
    // other connections are invisible to us — exactly the blindness the
    // paper criticises.
    const sim::Duration target = config_.policy.target();
    const auto window = IntervalPolicy::randomized(target - config_.update_window,
                                                   target + config_.update_window);
    ble::ConnParams np = conn->params();
    np.interval = window.pick(ctrl_.rng(), others);
    conn->request_param_update(np);
    ++param_updates_;
  }
}

bool Statconn::all_links_up() const {
  return std::all_of(links_.begin(), links_.end(), [](const Link& l) { return l.up; });
}

Statconn::Link* Statconn::link_for(NodeId peer) {
  auto it = std::find_if(links_.begin(), links_.end(),
                         [peer](const Link& l) { return l.peer == peer; });
  return it == links_.end() ? nullptr : &*it;
}

ble::ConnParams Statconn::make_params() const {
  ble::ConnParams p;
  p.supervision_timeout = config_.supervision_timeout;
  p.subordinate_latency = config_.subordinate_latency;
  p.csa = config_.csa;
  p.phy = config_.phy;
  return p;
}

std::vector<sim::Duration> Statconn::live_intervals(ble::Connection* except) const {
  std::vector<sim::Duration> out;
  for (ble::Connection* c : ctrl_.connections()) {
    if (c == except) continue;
    out.push_back(c->params().interval);
  }
  return out;
}

sim::Duration Statconn::backoff_delay(unsigned losses_in_a_row) {
  sim::Duration d = config_.reconnect_backoff_base;
  for (unsigned i = 1; i < losses_in_a_row && d < config_.reconnect_backoff_max; ++i) {
    d = d * 2;
  }
  d = sim::min(d, config_.reconnect_backoff_max);
  return d + backoff_rng_.uniform_duration({}, config_.reconnect_backoff_jitter);
}

void Statconn::schedule_retry(sim::TimePoint at) {
  // A stale (later) pending retry is left to fire — reconcile() is
  // idempotent — but an earlier deadline always gets its own event.
  if (retry_pending_ && retry_scheduled_for_ <= at) return;
  retry_pending_ = true;
  retry_scheduled_for_ = at;
  ctrl_.world().simulator().schedule_at(at, [this] {
    retry_pending_ = false;
    if (started_ && !suspended_) reconcile();
  });
}

void Statconn::reconcile() {
  if (!started_ || suspended_) return;
  const sim::TimePoint now = ctrl_.world().simulator().now();
  bool want_advertising = false;
  sim::TimePoint next_retry;
  bool have_retry = false;
  for (Link& link : links_) {
    if (link.up) continue;
    if (link.retry_at > now) {
      // Still backing off; come back when the earliest deadline passes.
      next_retry = have_retry ? sim::min(next_retry, link.retry_at) : link.retry_at;
      have_retry = true;
      continue;
    }
    if (link.local_role == ble::Role::kSubordinate) {
      want_advertising = true;
    } else if (!ctrl_.is_initiating(link.peer)) {
      ble::ConnParams params = make_params();
      // Coordinator-side mitigation: regenerate the draw until it is unique
      // among this node's live connection intervals (section 6.3).
      const auto in_use = live_intervals(nullptr);
      params.interval = config_.policy.pick(ctrl_.rng(), in_use);
      ctrl_.start_initiating(link.peer, params);
    }
  }
  if (want_advertising) {
    ctrl_.start_advertising();
  } else {
    ctrl_.stop_advertising();
  }
  if (have_retry) schedule_retry(next_retry);
}

void Statconn::on_link_event(ble::Connection& conn, bool up, ble::DisconnectReason reason) {
  Link* link = link_for(conn.peer_of(ctrl_).id());
  if (link == nullptr) return;  // unsolicited peer; statconn ignores it

  if (up) {
    // Subordinate-side mitigation: reject an interval that collides with any
    // of our other connections; the coordinator will retry with a new draw.
    if (link->local_role == ble::Role::kSubordinate &&
        config_.enforce_unique_intervals) {
      const auto in_use = live_intervals(&conn);
      if (IntervalPolicy::collides(conn.params().interval, in_use)) {
        ++interval_rejects_;
        conn.close(ble::DisconnectReason::kLocalClose);
        return;  // the close event re-runs reconcile()
      }
    }
    if (link->ever_up) ++reconnects_;
    link->up = true;
    link->ever_up = true;
    link->losses_in_a_row = 0;
    link->retry_at = {};
  } else {
    link->up = false;
    if (reason == ble::DisconnectReason::kSupervisionTimeout) {
      ++losses_seen_;
      ++link->losses_in_a_row;
      link->retry_at = ctrl_.world().simulator().now() +
                       backoff_delay(link->losses_in_a_row);
    }
  }
  if (!suspended_) reconcile();
}

}  // namespace mgap::core
