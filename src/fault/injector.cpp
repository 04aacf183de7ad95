#include "fault/injector.hpp"

#include <algorithm>
#include <initializer_list>

#include "ble/connection.hpp"
#include "ble/controller.hpp"
#include "ble/world.hpp"
#include "obs/recorder.hpp"

namespace mgap::fault {

namespace {

bool any_of_kinds(const std::vector<InjectedFault>& timeline,
                  std::initializer_list<FaultKind> kinds) {
  return std::any_of(timeline.begin(), timeline.end(), [&](const InjectedFault& f) {
    return std::find(kinds.begin(), kinds.end(), f.event.kind) != kinds.end();
  });
}

}  // namespace

bool InjectedFault::covers(NodeId node) const {
  return everywhere || std::binary_search(scope.begin(), scope.end(), node);
}

FaultInjector::FaultInjector(sim::Simulator& sim, ble::BleWorld* world,
                             InjectorHooks hooks)
    : sim_{sim}, world_{world}, hooks_{std::move(hooks)} {}

void FaultInjector::arm(std::vector<FaultEvent> plan) {
  if (armed_ || plan.empty()) return;
  armed_ = true;

  std::stable_sort(plan.begin(), plan.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });

  timeline_.reserve(plan.size());
  for (const FaultEvent& ev : plan) {
    InjectedFault f;
    f.event = ev;
    f.begin = ev.at;
    switch (ev.kind) {
      case FaultKind::kCrash:
      case FaultKind::kClockDrift:
        f.permanent = ev.duration.is_zero();
        f.end = f.permanent ? f.begin : f.begin + ev.duration;
        break;
      case FaultKind::kClockStep:
        f.end = f.begin;  // instant
        break;
      default:
        f.end = f.begin + ev.duration;
        break;
    }
    resolve_scope(f);
    if (ev.kind == FaultKind::kClockDrift && world_ != nullptr) {
      if (const ble::Controller* ctrl = world_->find(ev.node)) {
        built_drift_.try_emplace(ev.node, ctrl->clock().drift_ppm());
      }
    }
    timeline_.push_back(std::move(f));
  }
  seized_.assign(timeline_.size(), {});

  if (world_ != nullptr && any_of_kinds(timeline_, {FaultKind::kBlackout,
                                                    FaultKind::kAttenuate})) {
    install_link_hook();
  }
  if (world_ != nullptr && any_of_kinds(timeline_, {FaultKind::kInterfere})) {
    world_->set_channel_per([this](NodeId receiver, std::uint8_t channel, double base) {
      return windowed_channel_per(receiver, channel, base);
    });
  }

  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    sim_.schedule_at(timeline_[i].begin, [this, i] { begin_fault(i); });
    // Instant and permanent faults have no end edge.
    const InjectedFault& f = timeline_[i];
    const bool has_end = !f.permanent && f.end > f.begin;
    if (has_end) sim_.schedule_at(f.end, [this, i] { end_fault(i); });
  }
}

void FaultInjector::resolve_scope(InjectedFault& f) const {
  const FaultEvent& ev = f.event;
  if (ev.radius > 0.0 && hooks_.nodes_within) {
    f.scope = hooks_.nodes_within(ev.node, ev.radius);
  } else if (ev.kind == FaultKind::kInterfere) {
    f.everywhere = true;
  } else {
    f.scope.push_back(ev.node);
    if (ev.peer != kInvalidNode) f.scope.push_back(ev.peer);
  }
  std::sort(f.scope.begin(), f.scope.end());
}

void FaultInjector::install_link_hook() {
  prev_link_per_ = world_->link_per_fn();
  // Combine failure probabilities: surviving both hazards independently. The
  // sum holds until either part can change.
  world_->set_link_per([this](NodeId a, NodeId b) {
    const phy::LinkPer prev = prev_link_per_ ? prev_link_per_(a, b) : phy::LinkPer{};
    const phy::LinkPer extra = windowed_link_per(a, b);
    return phy::LinkPer{1.0 - (1.0 - prev.per) * (1.0 - extra.per),
                        sim::min(prev.valid_until, extra.valid_until)};
  });
}

phy::LinkPer FaultInjector::windowed_link_per(NodeId a, NodeId b) const {
  // A connection event at an edge instant sees the same value whether it
  // fires before or after begin_fault/end_fault. The value can next change
  // at the earliest edge of this link's windows after now.
  const sim::TimePoint now = sim_.now();
  phy::LinkPer out;
  for (const InjectedFault& f : timeline_) {
    if (f.event.kind != FaultKind::kBlackout && f.event.kind != FaultKind::kAttenuate) {
      continue;
    }
    const bool same_link = (f.event.node == a && f.event.peer == b) ||
                           (f.event.node == b && f.event.peer == a);
    if (!same_link) continue;
    if (now < f.begin) {
      out.valid_until = sim::min(out.valid_until, f.begin);
    } else if (now < f.end) {
      out.valid_until = sim::min(out.valid_until, f.end);
      out.per = std::max(out.per, f.event.per);
    }
  }
  return out;
}

double FaultInjector::windowed_channel_per(NodeId receiver, std::uint8_t channel,
                                           double base) const {
  // Each open interferer the receiver sits in adds its PER independently,
  // folded in begin order.
  const sim::TimePoint now = sim_.now();
  double per = base;
  for (const InjectedFault& f : timeline_) {
    if (f.event.kind != FaultKind::kInterfere || channel < f.event.chan_lo ||
        channel > f.event.chan_hi || !f.open_at(now) || !f.covers(receiver)) {
      continue;
    }
    per = 1.0 - (1.0 - per) * (1.0 - f.event.per);
  }
  return per;
}

const InjectedFault* FaultInjector::latest_open(FaultKind kind, NodeId node) const {
  const InjectedFault* latest = nullptr;
  for (const InjectedFault& f : timeline_) {
    if (f.event.kind == kind && f.event.node == node && f.open_at(sim_.now())) latest = &f;
  }
  return latest;
}

void FaultInjector::apply_drift(NodeId node) {
  ble::Controller* ctrl = world_ == nullptr ? nullptr : world_->find(node);
  const auto built = built_drift_.find(node);
  if (ctrl == nullptr || built == built_drift_.end()) return;
  // The latest-begun open window on the node sets its drift.
  const InjectedFault* f = latest_open(FaultKind::kClockDrift, node);
  ctrl->set_clock_drift(f != nullptr ? f->event.ppm : built->second);
}

void FaultInjector::apply_crash(NodeId node) {
  // A node is down while any crash window on it is open; only a change of
  // that answer powers it off or reboots it.
  const bool down = latest_open(FaultKind::kCrash, node) != nullptr;
  if (down == down_.contains(node)) return;
  if (ble::Controller* ctrl = world_ == nullptr ? nullptr : world_->find(node)) {
    ctrl->set_radio_on(!down);
  }
  if (down) {
    down_.insert(node);
    if (hooks_.on_crash) hooks_.on_crash(node);
  } else {
    down_.erase(node);
    if (hooks_.on_reboot) hooks_.on_reboot(node);
  }
}

void FaultInjector::record_fault(const InjectedFault& f, std::size_t index,
                                 bool begin) {
  if (world_ == nullptr) return;
  obs::Recorder* rec = world_->recorder();
  const auto type = begin ? obs::EventType::kFaultBegin : obs::EventType::kFaultEnd;
  if (rec == nullptr || !rec->wants(type)) return;
  obs::Event e;
  e.at = sim_.now();
  e.type = type;
  e.chan = f.event.chan_lo;
  e.flags = static_cast<std::uint16_t>(f.event.kind);
  e.node = f.event.node == kInvalidNode ? 0 : f.event.node;
  e.id = index;
  e.a = f.event.peer == kInvalidNode ? 0 : f.event.peer;
  rec->record(e);
}

void FaultInjector::begin_fault(std::size_t index) {
  const InjectedFault& f = timeline_[index];
  const FaultEvent& ev = f.event;
  record_fault(f, index, true);

  switch (ev.kind) {
    case FaultKind::kCrash:
      apply_crash(ev.node);
      break;
    case FaultKind::kBlackout:
    case FaultKind::kAttenuate:
    case FaultKind::kInterfere:
      break;  // the installed link and channel hooks read the window directly
    case FaultKind::kClockDrift:
      apply_drift(ev.node);
      break;
    case FaultKind::kClockStep: {
      if (world_ == nullptr) break;
      if (ble::Controller* ctrl = world_->find(ev.node)) {
        for (ble::Connection* conn : ctrl->connections()) {
          if (&conn->coordinator() == ctrl) conn->shift_anchor(ev.step);
        }
      }
      break;
    }
    case FaultKind::kPressure: {
      // A zero-length window is never open, so it seizes nothing.
      if (!hooks_.pktbuf_of || !f.open_at(sim_.now())) break;
      for (const NodeId nid : f.scope) {
        net::Pktbuf* buf = hooks_.pktbuf_of(nid);
        seized_[index].push_back(buf != nullptr ? buf->seize(ev.bytes) : 0);
      }
      break;
    }
  }
}

void FaultInjector::end_fault(std::size_t index) {
  const InjectedFault& f = timeline_[index];
  const FaultEvent& ev = f.event;
  record_fault(f, index, false);

  switch (ev.kind) {
    case FaultKind::kCrash:
      apply_crash(ev.node);
      break;
    case FaultKind::kClockDrift:
      apply_drift(ev.node);
      break;
    case FaultKind::kPressure: {
      for (std::size_t k = 0; k < seized_[index].size(); ++k) {
        if (seized_[index][k] == 0) continue;
        if (net::Pktbuf* buf = hooks_.pktbuf_of(f.scope[k])) buf->free(seized_[index][k]);
      }
      seized_[index].clear();
      break;
    }
    default:
      break;
  }
}

bool FaultInjector::attributable(NodeId node, sim::TimePoint at,
                                 sim::Duration grace) const {
  for (const InjectedFault& f : timeline_) {
    if (!f.covers(node) || at < f.begin) continue;
    if (f.permanent || at <= f.end + grace) return true;
  }
  return false;
}

}  // namespace mgap::fault
