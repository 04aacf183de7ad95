#include "fault/injector.hpp"

#include <algorithm>

#include "ble/connection.hpp"
#include "ble/controller.hpp"
#include "ble/world.hpp"
#include "obs/recorder.hpp"

namespace mgap::fault {

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
        f.permanent = ev.duration.is_zero();
        f.end = f.permanent ? f.begin : f.begin + ev.duration;
        break;
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
    timeline_.push_back(f);
  }
  seized_bytes_.assign(timeline_.size(), 0);
  saved_channel_per_.assign(timeline_.size(), {});
  saved_drift_.assign(timeline_.size(), 0.0);
  saved_region_per_.assign(timeline_.size(), {});
  seized_region_.assign(timeline_.size(), {});

  const bool needs_link_hook =
      world_ != nullptr &&
      std::any_of(timeline_.begin(), timeline_.end(), [](const InjectedFault& f) {
        return f.event.kind == FaultKind::kBlackout ||
               f.event.kind == FaultKind::kAttenuate;
      });
  if (needs_link_hook) install_link_hook();

  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    sim_.schedule_at(timeline_[i].begin, [this, i] { begin_fault(i); });
    // Link/channel windows need no begin action beyond the hook; their end
    // actions restore saved state. Instant and permanent faults have no end.
    const InjectedFault& f = timeline_[i];
    const bool has_end = !f.permanent && f.end > f.begin;
    if (has_end) sim_.schedule_at(f.end, [this, i] { end_fault(i); });
  }
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
  // A window is open for begin <= now < end, by time alone: a connection
  // event at an edge instant sees the same value whether it fires before or
  // after begin_fault/end_fault. The value can next change at the earliest
  // edge of this link's windows after now.
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
  InjectedFault& f = timeline_[index];
  const FaultEvent& ev = f.event;
  record_fault(f, index, true);

  switch (ev.kind) {
    case FaultKind::kCrash: {
      if (world_ != nullptr) {
        if (ble::Controller* ctrl = world_->find(ev.node)) ctrl->set_radio_on(false);
      }
      if (hooks_.on_crash) hooks_.on_crash(ev.node);
      break;
    }
    case FaultKind::kBlackout:
    case FaultKind::kAttenuate:
      break;  // the installed link hook reads the window directly
    case FaultKind::kInterfere: {
      if (world_ == nullptr) break;
      if (ev.radius > 0.0 && hooks_.nodes_within) {
        // Localized interferer: only receivers inside the ball get their
        // regional channel model perturbed; everyone else keeps hearing the
        // unmodified global model.
        for (const NodeId nid : hooks_.nodes_within(ev.node, ev.radius)) {
          phy::ChannelModel& cm = world_->region_channel_model(nid);
          for (std::uint8_t ch = ev.chan_lo; ch <= ev.chan_hi; ++ch) {
            const double old = cm.per(ch);
            saved_region_per_[index].emplace_back(nid, ch, old);
            cm.set_per(ch, 1.0 - (1.0 - old) * (1.0 - ev.per));
          }
        }
        break;
      }
      phy::ChannelModel& cm = world_->channel_model();
      for (std::uint8_t ch = ev.chan_lo; ch <= ev.chan_hi; ++ch) {
        const double old = cm.per(ch);
        saved_channel_per_[index].emplace_back(ch, old);
        cm.set_per(ch, 1.0 - (1.0 - old) * (1.0 - ev.per));
      }
      break;
    }
    case FaultKind::kClockDrift: {
      if (world_ == nullptr) break;
      if (ble::Controller* ctrl = world_->find(ev.node)) {
        saved_drift_[index] = ctrl->clock().drift_ppm();
        ctrl->set_clock_drift(ev.ppm);
      }
      break;
    }
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
      if (!hooks_.pktbuf_of) break;
      if (ev.radius > 0.0 && hooks_.nodes_within) {
        // Regional buffer squeeze: every node in the ball loses capacity —
        // the memory-pressure analogue of a localized interferer.
        for (const NodeId nid : hooks_.nodes_within(ev.node, ev.radius)) {
          if (net::Pktbuf* buf = hooks_.pktbuf_of(nid)) {
            seized_region_[index].emplace_back(nid, buf->seize(ev.bytes));
          }
        }
        break;
      }
      if (net::Pktbuf* buf = hooks_.pktbuf_of(ev.node)) {
        seized_bytes_[index] = buf->seize(ev.bytes);
      }
      break;
    }
  }
}

void FaultInjector::end_fault(std::size_t index) {
  InjectedFault& f = timeline_[index];
  const FaultEvent& ev = f.event;
  record_fault(f, index, false);

  switch (ev.kind) {
    case FaultKind::kCrash: {
      if (world_ != nullptr) {
        if (ble::Controller* ctrl = world_->find(ev.node)) ctrl->set_radio_on(true);
      }
      if (hooks_.on_reboot) hooks_.on_reboot(ev.node);
      break;
    }
    case FaultKind::kBlackout:
    case FaultKind::kAttenuate:
      break;
    case FaultKind::kInterfere: {
      if (world_ == nullptr) break;
      if (!saved_region_per_[index].empty()) {
        // Restore in reverse so overlapping windows unwind correctly.
        for (auto it = saved_region_per_[index].rbegin();
             it != saved_region_per_[index].rend(); ++it) {
          world_->region_channel_model(std::get<0>(*it))
              .set_per(std::get<1>(*it), std::get<2>(*it));
        }
        saved_region_per_[index].clear();
        break;
      }
      phy::ChannelModel& cm = world_->channel_model();
      // Restore in reverse so overlapping windows unwind correctly.
      for (auto it = saved_channel_per_[index].rbegin();
           it != saved_channel_per_[index].rend(); ++it) {
        cm.set_per(it->first, it->second);
      }
      saved_channel_per_[index].clear();
      break;
    }
    case FaultKind::kClockDrift: {
      if (world_ == nullptr) break;
      if (ble::Controller* ctrl = world_->find(ev.node)) {
        ctrl->set_clock_drift(saved_drift_[index]);
      }
      break;
    }
    case FaultKind::kClockStep:
      break;
    case FaultKind::kPressure: {
      if (!hooks_.pktbuf_of) break;
      for (const auto& [nid, taken] : seized_region_[index]) {
        if (taken == 0) continue;
        if (net::Pktbuf* buf = hooks_.pktbuf_of(nid)) buf->free(taken);
      }
      seized_region_[index].clear();
      if (seized_bytes_[index] == 0) break;
      if (net::Pktbuf* buf = hooks_.pktbuf_of(ev.node)) {
        buf->free(seized_bytes_[index]);
      }
      seized_bytes_[index] = 0;
      break;
    }
  }
}

bool FaultInjector::attributable(NodeId node, sim::TimePoint at,
                                 sim::Duration grace) const {
  for (const InjectedFault& f : timeline_) {
    bool involves = false;
    switch (f.event.kind) {
      case FaultKind::kBlackout:
      case FaultKind::kAttenuate:
        involves = f.event.node == node || f.event.peer == node;
        break;
      case FaultKind::kInterfere:
        involves = true;
        break;
      default:
        involves = f.event.node == node;
        break;
    }
    if (!involves || at < f.begin) continue;
    if (f.permanent || at <= f.end + grace) return true;
  }
  return false;
}

}  // namespace mgap::fault
