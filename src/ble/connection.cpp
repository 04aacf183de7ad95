#include "ble/connection.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

#include "ble/controller.hpp"
#include "ble/world.hpp"
#include "obs/recorder.hpp"
#include "phy/ble_phy.hpp"
#include "sim/simulator.hpp"

namespace mgap::ble {

Connection::Connection(sim::Simulator& sim, BleWorld& world, ConnId id, Controller& coord,
                       Controller& sub, const ConnParams& params,
                       sim::TimePoint first_anchor, std::uint32_t access_address,
                       const ChannelMap& chmap, LinkStats& stats,
                       const ConnectionConfig& config, sim::Rng rng)
    : coord_{coord},
      sub_{sub},
      params_{params},
      config_{config},
      chan_sel_{params.csa, access_address,
                static_cast<std::uint8_t>(5 + access_address % 12)},
      chmap_{chmap},
      rng_{rng},
      stats_{stats},
      sim_{sim},
      world_{world},
      id_{id},
      access_address_{access_address},
      coc_{*this, coord.config().l2cap} {
  hot_.anchor = first_anchor;
  hot_.last_valid_rx_coord = first_anchor;
  hot_.last_valid_rx_sub = first_anchor;
  hot_.last_sub_sync = first_anchor;
}

Controller& Connection::node(Role r) const {
  return r == Role::kCoordinator ? coord_ : sub_;
}

Role Connection::role_of(const Controller& c) const {
  assert(&c == &coord_ || &c == &sub_);
  return &c == &coord_ ? Role::kCoordinator : Role::kSubordinate;
}

Controller& Connection::peer_of(const Controller& c) const {
  return node(other(role_of(c)));
}

std::size_t Connection::queued_bytes(Role from) const {
  std::size_t total = 0;
  for (const LlPdu& p : queue_of(from)) total += p.payload.size();
  return total;
}

void Connection::start() {
  assert(!hot_.open);
  hot_.open = true;
  claim_event_slots(hot_.anchor);
  schedule_event(hot_.anchor);
}

void Connection::close(DisconnectReason reason) {
  terminate(reason);
}

bool Connection::enqueue(Role from, LlPdu pdu) {
  if (!hot_.open) return false;
  Controller& sender = node(from);
  if (!sender.pool_alloc(pdu.payload.size())) return false;
  queue_of(from).push_back(std::move(pdu));
  return true;
}

void Connection::request_param_update(const ConnParams& params) {
  pending_params_ = params;
  apply_params_at_ = static_cast<std::uint16_t>(hot_.event_counter + kUpdateDelayEvents);
}

void Connection::request_channel_map_update(const ChannelMap& map) {
  assert(map.used_count() >= 2);
  pending_chmap_ = map;
  apply_chmap_at_ = static_cast<std::uint16_t>(hot_.event_counter + kUpdateDelayEvents);
}

void Connection::afh_note(std::uint8_t channel, bool ok) {
  if (!config_.adaptive_channel_map) return;
  ++afh_tx_[channel];
  if (!ok) ++afh_fail_[channel];
}

void Connection::afh_evaluate() {
  // Exclude channels whose observed PER exceeds the threshold, worst first,
  // while keeping at least afh_min_channels usable.
  ChannelMap map = chmap_;
  struct Bad {
    std::uint8_t ch;
    double per;
  };
  std::vector<Bad> bad;
  for (std::uint8_t ch = 0; ch < 37; ++ch) {
    if (!map.is_used(ch) || afh_tx_[ch] < config_.afh_min_samples) continue;
    const double per =
        static_cast<double>(afh_fail_[ch]) / static_cast<double>(afh_tx_[ch]);
    if (per > config_.afh_per_threshold) bad.push_back(Bad{ch, per});
  }
  std::sort(bad.begin(), bad.end(),
            [](const Bad& a, const Bad& b) { return a.per > b.per; });
  bool changed = false;
  for (const Bad& b : bad) {
    if (map.used_count() <= config_.afh_min_channels) break;
    map.exclude(b.ch);
    changed = true;
  }
  if (changed) request_channel_map_update(map);
  // Exponential decay instead of a hard reset: per-channel evidence (only a
  // handful of draws land on each of 37 channels per window) accumulates
  // across windows while old observations age out.
  for (std::size_t ch = 0; ch < 37; ++ch) {
    afh_tx_[ch] /= 2;
    afh_fail_[ch] /= 2;
  }
}

sim::Duration Connection::window_widening(sim::TimePoint at) const {
  const double combined_ppm =
      std::abs(coord_.clock().drift_ppm()) + std::abs(sub_.clock().drift_ppm());
  const sim::Duration since = sim::max(at - hot_.last_sub_sync, sim::Duration{});
  const sim::Duration ww = since.scaled(combined_ppm * 1e-6) + config_.ww_margin;
  return sim::min(ww, params_.interval / 2);
}

void Connection::claim_event_slots(sim::TimePoint anchor) {
  // A powered-down radio (crash fault) grants nothing; the connection keeps
  // missing events until the supervision timeout fires.
  hot_.coord_granted = coord_.radio_on() &&
                   coord_.scheduler().try_claim(anchor, anchor + config_.reserve_slot, id_);
  // Subordinate latency: with empty queues the subordinate may sleep through
  // up to `subordinate_latency` events (section 2.2, energy optimization).
  if (params_.subordinate_latency > 0 && sub_q_.empty() &&
      hot_.latency_skips < params_.subordinate_latency) {
    ++hot_.latency_skips;
    hot_.sub_granted = false;
    hot_.sub_intentional_skip = true;
    return;
  }
  hot_.latency_skips = 0;
  hot_.sub_intentional_skip = false;
  const sim::Duration ww = window_widening(anchor);
  hot_.sub_granted =
      sub_.radio_on() &&
      sub_.scheduler().try_claim(anchor - ww, anchor + config_.reserve_slot + ww, id_);
}

void Connection::shift_anchor(sim::Duration delta) {
  if (!hot_.open) return;
  sim_.cancel(hot_.next_event);
  coord_.scheduler().release(id_);
  sub_.scheduler().release(id_);
  hot_.anchor = sim::max(hot_.anchor + delta, sim_.now());
  claim_event_slots(hot_.anchor);
  schedule_event(hot_.anchor);
}

void Connection::schedule_event(sim::TimePoint anchor) {
  // Member order is the idle event's read order (see ConnHot): it reads this
  // object from its start through pending_chmap_, both endpoints' hot heads
  // and the idle counters at the head of LinkStats, so the queue prefetches
  // all four spans once the event is next in line.
  const auto idle_bytes = static_cast<std::size_t>(
      reinterpret_cast<const std::byte*>(&pending_chmap_ + 1) -
      reinterpret_cast<const std::byte*>(this));
  const auto stats_bytes = static_cast<std::size_t>(
      reinterpret_cast<const std::byte*>(&stats_.events_aborted + 1) -
      reinterpret_cast<const std::byte*>(&stats_));
  hot_.next_event = sim_.schedule_at(
      anchor, [this, anchor] { on_conn_event(anchor); },
      sim::Touch{{sim::TouchSpan{this, idle_bytes}, coord_.idle_span(), sub_.idle_span(),
                  sim::TouchSpan{&stats_, stats_bytes}}});
}

void Connection::on_conn_event(sim::TimePoint anchor) {
  if (!hot_.open) return;

  const std::uint8_t channel = chan_sel_.channel_for_event(hot_.event_counter, chmap_);

  if (hot_.coord_granted) ++coord_.activity().conn_events_coord;
  if (hot_.sub_granted) ++sub_.activity().conn_events_sub;

  if (hot_.coord_granted && hot_.sub_granted) {
    const bool synced = run_exchange(anchor, channel);
    if (synced) hot_.last_sub_sync = anchor;
  } else if (!hot_.sub_intentional_skip) {
    ++stats_.events_missed;
    if (obs::Recorder* rec = world_.recorder();
        rec != nullptr && rec->wants(obs::EventType::kConnEventMissed)) {
      obs::Event e;
      e.at = anchor;
      e.type = obs::EventType::kConnEventMissed;
      e.chan = channel;
      e.flags = static_cast<std::uint16_t>(
          (hot_.coord_granted ? obs::kEvCoordGranted : 0) |
          (hot_.sub_granted ? obs::kEvSubGranted : 0));
      e.node = coord_.id();
      e.id = id_;
      e.b = hot_.event_counter;
      rec->record(e);
    }
    // A transmitting coordinator whose subordinate is shaded away burns a
    // data-PDU attempt without delivery — this is the per-channel-even link
    // degradation of Figure 12.
    if (hot_.coord_granted && !hot_.sub_granted && !coord_q_.empty()) {
      ++stats_.pdu_tx;
      ++stats_.chan_tx[channel];
      ++stats_.pdu_retrans;
    }
  }

  // Supervision: too long without a valid packet on either side kills the
  // connection (section 2.2); this is the loss mechanism of section 6.1.
  // Intentional latency skips refresh nothing — the configuration must keep
  // the timeout above (latency + 1) * interval, as the spec demands.
  if (anchor - hot_.last_valid_rx_coord > params_.supervision_timeout ||
      anchor - hot_.last_valid_rx_sub > params_.supervision_timeout) {
    terminate(DisconnectReason::kSupervisionTimeout);
    return;
  }

  ++hot_.event_counter;
  if (pending_params_ && hot_.event_counter == apply_params_at_) {
    params_ = *pending_params_;
    pending_params_.reset();
  }
  if (pending_chmap_ && hot_.event_counter == apply_chmap_at_) {
    chmap_ = *pending_chmap_;
    pending_chmap_.reset();
  }
  if (config_.adaptive_channel_map && !pending_chmap_ &&
      hot_.event_counter % config_.afh_eval_events == 0) {
    afh_evaluate();
  }

  // The coordinator's sleep clock advances the anchor: nominal interval
  // stretched by its drift. This is where clock drift enters the system.
  hot_.anchor = anchor + coord_.clock().local_to_global(params_.interval);

  coord_.scheduler().release(id_);
  sub_.scheduler().release(id_);
  claim_event_slots(hot_.anchor);
  schedule_event(hot_.anchor);
}

bool Connection::run_exchange(sim::TimePoint anchor, std::uint8_t channel) {
  // Usable window: up to the own next event or the next radio claim of either
  // node, whichever comes first, minus one IFS for radio turnaround
  // (Figure 3 / Figure 4 semantics).
  sim::TimePoint wend = anchor + params_.interval;
  wend = sim::min(wend, coord_.scheduler().next_start_after(anchor, id_));
  wend = sim::min(wend, sub_.scheduler().next_start_after(anchor, id_));
  wend = wend - phy::kIfs;

  // Delivery rolls against the *receiver's* PER on this channel.
  const double chan_per_c2s = world_.channel_per(sub_.id(), channel);
  const double chan_per_s2c = world_.channel_per(coord_.id(), channel);
  obs::Recorder* rec = world_.recorder();
  const bool rec_pdu = rec != nullptr && rec->wants(obs::EventType::kPduTx);
  // Pairwise link quality (geometry, mobility, fault windows): 0 in the
  // paper's fixed grid. The model is asked only when its last answer has
  // lapsed or a new model was installed since.
  if (anchor >= link_per_until_ || link_per_version_ != world_.link_model_version()) {
    const phy::LinkPer answer = world_.link_per(coord_.id(), sub_.id());
    link_per_ = answer.per;
    link_per_until_ = answer.valid_until;
    link_per_version_ = world_.link_model_version();
  }
  const double link_per = link_per_;
  sim::TimePoint t = anchor;
  unsigned pairs = 0;
  bool sub_synced = false;
  bool aborted = false;
  bool coord_freed = false;
  bool sub_freed = false;

  while (true) {
    const bool c_has = !coord_q_.empty();
    const bool s_has = !sub_q_.empty();
    const std::size_t c_len = c_has ? coord_q_.front().air_payload() : 0;
    const std::size_t s_len = s_has ? sub_q_.front().air_payload() : 0;
    const sim::Duration pt = phy::pair_time(c_len, s_len, params_.phy);

    // The first pair is the mandatory sync exchange and always runs; further
    // pairs must fit the window and the per-event budget.
    if (pairs > 0 && (t + pt > wend || pairs >= config_.max_pairs_per_event)) break;

    // Coordinator -> subordinate PDU.
    if (c_has) {
      ++stats_.pdu_tx;
      ++stats_.chan_tx[channel];
    }
    coord_.activity().bytes_tx += c_len + phy::kLlOverheadBytes;
    sub_.activity().bytes_rx += c_len + phy::kLlOverheadBytes;
    coord_.activity().data_bytes_tx += c_len;
    sub_.activity().data_bytes_rx += c_len;
    const bool c2s_ok = !rng_.chance(chan_per_c2s) && !rng_.chance(link_per);
    afh_note(channel, c2s_ok);
    if (rec_pdu && c_has) {
      obs::Event e;
      e.at = t;
      e.type = obs::EventType::kPduTx;
      e.chan = channel;
      e.flags = static_cast<std::uint16_t>((c2s_ok ? obs::kPduCrcOk : 0) |
                                           (hot_.coord_retry ? obs::kPduRetrans : 0));
      e.node = coord_.id();
      e.id = id_;
      e.a = access_address_;
      e.b = static_cast<std::uint32_t>(
          phy::ll_airtime(c_len, params_.phy).count_ns());
      rec->record(e, coord_q_.front().payload);
    }
    if (!c2s_ok) {
      if (c_has) {
        ++stats_.pdu_retrans;
        hot_.coord_retry = true;
      }
      aborted = true;  // CRC error closes the connection event (section 5.2)
      break;
    }
    sub_synced = true;
    hot_.last_valid_rx_sub = t + phy::ll_airtime(c_len, params_.phy);

    // Subordinate -> coordinator PDU (reply after one IFS).
    if (s_has) {
      ++stats_.pdu_tx;
      ++stats_.chan_tx[channel];
    }
    sub_.activity().bytes_tx += s_len + phy::kLlOverheadBytes;
    coord_.activity().bytes_rx += s_len + phy::kLlOverheadBytes;
    sub_.activity().data_bytes_tx += s_len;
    coord_.activity().data_bytes_rx += s_len;
    const bool s2c_ok = !rng_.chance(chan_per_s2c) && !rng_.chance(link_per);
    afh_note(channel, s2c_ok);
    if (rec_pdu && s_has) {
      obs::Event e;
      e.at = t + phy::ll_airtime(c_len, params_.phy) + phy::kIfs;
      e.type = obs::EventType::kPduTx;
      e.chan = channel;
      e.flags = static_cast<std::uint16_t>(
          obs::kPduSubToCoord | (s2c_ok ? obs::kPduCrcOk : 0) |
          (hot_.sub_retry ? obs::kPduRetrans : 0));
      e.node = sub_.id();
      e.id = id_;
      e.a = access_address_;
      e.b = static_cast<std::uint32_t>(
          phy::ll_airtime(s_len, params_.phy).count_ns());
      rec->record(e, sub_q_.front().payload);
    }
    if (!s2c_ok) {
      // The reply carried both the subordinate's data and the ack for the
      // coordinator's PDU: both sides retransmit next event.
      if (c_has) {
        ++stats_.pdu_retrans;
        hot_.coord_retry = true;
      }
      if (s_has) {
        ++stats_.pdu_retrans;
        hot_.sub_retry = true;
      }
      aborted = true;
      break;
    }
    hot_.last_valid_rx_coord = t + pt - phy::kIfs;

    // Clean pair: commit deliveries and free sender buffers.
    const sim::TimePoint done = t + pt;
    if (c_has) coord_freed = true;
    if (s_has) sub_freed = true;
    if (c_has) {
      LlPdu pdu = std::move(coord_q_.front());
      coord_q_.pop_front();
      coord_.pool_free(pdu.payload.size());
      hot_.coord_retry = false;
      ++stats_.pdu_ok;
      ++stats_.chan_ok[channel];
      deliver_later(Role::kSubordinate, std::move(pdu), done);
    }
    if (s_has) {
      LlPdu pdu = std::move(sub_q_.front());
      sub_q_.pop_front();
      sub_.pool_free(pdu.payload.size());
      hot_.sub_retry = false;
      ++stats_.pdu_ok;
      ++stats_.chan_ok[channel];
      deliver_later(Role::kCoordinator, std::move(pdu), done);
    }

    ++pairs;
    if (pairs > 1) {
      ++coord_.activity().packet_pairs;
      ++sub_.activity().packet_pairs;
    }
    t = done;
    if (coord_q_.empty() && sub_q_.empty()) break;  // both MD flags clear
  }

  if (aborted) {
    ++stats_.events_aborted;
  } else {
    ++stats_.events_ok;
  }
  if (rec != nullptr && rec->wants(obs::EventType::kConnEvent)) {
    obs::Event e;
    e.at = anchor;
    e.type = obs::EventType::kConnEvent;
    e.chan = channel;
    e.flags = static_cast<std::uint16_t>((aborted ? obs::kEvAborted : 0) |
                                         (sub_synced ? obs::kEvSynced : 0));
    e.node = coord_.id();
    e.id = id_;
    e.a = pairs;
    e.b = hot_.event_counter;
    rec->record(e);
  }
  // Backpressure release: freed buffer space lets the host hand the next IP
  // packets down. Scheduled at the end of the exchange to keep causality.
  if (coord_freed || sub_freed) {
    sim_.schedule_at(t, [this, coord_freed, sub_freed] {
      if (coord_freed) coord_.notify_tx_space(*this);
      if (sub_freed) sub_.notify_tx_space(*this);
    });
  }
  return sub_synced;
}

void Connection::deliver_later(Role to, LlPdu pdu, sim::TimePoint at) {
  sim_.schedule_at(at, [this, to, pdu = std::move(pdu), at]() mutable {
    coc_.on_pdu_delivered(to, pdu, at);
  });
}

void Connection::terminate(DisconnectReason reason) {
  if (!hot_.open) return;
  hot_.open = false;
  if (reason == DisconnectReason::kSupervisionTimeout) ++stats_.conn_losses;
  if (obs::Recorder* rec = world_.recorder();
      rec != nullptr && rec->wants(obs::EventType::kConnClose)) {
    obs::Event e;
    e.at = sim_.now();
    e.type = obs::EventType::kConnClose;
    e.flags = static_cast<std::uint16_t>(reason);
    e.node = coord_.id();
    e.id = id_;
    e.a = sub_.id();
    e.b = stats_.events_missed > 0xFFFFFFFFull
              ? 0xFFFFFFFFu
              : static_cast<std::uint32_t>(stats_.events_missed);
    rec->record(e);
  }
  sim_.cancel(hot_.next_event);
  coord_.scheduler().release(id_);
  sub_.scheduler().release(id_);
  // Data queued on a broken link is dropped (section 5.1).
  for (const LlPdu& p : coord_q_) coord_.pool_free(p.payload.size());
  for (const LlPdu& p : sub_q_) sub_.pool_free(p.payload.size());
  coord_q_.clear();
  sub_q_.clear();
  coord_.notify_close(*this, reason);
  sub_.notify_close(*this, reason);
}

}  // namespace mgap::ble
