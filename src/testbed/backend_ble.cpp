#include "testbed/backend_ble.hpp"

#include "energy/energy_model.hpp"
#include "phy/channel_model.hpp"
#include "topo/channel.hpp"

namespace mgap::testbed {

BleConnBackend::BleConnBackend(sim::Simulator& sim, const ExperimentConfig& config,
                               const topo::GeneratedWorld* geo,
                               obs::Recorder* recorder, LinkEventHook on_link_event)
    : sim_{sim}, config_{config}, on_link_event_{std::move(on_link_event)} {
  phy::ChannelModel cm{config_.base_per};
  if (config_.jam_channel_22) cm.jam(22);
  world_ = std::make_unique<ble::BleWorld>(
      sim_, cm,
      config_.arena ? sim::Arena::Mode::kBump : sim::Arena::Mode::kHeap);
  world_->set_recorder(recorder);  // before add_node: schedulers inherit it
  if (config_.exclude_channel_22) {
    ble::ChannelMap map = ble::ChannelMap::all();
    map.exclude(22);
    world_->set_default_channel_map(map);
  }
  if (geo != nullptr) {
    // Geometric channel replaces the hand-assigned link PER, and the spatial
    // index's neighbor tables take the advertising path off the O(N) scan.
    world_->set_link_per(topo::make_geometric_link_per(geo->placement, config_.topo));
    world_->set_neighbor_table(geo->neighbors);
  }
  // Per-node sleep-clock drift; a dedicated stream keeps the drifts stable
  // regardless of how many other components draw randomness.
  drift_rng_.emplace(sim_.make_rng());
}

net::Netif& BleConnBackend::add_node(NodeId id) {
  const double drift =
      drift_rng_->uniform_real(-config_.drift_ppm_range, config_.drift_ppm_range);
  ble::ControllerConfig ctrl_cfg;
  ctrl_cfg.conn.adaptive_channel_map = config_.adaptive_channel_map;
  ctrl_cfg.l2cap.deferred_credits = config_.l2cap_deferred_credits;
  ctrl_cfg.l2cap.initial_credits = config_.l2cap_initial_credits;
  ctrl_cfg.l2cap.credit_batch = config_.l2cap_credit_batch;
  ble::Controller& ctrl = world_->add_node(id, drift, ctrl_cfg);
  auto [it, inserted] = netifs_.emplace(id, std::make_unique<core::NimbleNetif>(ctrl));
  (void)inserted;
  return *it->second;
}

void BleConnBackend::finish_node(NodeId id) {
  core::NimbleNetif& netif = *netifs_.at(id);
  if (config_.topology.wired()) {
    core::StatconnConfig sc_cfg;
    sc_cfg.policy = config_.policy;
    sc_cfg.supervision_timeout = config_.supervision_timeout;
    sc_cfg.param_update_mitigation = config_.param_update_mitigation;
    sc_cfg.reconnect_backoff_base = config_.reconnect_backoff_base;
    sc_cfg.reconnect_backoff_max = config_.reconnect_backoff_max;
    sc_cfg.reconnect_backoff_jitter = config_.reconnect_backoff_jitter;
    statconns_.emplace(id, std::make_unique<core::Statconn>(netif, sc_cfg));
  } else {
    core::DynconnConfig dc_cfg;
    dc_cfg.policy = config_.policy;
    dc_cfg.supervision_timeout = config_.supervision_timeout;
    dynconns_.emplace(id, std::make_unique<core::Dynconn>(
                              netif, dc_cfg, id == config_.topology.consumer));
  }

  if (on_link_event_) {
    netif.add_link_listener(
        [this, id](ble::Connection& conn, bool up, ble::DisconnectReason reason) {
          on_link_event_(id, conn, up, reason);
        });
  }
}

void BleConnBackend::add_link(NodeId coordinator, NodeId subordinate) {
  statconns_.at(coordinator)->add_coordinator_link(subordinate);
  statconns_.at(subordinate)->add_subordinate_link(coordinator);
}

void BleConnBackend::start() {
  // Ascending node-id order (std::map), as the pre-refactor loop over the
  // experiment's node map did.
  for (auto& [id, sc] : statconns_) sc->start();
  for (auto& [id, dc] : dynconns_) dc->start();
}

core::LinkSummary BleConnBackend::link_summary() const {
  core::LinkSummary s;
  std::uint64_t tx = 0;
  std::uint64_t ok = 0;
  for (const ble::LinkStats* ls : world_->all_link_stats()) {
    tx += ls->pdu_tx;
    ok += ls->pdu_ok;
    s.conn_losses += ls->conn_losses;
    s.reconnects += ls->reconnects;
  }
  s.ll_pdr = tx == 0 ? 1.0 : static_cast<double>(ok) / static_cast<double>(tx);
  return s;
}

void BleConnBackend::fold_counters(obs::Registry& reg) const {
  for (const auto& ctrl : world_->nodes()) {
    const ble::RadioScheduler& sched = ctrl->scheduler();
    reg.count("radio.claims_granted", ctrl->id(), static_cast<double>(sched.granted()));
    reg.count("radio.claims_denied", ctrl->id(), static_cast<double>(sched.denied()));
    // Credit-flow health of still-open channels, counted on the stalling
    // (sending) side; conditional for byte-stability of healthy runs.
    std::uint64_t stalls = 0;
    for (ble::Connection* conn : ctrl->connections()) {
      stalls += conn->coc().credit_stalls(conn->role_of(*ctrl));
    }
    if (stalls > 0) {
      reg.count("l2cap.credit_stalls", ctrl->id(), static_cast<double>(stalls));
    }
  }
  // The two ablation counters follow the same nonzero-only rule: the
  // param-update repair's churn, and the data PDUs still sent on channel 22
  // (zero unless the default channel-map exclusion is off).
  for (const auto& [id, sc] : statconns_) {
    if (sc->param_updates() > 0) {
      reg.count("statconn.param_updates", id, static_cast<double>(sc->param_updates()));
    }
  }
  std::uint64_t ch22_tx = 0;
  for (const ble::LinkStats* ls : world_->all_link_stats()) ch22_tx += ls->chan_tx[22];
  if (ch22_tx > 0) reg.count("ble.ch22_pdu_tx", 0, static_cast<double>(ch22_tx));
  // Self-forming worlds only, so wired runs keep their exact column set.
  for (const auto& [id, dc] : dynconns_) {
    reg.count("dynconn.uplink_losses", id, static_cast<double>(dc->uplink_losses()));
  }
  // Advertising-path instrumentation: only for generated worlds, so static
  // experiments keep byte-identical campaign output (columns derive from
  // counter names).
  if (world_->has_neighbor_table()) {
    reg.count("ble.adv_events_routed", 0,
              static_cast<double>(world_->adv_events_routed()));
    reg.count("ble.adv_candidates_scanned", 0,
              static_cast<double>(world_->adv_candidates_scanned()));
    reg.count("ble.adv_full_scans", 0, static_cast<double>(world_->adv_full_scans()));
  }
}

void BleConnBackend::fold_energy(obs::Registry& reg, sim::Duration elapsed) const {
  const energy::EnergyMeter meter;
  double current_sum = 0.0;
  for (const auto& ctrl : world_->nodes()) {
    const ble::RadioActivity& act = ctrl->activity();
    reg.count("energy.charge_uc", ctrl->id(), meter.ble_charge_uc(act));
    current_sum += meter.avg_current_ua(act, elapsed);
  }
  if (!world_->nodes().empty()) {
    reg.count("energy.avg_current_ua", 0,
              current_sum / static_cast<double>(world_->nodes().size()));
  }
}

void BleConnBackend::on_node_crash(NodeId id) {
  if (core::Statconn* sc = statconn(id)) sc->suspend();
}

void BleConnBackend::on_node_reboot(NodeId id) {
  if (core::Statconn* sc = statconn(id)) sc->resume();
}

}  // namespace mgap::testbed
