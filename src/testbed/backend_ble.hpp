#pragma once
// BLE connection-oriented link backend: the paper's platform (nimble_netif on
// L2CAP CoC, statconn connection management) factored behind
// core::LinkBackend. A wired topology runs statconn on every node; a
// self-forming one (no edges) runs dynconn instead, which picks its links at
// run time from the ranks the experiment's RPL instances advertise. The
// construction order (and thus the sequentially numbered RNG streams) is
// pinned by the metamorphic and conformance suites.

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "ble/world.hpp"
#include "core/dynconn.hpp"
#include "core/link_backend.hpp"
#include "core/nimble_netif.hpp"
#include "core/statconn.hpp"
#include "obs/recorder.hpp"
#include "phy/ble_phy.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "testbed/experiment.hpp"
#include "topo/world.hpp"

namespace mgap::testbed {

class BleConnBackend final : public core::LinkBackend {
 public:
  /// Link lifecycle callback: fired from the netif of node `listener` (the
  /// experiment counts each link once, on the coordinator's side).
  using LinkEventHook = std::function<void(
      NodeId listener, ble::Connection& conn, bool up, ble::DisconnectReason reason)>;

  BleConnBackend(sim::Simulator& sim, const ExperimentConfig& config,
                 const topo::GeneratedWorld* geo, obs::Recorder* recorder,
                 LinkEventHook on_link_event);

  [[nodiscard]] core::LinkBackendKind kind() const override {
    return core::LinkBackendKind::kBle;
  }
  net::Netif& add_node(NodeId id) override;
  void finish_node(NodeId id) override;
  void add_link(NodeId coordinator, NodeId subordinate) override;
  void start() override;
  [[nodiscard]] core::LinkSummary link_summary() const override;
  void fold_counters(obs::Registry& reg) const override;
  void fold_energy(obs::Registry& reg, sim::Duration elapsed) const override;
  void on_node_crash(NodeId id) override;
  void on_node_reboot(NodeId id) override;

  [[nodiscard]] ble::BleWorld* world() { return world_.get(); }
  [[nodiscard]] core::Statconn* statconn(NodeId id) {
    auto it = statconns_.find(id);
    return it == statconns_.end() ? nullptr : it->second.get();
  }
  [[nodiscard]] core::Dynconn* dynconn(NodeId id) {
    auto it = dynconns_.find(id);
    return it == dynconns_.end() ? nullptr : it->second.get();
  }

 private:
  sim::Simulator& sim_;
  const ExperimentConfig& config_;
  LinkEventHook on_link_event_;
  std::unique_ptr<ble::BleWorld> world_;
  // Created after the world (its constructor draws first), matching the
  // historical stream numbering.
  std::optional<sim::Rng> drift_rng_;
  std::map<NodeId, std::unique_ptr<core::NimbleNetif>> netifs_;
  std::map<NodeId, std::unique_ptr<core::Statconn>> statconns_;
  std::map<NodeId, std::unique_ptr<core::Dynconn>> dynconns_;
};

}  // namespace mgap::testbed
