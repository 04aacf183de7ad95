#pragma once
// FaultInjector: executes a fault plan against a live simulation.
//
// The injector owns the *mechanics* of every FaultKind — powering radios
// down, windowing link/channel error rates, perturbing clocks, seizing
// buffer capacity — while host-level consequences (suspending connection
// managers, stopping producers, purging IP queues) are delegated to the
// experiment through InjectorHooks, keeping this library independent of the
// testbed layer. All scheduling happens on the shared Simulator, so fault
// sequences are as deterministic as everything else.

#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

#include "ble/world.hpp"
#include "fault/spec.hpp"
#include "net/pktbuf.hpp"
#include "phy/link_per.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace mgap::fault {

/// Host-level callbacks; any of them may be left unset.
struct InjectorHooks {
  std::function<void(NodeId)> on_crash;
  std::function<void(NodeId)> on_reboot;
  /// Resolves a node's packet buffer for pressure faults (null = skip).
  std::function<net::Pktbuf*(NodeId)> pktbuf_of;
  /// Nodes within `radius` meters of `center`'s position, center included —
  /// the experiment wires this to its spatial index. Null (or a fault with
  /// radius 0) keeps the legacy scope: interference perturbs the global
  /// channel model, pressure seizes only the named node.
  std::function<std::vector<NodeId>(NodeId center, double radius)> nodes_within;
};

/// One realized fault with its effective window on the global timeline.
struct InjectedFault {
  FaultEvent event;
  sim::TimePoint begin;
  sim::TimePoint end;    // == begin for instant faults; reboot time for crashes
  bool permanent{false}; // never ends (crash without reboot, unwindowed drift)
};

class FaultInjector {
 public:
  /// `world` may be null (non-BLE experiments): radio/link/channel/clock
  /// faults then degrade to no-ops while crash hooks and pressure still run.
  FaultInjector(sim::Simulator& sim, ble::BleWorld* world, InjectorHooks hooks);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules the whole plan; call once, before or during the run. Events in
  /// the past of the simulation clock fire immediately.
  void arm(std::vector<FaultEvent> plan);

  [[nodiscard]] const std::vector<InjectedFault>& timeline() const { return timeline_; }
  [[nodiscard]] std::uint64_t injected_count() const { return timeline_.size(); }

  /// True when `node` sits inside some fault's window (extended by `grace`
  /// past its end) at time `at` — used to attribute supervision timeouts to
  /// injected vs. emergent causes. Interference windows touch every node.
  [[nodiscard]] bool attributable(NodeId node, sim::TimePoint at,
                                  sim::Duration grace) const;

 private:
  void begin_fault(std::size_t index);
  void end_fault(std::size_t index);
  void install_link_hook();
  [[nodiscard]] phy::LinkPer windowed_link_per(NodeId a, NodeId b) const;
  void record_fault(const InjectedFault& f, std::size_t index, bool begin);

  sim::Simulator& sim_;
  ble::BleWorld* world_;
  InjectorHooks hooks_;
  std::vector<InjectedFault> timeline_;
  bool armed_{false};

  // Per-fault state captured at begin, consumed at end (indexed like
  // timeline_). Kept separate so the timeline stays a plain value record.
  std::vector<std::size_t> seized_bytes_;
  std::vector<std::vector<std::pair<std::uint8_t, double>>> saved_channel_per_;
  std::vector<double> saved_drift_;
  // Radius-scoped variants: per-node saved channel PER (interference balls)
  // and per-node seized bytes (pressure balls).
  std::vector<std::vector<std::tuple<NodeId, std::uint8_t, double>>> saved_region_per_;
  std::vector<std::vector<std::pair<NodeId, std::size_t>>> seized_region_;
  ble::BleWorld::LinkPerFn prev_link_per_;
};

}  // namespace mgap::fault
