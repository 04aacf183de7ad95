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
//
// A windowed fault's effect is a function of the clock and the faults open
// at that instant: link and channel error rates are queried through hooks
// on the world, a drift edge recomputes the node's drift from the open
// drift windows, and a crash edge keeps the node down while any of its
// crash windows is open. Nothing is saved at a window's begin and written
// back at its end, so overlapping windows compose in any order.

#include <cstdint>
#include <functional>
#include <map>
#include <set>
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
  /// the experiment wires this to its spatial index. A fault with a radius
  /// acts on this ball; without the hook (or with radius 0) interference
  /// acts on every receiver and pressure on the named node.
  std::function<std::vector<NodeId>(NodeId center, double radius)> nodes_within;
};

/// One realized fault with its effective window on the global timeline and
/// the nodes it acts on.
struct InjectedFault {
  FaultEvent event;
  sim::TimePoint begin;
  sim::TimePoint end;    // == begin for instant faults; reboot time for crashes
  bool permanent{false}; // never ends (crash without reboot, unwindowed drift)
  /// Resolved once by arm(), ascending: the named node (and a link fault's
  /// peer), or a radius fault's ball.
  std::vector<NodeId> scope;
  bool everywhere{false};  // radius-0 interference: every receiver

  [[nodiscard]] bool covers(NodeId node) const;
  /// Open for begin <= t < end, by time alone; a permanent fault stays open.
  [[nodiscard]] bool open_at(sim::TimePoint t) const {
    return t >= begin && (permanent || t < end);
  }
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

  /// True when `node` is in the scope of some fault whose window (extended
  /// by `grace` past its end) holds `at` — used to attribute supervision
  /// timeouts to injected vs. emergent causes.
  [[nodiscard]] bool attributable(NodeId node, sim::TimePoint at,
                                  sim::Duration grace) const;

 private:
  void begin_fault(std::size_t index);
  void end_fault(std::size_t index);
  void resolve_scope(InjectedFault& f) const;
  void install_link_hook();
  [[nodiscard]] phy::LinkPer windowed_link_per(NodeId a, NodeId b) const;
  [[nodiscard]] double windowed_channel_per(NodeId receiver, std::uint8_t channel,
                                            double base) const;
  /// The latest-begun fault of `kind` on `node` open now, else null.
  [[nodiscard]] const InjectedFault* latest_open(FaultKind kind, NodeId node) const;
  void apply_drift(NodeId node);
  void apply_crash(NodeId node);
  void record_fault(const InjectedFault& f, std::size_t index, bool begin);

  sim::Simulator& sim_;
  ble::BleWorld* world_;
  InjectorHooks hooks_;
  std::vector<InjectedFault> timeline_;
  bool armed_{false};

  /// Each drift-faulted node's drift as built, read at arm(): its drift
  /// while none of its drift windows is open.
  std::map<NodeId, double> built_drift_;
  /// Nodes a crash window holds down now.
  std::set<NodeId> down_;
  /// Bytes each pressure fault took from each scope node (indexed like
  /// timeline_, then like its scope), freed when the window ends.
  std::vector<std::vector<std::size_t>> seized_;
  ble::BleWorld::LinkPerFn prev_link_per_;
};

}  // namespace mgap::fault
