#pragma once
// Mobility extension — the first item of the paper's future work ("we plan
// to expand the scope to include mobile systems", section 9).
//
// A random-waypoint model moves selected nodes across a 2-D area; a simple
// range model converts pairwise distance into an additional link PER that
// plugs into ble::BleWorld::set_link_per. Leaving range degrades and then
// severs the BLE connection (supervision timeout); a dynamic connection
// manager (core::Dynconn) then re-forms the topology — handover.

#include <cmath>
#include <map>

#include "ble/world.hpp"
#include "sim/ids.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mgap::sim {
class Simulator;
}

namespace mgap::testbed {

struct Vec2 {
  double x{0.0};
  double y{0.0};
};

[[nodiscard]] inline double distance(Vec2 a, Vec2 b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

struct MobilityConfig {
  double width{30.0};   // area [m]
  double height{30.0};
  double speed_min{0.5};  // [m/s] — walking-speed IoT devices
  double speed_max{1.5};
  sim::Duration pause{sim::Duration::sec(5)};
  sim::Duration tick{sim::Duration::ms(250)};
};

class RandomWaypointMobility {
 public:
  RandomWaypointMobility(sim::Simulator& sim, MobilityConfig config = {});

  /// Fixed infrastructure node.
  void place_static(NodeId node, Vec2 pos);
  /// Mobile node starting at `start`, roaming between random waypoints.
  void add_mobile(NodeId node, Vec2 start);

  /// Begins the movement ticks (static-only deployments need not call it).
  void start();

  [[nodiscard]] Vec2 position(NodeId node) const;
  [[nodiscard]] double distance_between(NodeId a, NodeId b) const;
  [[nodiscard]] bool is_mobile(NodeId node) const { return mobiles_.count(node) > 0; }
  [[nodiscard]] sim::Simulator& simulator() const { return sim_; }

 private:
  struct Mobile {
    Vec2 pos;
    Vec2 target;
    double speed{1.0};
    sim::TimePoint pause_until;
  };

  void tick();
  void pick_waypoint(Mobile& m);

  sim::Simulator& sim_;
  MobilityConfig config_;
  sim::Rng rng_;
  std::map<NodeId, Vec2> statics_;
  std::map<NodeId, Mobile> mobiles_;
  bool running_{false};
};

/// Distance -> additional PER: perfect inside r_full, quadratic ramp to loss
/// at r_max, unusable beyond.
struct RangeModel {
  double r_full{10.0};
  double r_max{20.0};

  [[nodiscard]] double per(double d) const {
    if (d <= r_full) return 0.0;
    if (d >= r_max) return 1.0;
    const double f = (d - r_full) / (r_max - r_full);
    return f * f;
  }
};

/// Builds the BleWorld link-PER hook from a mobility model and a range model.
/// Mobile nodes move on every tick, so an answer holds only until now.
[[nodiscard]] ble::BleWorld::LinkPerFn make_link_per(const RandomWaypointMobility& mob,
                                                     RangeModel range);

}  // namespace mgap::testbed
