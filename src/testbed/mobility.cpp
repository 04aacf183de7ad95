#include "testbed/mobility.hpp"

#include <cassert>
#include <stdexcept>

#include "sim/simulator.hpp"

namespace mgap::testbed {

RandomWaypointMobility::RandomWaypointMobility(sim::Simulator& sim, MobilityConfig config)
    : sim_{sim}, config_{config}, rng_{sim.make_rng()} {}

void RandomWaypointMobility::place_static(NodeId node, Vec2 pos) {
  statics_[node] = pos;
}

void RandomWaypointMobility::add_mobile(NodeId node, Vec2 start) {
  Mobile m;
  m.pos = start;
  pick_waypoint(m);
  mobiles_[node] = m;
}

void RandomWaypointMobility::pick_waypoint(Mobile& m) {
  m.target = Vec2{rng_.uniform_real(0.0, config_.width),
                  rng_.uniform_real(0.0, config_.height)};
  m.speed = rng_.uniform_real(config_.speed_min, config_.speed_max);
}

void RandomWaypointMobility::start() {
  if (running_) return;
  running_ = true;
  sim_.schedule_in(config_.tick, [this] { tick(); });
}

void RandomWaypointMobility::tick() {
  const sim::TimePoint now = sim_.now();
  for (auto& [id, m] : mobiles_) {
    if (now < m.pause_until) continue;
    const double step = m.speed * config_.tick.to_sec_f();
    const double dist = distance(m.pos, m.target);
    if (dist <= step) {
      m.pos = m.target;
      m.pause_until = now + config_.pause;
      pick_waypoint(m);
      continue;
    }
    m.pos.x += (m.target.x - m.pos.x) / dist * step;
    m.pos.y += (m.target.y - m.pos.y) / dist * step;
  }
  sim_.schedule_in(config_.tick, [this] { tick(); });
}

Vec2 RandomWaypointMobility::position(NodeId node) const {
  auto s = statics_.find(node);
  if (s != statics_.end()) return s->second;
  auto m = mobiles_.find(node);
  if (m != mobiles_.end()) return m->second.pos;
  throw std::out_of_range{"RandomWaypointMobility: unknown node"};
}

double RandomWaypointMobility::distance_between(NodeId a, NodeId b) const {
  return distance(position(a), position(b));
}

ble::BleWorld::LinkPerFn make_link_per(const RandomWaypointMobility& mob,
                                       RangeModel range) {
  return [&mob, range](NodeId a, NodeId b) {
    return phy::LinkPer{range.per(mob.distance_between(a, b)), mob.simulator().now()};
  };
}

}  // namespace mgap::testbed
