#include "topo/channel.hpp"

#include <cmath>

namespace mgap::topo {

double path_loss_db(const TopoSpec& spec, double d, unsigned walls) {
  // Log-distance model with 1 m reference; clamp below 1 m so co-located
  // nodes do not produce negative loss.
  const double dd = std::max(d, 1.0);
  return spec.ref_loss_db + 10.0 * spec.path_loss_exp * std::log10(dd) +
         static_cast<double>(walls) * spec.wall_loss_db;
}

double link_margin_db(const TopoSpec& spec, double d, unsigned walls) {
  return spec.tx_power_dbm - path_loss_db(spec, d, walls) - spec.sensitivity_dbm;
}

double margin_to_per(const TopoSpec& spec, double margin_db) {
  if (margin_db >= spec.fade_margin_db) return 0.0;
  if (margin_db <= 0.0) return 1.0;
  const double f = 1.0 - margin_db / spec.fade_margin_db;
  return f * f;
}

double link_per(const TopoSpec& spec, const Placement& placement, NodeId a, NodeId b) {
  const Point pa = placement.position(a);
  const Point pb = placement.position(b);
  const unsigned walls = wall_crossings(pa, pb, placement.walls);
  return margin_to_per(spec, link_margin_db(spec, distance(pa, pb), walls));
}

double max_radio_range(const TopoSpec& spec) {
  // Margin hits 0 (PER = 1) at: tx - ref - 10 n log10(d) = sensitivity.
  const double budget = spec.tx_power_dbm - spec.ref_loss_db - spec.sensitivity_dbm;
  if (budget <= 0.0) return 1.0;
  return std::pow(10.0, budget / (10.0 * spec.path_loss_exp));
}

phy::LinkPerFn make_geometric_link_per(std::shared_ptr<const Placement> placement,
                                       const TopoSpec& spec) {
  // The hook runs on the advertising path and whenever a connection first
  // asks about its link. When the id space is the dense 1..N the generators
  // emit, resolve positions through a flat array instead of
  // Placement::position's per-call binary search. Wall-free deployments skip
  // the wall loop entirely. A default LinkPer holds forever.
  const bool dense = !placement->ids.empty() &&
                     placement->ids.front() == 1 &&
                     placement->ids.back() == placement->ids.size();
  if (dense && placement->walls.empty()) {
    return [placement = std::move(placement), spec](NodeId a, NodeId b) {
      const Point& pa = placement->positions[a - 1];
      const Point& pb = placement->positions[b - 1];
      return phy::LinkPer{margin_to_per(spec, link_margin_db(spec, distance(pa, pb), 0))};
    };
  }
  if (dense) {
    return [placement = std::move(placement), spec](NodeId a, NodeId b) {
      const Point& pa = placement->positions[a - 1];
      const Point& pb = placement->positions[b - 1];
      const unsigned walls = wall_crossings(pa, pb, placement->walls);
      return phy::LinkPer{margin_to_per(spec, link_margin_db(spec, distance(pa, pb), walls))};
    };
  }
  return [placement = std::move(placement), spec](NodeId a, NodeId b) {
    return phy::LinkPer{link_per(spec, *placement, a, b)};
  };
}

}  // namespace mgap::topo
