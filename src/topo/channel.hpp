#pragma once
// Geometry-driven channel model: per-link PER from log-distance path loss
// plus per-wall attenuation. Replaces the hand-assigned link_per of the
// testbed's fixed topologies for generated worlds — the pairwise hook it
// produces plugs into ble::BleWorld::set_link_per and composes
// multiplicatively with the per-channel phy::ChannelModel (WLAN interference,
// jammed channel 22), exactly like the mobility range model does.

#include <memory>

#include "phy/link_per.hpp"
#include "sim/ids.hpp"
#include "topo/placement.hpp"
#include "topo/spec.hpp"

namespace mgap::topo {

/// Pure function of the spec's link budget: log-distance path loss at `d`
/// meters through `walls` wall crossings.
[[nodiscard]] double path_loss_db(const TopoSpec& spec, double d, unsigned walls);

/// Receive margin above sensitivity [dB] for a link of length `d`.
[[nodiscard]] double link_margin_db(const TopoSpec& spec, double d, unsigned walls);

/// Additional PER in [0, 1]: 0 at/above the fade margin, 1 at/below 0 dB
/// margin, quadratic ramp between (same shape as the mobility RangeModel).
[[nodiscard]] double margin_to_per(const TopoSpec& spec, double margin_db);

/// Pairwise PER for two placed nodes (distance + wall crossings).
[[nodiscard]] double link_per(const TopoSpec& spec, const Placement& placement,
                              NodeId a, NodeId b);

/// The distance at which a wall-free link's PER reaches 1.0 — the radius
/// beyond which two nodes cannot interact at all. This bounds the spatial
/// index's neighbor radius: walls only shorten the usable range, so a
/// neighbor table built at this radius provably covers every deliverable
/// advertisement.
[[nodiscard]] double max_radio_range(const TopoSpec& spec);

/// Builds the BleWorld link-PER hook. Nodes do not move, so every answer
/// holds forever. The placement is shared, not copied: the hook is called on
/// the advertising hot path.
[[nodiscard]] phy::LinkPerFn make_geometric_link_per(
    std::shared_ptr<const Placement> placement, const TopoSpec& spec);

}  // namespace mgap::topo
