#pragma once
// Pairwise link-PER models and their validity contract.
//
// A link-PER model (geometric range, mobility, fault windows) adds a PER for
// a node pair on top of the per-channel ChannelModel. It answers with the
// value at the current simulated instant *and* the instant until which that
// value holds, so a BLE connection can keep the answer across its connection
// events and ask again only when it lapses (or when BleWorld::set_link_per
// replaces the model). A static model says never(); a model that may change
// at any moment says "now", which makes every connection event ask again.

#include <functional>

#include "sim/ids.hpp"
#include "sim/time.hpp"

namespace mgap::phy {

struct LinkPer {
  /// Additional PER in [0, 1]: 0 leaves the channel model alone, 1 means
  /// out of range.
  double per{0.0};
  /// `per` holds at every instant t with now <= t < valid_until.
  sim::TimePoint valid_until{sim::TimePoint::never()};
};

using LinkPerFn = std::function<LinkPer(NodeId, NodeId)>;

}  // namespace mgap::phy
