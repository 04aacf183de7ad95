#pragma once
// The experiment topologies of Figure 6: 15 nodes on a 1m x 1m grid at the
// IoT-lab Saclay site, statically wired into a tree (max 3 hops, mean hop
// count 2.14) or a line (14 hops). Per the paper's role assignment, the
// child of each link takes the coordinator role and the parent advertises as
// subordinate (Figure 12 describes the consumer as subordinate of three
// connections). A topology with nodes but no edges is not wired at all: its
// nodes form the BLE topology and the routes themselves (self_forming).

#include <map>
#include <string>
#include <vector>

#include "ble/ll_types.hpp"
#include "sim/ids.hpp"

namespace mgap::testbed {

struct Topology {
  struct Edge {
    NodeId coordinator;  // child: initiates / dictates timing
    NodeId subordinate;  // parent: advertises
  };

  std::string name;
  std::vector<NodeId> nodes;
  NodeId consumer{1};
  std::vector<Edge> edges;
  std::map<NodeId, NodeId> parent;  // next hop towards the consumer

  /// Figure 6(b): 3-hop tree rooted at the consumer.
  [[nodiscard]] static Topology tree15();
  /// Figure 6(c): 15-node line, consumer at one end.
  [[nodiscard]] static Topology line15();
  /// RFC 7668 star: one central subordinate, n-1 leaves (for comparison).
  [[nodiscard]] static Topology star(unsigned n);
  /// Nodes 1..n, consumer 1, no edges: dynconn builds the BLE links and RPL
  /// the routes at run time (the paper's section 9 future work).
  [[nodiscard]] static Topology self_forming(unsigned n);
  /// Builds a topology from a child -> parent map (procedural generators,
  /// tests). Validates the result: throws std::runtime_error on a duplicate
  /// node, a parent outside the node set, or a node that cannot reach the
  /// consumer — the config-validation surface for malformed topologies.
  [[nodiscard]] static Topology from_parent_map(std::string name, NodeId consumer,
                                                std::map<NodeId, NodeId> parent);

  /// The invariants from_parent_map enforces, re-checkable on any instance.
  void validate() const;

  /// False for a self-forming topology: no static links, no parent map.
  [[nodiscard]] bool wired() const { return !edges.empty(); }

  [[nodiscard]] std::vector<NodeId> producers() const;
  /// Hop count from `node` to the consumer.
  [[nodiscard]] unsigned hops(NodeId node) const;
  [[nodiscard]] double mean_hops() const;
  [[nodiscard]] unsigned max_hops() const;
  /// Children of `node` (nodes whose parent it is).
  [[nodiscard]] std::vector<NodeId> children(NodeId node) const;
  /// All nodes in the subtree below `node` (excluding it).
  [[nodiscard]] std::vector<NodeId> subtree(NodeId node) const;
};

}  // namespace mgap::testbed
