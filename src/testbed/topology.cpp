#include "testbed/topology.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>
#include <string>

namespace mgap::testbed {

Topology Topology::from_parent_map(std::string name, NodeId consumer,
                                   std::map<NodeId, NodeId> parent) {
  Topology t;
  t.name = std::move(name);
  t.consumer = consumer;
  t.parent = std::move(parent);
  t.nodes.push_back(consumer);
  for (const auto& [child, par] : t.parent) {
    t.nodes.push_back(child);
    // Child coordinates the link to its parent; the parent advertises.
    t.edges.push_back(Topology::Edge{child, par});
  }
  std::sort(t.nodes.begin(), t.nodes.end());
  t.validate();
  return t;
}

void Topology::validate() const {
  std::set<NodeId> seen;
  for (const NodeId n : nodes) {
    if (!seen.insert(n).second) {
      throw std::runtime_error{"topology '" + name + "': duplicate node id " +
                               std::to_string(n)};
    }
  }
  if (seen.count(consumer) == 0) {
    throw std::runtime_error{"topology '" + name + "': consumer is not a node"};
  }
  if (parent.count(consumer) > 0) {
    throw std::runtime_error{"topology '" + name + "': consumer has a parent"};
  }
  for (const auto& [child, par] : parent) {
    if (seen.count(par) == 0) {
      throw std::runtime_error{"topology '" + name + "': node " +
                               std::to_string(child) + " has unknown parent " +
                               std::to_string(par)};
    }
  }
  if (!wired()) return;  // self-forming: no parent map to walk
  // Every node must reach the consumer without cycling (bounded walk).
  for (const NodeId start : nodes) {
    NodeId n = start;
    std::size_t steps = 0;
    while (n != consumer) {
      const auto it = parent.find(n);
      if (it == parent.end() || ++steps > nodes.size()) {
        throw std::runtime_error{"topology '" + name + "': node " +
                                 std::to_string(start) +
                                 " cannot reach the consumer"};
      }
      n = it->second;
    }
  }
}

Topology Topology::tree15() {
  // Depth 1: {2, 6, 11}; depth 2: {3, 4, 7, 8, 12, 13}; depth 3: {5, 9, 10,
  // 14, 15}. Mean hop count = (3*1 + 6*2 + 5*3) / 14 = 2.14, max = 3 — the
  // values the paper reports for its randomized tree (section 5.1).
  return from_parent_map("tree", 1,
                         {
                             {2, 1},  {6, 1},  {11, 1},            // depth 1
                             {3, 2},  {4, 2},  {7, 6},  {8, 6},    // depth 2
                             {12, 11}, {13, 11},                    //
                             {5, 3},  {9, 7},  {10, 7},            // depth 3
                             {14, 12}, {15, 12},                    //
                         });
}

Topology Topology::line15() {
  std::map<NodeId, NodeId> parent;
  for (NodeId n = 2; n <= 15; ++n) parent[n] = n - 1;
  return from_parent_map("line", 1, std::move(parent));
}

Topology Topology::star(unsigned n) {
  assert(n >= 2);
  std::map<NodeId, NodeId> parent;
  for (NodeId i = 2; i <= n; ++i) parent[i] = 1;
  return from_parent_map("star", 1, std::move(parent));
}

Topology Topology::self_forming(unsigned n) {
  assert(n >= 2);
  Topology t;
  t.name = "self_forming";
  for (NodeId i = 1; i <= n; ++i) t.nodes.push_back(i);
  return t;
}

std::vector<NodeId> Topology::producers() const {
  std::vector<NodeId> out;
  for (const NodeId n : nodes) {
    if (n != consumer) out.push_back(n);
  }
  return out;
}

unsigned Topology::hops(NodeId node) const {
  unsigned h = 0;
  while (node != consumer) {
    auto it = parent.find(node);
    assert(it != parent.end());
    node = it->second;
    ++h;
    assert(h <= nodes.size());
  }
  return h;
}

double Topology::mean_hops() const {
  double total = 0;
  for (const NodeId n : producers()) total += hops(n);
  return total / static_cast<double>(producers().size());
}

unsigned Topology::max_hops() const {
  unsigned m = 0;
  for (const NodeId n : producers()) m = std::max(m, hops(n));
  return m;
}

std::vector<NodeId> Topology::children(NodeId node) const {
  std::vector<NodeId> out;
  for (const auto& [child, par] : parent) {
    if (par == node) out.push_back(child);
  }
  return out;
}

std::vector<NodeId> Topology::subtree(NodeId node) const {
  std::vector<NodeId> out;
  for (const NodeId c : children(node)) {
    out.push_back(c);
    const auto sub = subtree(c);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

}  // namespace mgap::testbed
