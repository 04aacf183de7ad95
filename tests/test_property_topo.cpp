// Randomized properties of the procedural topology subsystem: generation is
// a pure function of (spec, seed, ids) — same seed is bit-identical, a
// monotone relabel of the node ids moves the labels without moving the
// geometry or the tree shape, an unformable deployment fails with the
// exact same error every time, and every pair with geometric PER < 1 lies
// within max_radio_range (the mesh collision rule depends on it). Each property reproduces from the seed its
// failure report prints (see src/check/property.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/property.hpp"
#include "topo/channel.hpp"
#include "topo/placement.hpp"
#include "topo/spatial_index.hpp"
#include "topo/spec.hpp"
#include "topo/world.hpp"

namespace mgap {
namespace {

using check::check_property;

/// A random but always-valid spec. Sparse density/range combinations are
/// deliberately reachable: disconnected deployments exercise the
/// deterministic-failure half of the properties.
topo::TopoSpec gen_spec(check::Gen& g) {
  topo::TopoSpec spec;
  spec.generator = g.pick(std::vector<topo::Generator>{
      topo::Generator::kGrid, topo::Generator::kJitterGrid, topo::Generator::kRgg,
      topo::Generator::kFloorplan});
  spec.nodes = static_cast<unsigned>(g.u64(2, 60));
  if (g.boolean(0.3)) {
    spec.area = 15.0 + 45.0 * g.real01();
  } else {
    spec.density = 2.0 + 14.0 * g.real01();
  }
  spec.range = 6.0 + 8.0 * g.real01();
  spec.max_degree = static_cast<unsigned>(
      g.pick(std::vector<std::uint64_t>{0, 2, 3, 8}));
  spec.grid_jitter = g.real01();
  if (g.boolean(0.4)) {
    spec.rooms_x = static_cast<unsigned>(g.u64(1, 4));
    spec.rooms_y = static_cast<unsigned>(g.u64(1, 4));
  }
  spec.wall_loss_db = 12.0 * g.real01();
  spec.validate();
  return spec;
}

/// Strictly ascending id list of length n with random start and gaps.
std::vector<NodeId> gen_ids(check::Gen& g, std::size_t n) {
  std::vector<NodeId> ids;
  ids.reserve(n);
  NodeId next = static_cast<NodeId>(g.u64(1, 900));
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(next);
    next += static_cast<NodeId>(g.u64(1, 5));
  }
  return ids;
}

/// Outcome of one generate_world call: the world, or the error text.
struct Outcome {
  std::optional<topo::GeneratedWorld> world;
  std::string error;
};

Outcome try_generate(const topo::TopoSpec& spec, std::uint64_t seed,
                     const std::vector<NodeId>& ids) {
  Outcome out;
  try {
    out.world.emplace(topo::generate_world(spec, seed, ids));
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

TEST(TopoProperty, SameSeedIsBitIdentical) {
  const auto result = check_property("topo-same-seed", [](check::Gen& g) {
    const topo::TopoSpec spec = gen_spec(g);
    const std::uint64_t seed = g.u64(1, 1'000'000);
    const std::vector<NodeId> ids = gen_ids(g, spec.nodes);

    const Outcome a = try_generate(spec, seed, ids);
    const Outcome b = try_generate(spec, seed, ids);
    PROP_ASSERT(a.world.has_value() == b.world.has_value(),
                "same inputs must succeed or fail together");
    if (!a.world) {
      PROP_ASSERT(a.error == b.error, "failure message must be byte-identical");
      return;
    }
    // Exact double equality, not tolerance: the positions must come out of
    // the very same RNG draws.
    PROP_ASSERT(a.world->placement->ids == b.world->placement->ids, "ids");
    const auto& pa = a.world->placement->positions;
    const auto& pb = b.world->placement->positions;
    PROP_ASSERT(pa.size() == pb.size(), "position count");
    for (std::size_t i = 0; i < pa.size(); ++i) {
      PROP_ASSERT(pa[i].x == pb[i].x && pa[i].y == pb[i].y, "positions bit-identical");
    }
    PROP_ASSERT(a.world->consumer == b.world->consumer, "consumer");
    PROP_ASSERT(a.world->parent == b.world->parent, "routing tree");
    PROP_ASSERT(a.world->neighbors == b.world->neighbors, "neighbor tables");
  });
  EXPECT_TRUE(result.ok) << result.report();
}

TEST(TopoProperty, MonotoneRelabelMovesLabelsNotGeometry) {
  const auto result = check_property("topo-relabel-invariance", [](check::Gen& g) {
    const topo::TopoSpec spec = gen_spec(g);
    const std::uint64_t seed = g.u64(1, 1'000'000);
    const std::vector<NodeId> ids = gen_ids(g, spec.nodes);
    // A strictly monotone relabel: shift everything and stretch the gaps.
    const NodeId shift = static_cast<NodeId>(g.u64(1, 500));
    std::vector<NodeId> relabeled;
    relabeled.reserve(ids.size());
    std::map<NodeId, NodeId> fwd;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const NodeId mapped = ids[i] * 2 + shift;
      relabeled.push_back(mapped);
      fwd[ids[i]] = mapped;
    }

    const Outcome a = try_generate(spec, seed, ids);
    const Outcome b = try_generate(spec, seed, relabeled);
    PROP_ASSERT(a.world.has_value() == b.world.has_value(),
                "relabeling must not change formability");
    if (!a.world) {
      // The message names counts and ranges, never ids, so it is identical.
      PROP_ASSERT(a.error == b.error, "failure message relabel-invariant");
      return;
    }
    const auto& pa = a.world->placement->positions;
    const auto& pb = b.world->placement->positions;
    PROP_ASSERT(pa.size() == pb.size(), "position count");
    for (std::size_t i = 0; i < pa.size(); ++i) {
      PROP_ASSERT(pa[i].x == pb[i].x && pa[i].y == pb[i].y,
                  "geometry independent of labels");
    }
    PROP_ASSERT(fwd.at(a.world->consumer) == b.world->consumer, "consumer maps over");
    PROP_ASSERT(a.world->parent.size() == b.world->parent.size(), "tree size");
    for (const auto& [child, parent] : a.world->parent) {
      PROP_ASSERT(b.world->parent.at(fwd.at(child)) == fwd.at(parent),
                  "routing tree maps over edge by edge");
    }
    PROP_ASSERT(a.world->neighbors.size() == b.world->neighbors.size(),
                "neighbor table size");
    for (const auto& [id, neigh] : a.world->neighbors) {
      std::vector<NodeId> mapped;
      mapped.reserve(neigh.size());
      for (const NodeId n : neigh) mapped.push_back(fwd.at(n));
      // A monotone map preserves ascending order, so the lists must be equal
      // element-for-element, not merely as sets.
      PROP_ASSERT(b.world->neighbors.at(fwd.at(id)) == mapped,
                  "neighbor tables map over in order");
    }
  });
  EXPECT_TRUE(result.ok) << result.report();
}

TEST(TopoProperty, ConnectedTreeOrDeterministicFailure) {
  const auto result = check_property("topo-connectivity", [](check::Gen& g) {
    const topo::TopoSpec spec = gen_spec(g);
    const std::uint64_t seed = g.u64(1, 1'000'000);
    const std::vector<NodeId> ids = gen_ids(g, spec.nodes);

    const Outcome out = try_generate(spec, seed, ids);
    if (!out.world) {
      PROP_ASSERT(out.error.find("not connected") != std::string::npos,
                  "failure must be the connectivity diagnostic");
      return;
    }
    const topo::GeneratedWorld& w = *out.world;
    PROP_ASSERT(w.consumer == ids.front(), "consumer is the lowest id");
    PROP_ASSERT(w.parent.size() == ids.size() - 1, "every non-consumer has a parent");
    std::map<NodeId, unsigned> fanout;
    for (const auto& [child, parent] : w.parent) {
      PROP_ASSERT(topo::distance(w.placement->position(child),
                                 w.placement->position(parent)) <= spec.range,
                  "tree edges stay within the planning range");
      ++fanout[parent];
    }
    if (spec.max_degree != 0) {
      for (const auto& [parent, n] : fanout) {
        PROP_ASSERT(n <= spec.max_degree, "children-per-parent cap honored");
      }
    }
    // Every node walks up to the consumer without cycling.
    for (const NodeId start : ids) {
      NodeId n = start;
      std::size_t steps = 0;
      while (n != w.consumer) {
        const auto it = w.parent.find(n);
        PROP_ASSERT(it != w.parent.end(), "walk stays inside the tree");
        n = it->second;
        PROP_ASSERT(++steps <= ids.size(), "no cycles on the way up");
      }
    }
  });
  EXPECT_TRUE(result.ok) << result.report();
}

// The mesh world's receiver rows are built from SpatialIndex::within at
// max_radio_range and hold the pairs with PER < 1; a collision is tested by
// looking the receiver up in the interferer's row. That is exact only if no
// pair with PER < 1 lies outside the radius, for every link budget and wall
// layout.
TEST(TopoProperty, EveryHearablePairLiesWithinMaxRadioRange) {
  const auto result = check_property("topo-range-coverage", [](check::Gen& g) {
    topo::TopoSpec spec = gen_spec(g);
    if (g.boolean(0.3)) spec.generator = topo::Generator::kFloorplan;
    spec.path_loss_exp = 1.6 + 2.8 * g.real01();
    spec.tx_power_dbm = -20.0 + 28.0 * g.real01();
    spec.fade_margin_db = 2.0 + 20.0 * g.real01();
    spec.validate();
    const std::uint64_t seed = g.u64(1, 1'000'000);
    // Dense 1..n ids take the geometric hook's flat-array path; sparse ids
    // take the Placement::position path.
    std::vector<NodeId> ids;
    if (g.boolean()) {
      for (NodeId id = 1; id <= spec.nodes; ++id) ids.push_back(id);
    } else {
      ids = gen_ids(g, spec.nodes);
    }
    auto placement = std::make_shared<const topo::Placement>(
        topo::generate_placement(spec, seed, ids));
    const topo::SpatialIndex index{*placement, spec.range};
    const double radius = topo::max_radio_range(spec);
    const phy::LinkPerFn per = topo::make_geometric_link_per(placement, spec);
    for (const NodeId a : ids) {
      const std::vector<NodeId> reach = index.within(a, radius);
      for (const NodeId b : ids) {
        if (a == b || per(a, b).per >= 1.0) continue;
        PROP_ASSERT(std::binary_search(reach.begin(), reach.end(), b),
                    "a pair with PER < 1 lies outside max_radio_range");
      }
    }
  });
  EXPECT_TRUE(result.ok) << result.report();
}

}  // namespace
}  // namespace mgap
