// Unit tests for the procedural topology subsystem (src/topo/): geometry
// primitives, placement generators, the geometric channel model, the spatial
// index (validated against a brute-force scan), generated-world tree
// invariants, and the BleWorld/testbed integration (neighbor-table routing,
// duplicate-id rejection, topo.* config keys).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>

#include "ble/world.hpp"
#include "net/ipv6_addr.hpp"
#include "net/routing.hpp"
#include "phy/channel_model.hpp"
#include "sim/simulator.hpp"
#include "testbed/config_file.hpp"
#include "testbed/experiment.hpp"
#include "topo/channel.hpp"
#include "topo/geometry.hpp"
#include "topo/placement.hpp"
#include "topo/spatial_index.hpp"
#include "topo/spec.hpp"
#include "topo/world.hpp"

namespace mgap {
namespace {

topo::TopoSpec rgg_spec(unsigned nodes, double density = 8.0) {
  topo::TopoSpec spec;
  spec.generator = topo::Generator::kRgg;
  spec.nodes = nodes;
  spec.density = density;
  spec.range = 10.0;
  return spec;
}

// --- geometry --------------------------------------------------------------

TEST(TopoGeometry, DistanceAndOrientation) {
  EXPECT_DOUBLE_EQ(topo::distance({0, 0}, {3, 4}), 5.0);
  EXPECT_GT(topo::orientation({0, 0}, {1, 0}, {0, 1}), 0.0);
  EXPECT_LT(topo::orientation({0, 0}, {0, 1}, {1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(topo::orientation({0, 0}, {1, 1}, {2, 2}), 0.0);
}

TEST(TopoGeometry, ProperIntersectionOnly) {
  // Crossing interiors.
  EXPECT_TRUE(topo::segments_intersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));
  // Disjoint.
  EXPECT_FALSE(topo::segments_intersect({0, 0}, {1, 0}, {0, 1}, {1, 1}));
  // Touching at an endpoint (grazing a wall corner) does not count.
  EXPECT_FALSE(topo::segments_intersect({0, 0}, {1, 1}, {1, 1}, {2, 0}));
  // Collinear overlap does not count either.
  EXPECT_FALSE(topo::segments_intersect({0, 0}, {2, 0}, {1, 0}, {3, 0}));
}

TEST(TopoGeometry, WallCrossings) {
  const std::vector<topo::Wall> walls = {{{1, -1}, {1, 1}}, {{2, -1}, {2, 1}}};
  EXPECT_EQ(topo::wall_crossings({0, 0}, {3, 0}, walls), 2u);
  EXPECT_EQ(topo::wall_crossings({0, 0}, {1.5, 0}, walls), 1u);
  EXPECT_EQ(topo::wall_crossings({0, 0}, {0.5, 0}, walls), 0u);
}

// --- spec / config keys ----------------------------------------------------

TEST(TopoSpec, ConfigKeysParseAndRenderBack) {
  const testbed::ExperimentConfig cfg = testbed::parse_experiment_config(
      "topo.generator = floorplan\ntopo.nodes = 48\ntopo.rooms = 4x3\n"
      "topo.wall_loss_db = 9\ntopo.seed = 42\n");
  const topo::TopoSpec& spec = cfg.topo;
  EXPECT_EQ(spec.generator, topo::Generator::kFloorplan);
  EXPECT_EQ(spec.nodes, 48u);
  EXPECT_EQ(spec.rooms_x, 4u);
  EXPECT_EQ(spec.rooms_y, 3u);
  EXPECT_DOUBLE_EQ(spec.wall_loss_db, 9.0);

  // Render -> parse lands on the same spec.
  const topo::TopoSpec reparsed =
      testbed::parse_experiment_config(testbed::render_experiment_config(cfg)).topo;
  EXPECT_EQ(reparsed.generator, spec.generator);
  EXPECT_EQ(reparsed.nodes, spec.nodes);
  EXPECT_EQ(reparsed.rooms_x, spec.rooms_x);
  EXPECT_DOUBLE_EQ(reparsed.wall_loss_db, spec.wall_loss_db);
  EXPECT_EQ(reparsed.seed, spec.seed);
}

TEST(TopoSpec, BadKeysAndValuesThrow) {
  for (const char* text : {"topo.flavor = spicy\n", "topo.nodes = -3\n", "topo.rooms = 4\n",
                           "topo.generator = torus\n"}) {
    EXPECT_THROW((void)testbed::parse_experiment_config(text), std::runtime_error) << text;
  }

  // A node count is a row bound, checked for a spec built in code too.
  testbed::ExperimentConfig cfg;
  cfg.topo = rgg_spec(1);
  EXPECT_THROW(testbed::validate(cfg), std::runtime_error);  // < 2 nodes
  // The generator itself refuses an empty world, whoever calls it.
  EXPECT_THROW((void)topo::generate_world(rgg_spec(0), 1), std::runtime_error);
  topo::TopoSpec bad = rgg_spec(10);
  bad.max_degree = 1;
  EXPECT_THROW(bad.validate(), std::runtime_error);  // cannot form a tree
}

// --- placement generators --------------------------------------------------

TEST(TopoPlacement, AllGeneratorsStayInBoundsAndAlign) {
  for (const topo::Generator g :
       {topo::Generator::kGrid, topo::Generator::kJitterGrid, topo::Generator::kRgg,
        topo::Generator::kFloorplan}) {
    topo::TopoSpec spec = rgg_spec(40);
    spec.generator = g;
    const topo::Placement p = topo::generate_placement(spec, 5);
    ASSERT_EQ(p.ids.size(), 40u);
    ASSERT_EQ(p.positions.size(), 40u);
    EXPECT_TRUE(std::is_sorted(p.ids.begin(), p.ids.end()));
    for (const topo::Point pt : p.positions) {
      EXPECT_GE(pt.x, 0.0);
      EXPECT_LE(pt.x, p.width);
      EXPECT_GE(pt.y, 0.0);
      EXPECT_LE(pt.y, p.height);
    }
  }
}

TEST(TopoPlacement, GridIsRegularAndJitterZeroMatchesIt) {
  topo::TopoSpec spec = rgg_spec(16);
  spec.generator = topo::Generator::kGrid;
  const topo::Placement grid = topo::generate_placement(spec, 1);
  // 16 nodes -> 4x4 grid, cell-centered.
  const double pitch = grid.width / 4.0;
  EXPECT_DOUBLE_EQ(grid.positions[0].x, pitch * 0.5);
  EXPECT_DOUBLE_EQ(grid.positions[5].x, pitch * 1.5);
  EXPECT_DOUBLE_EQ(grid.positions[5].y, pitch * 1.5);

  spec.generator = topo::Generator::kJitterGrid;
  spec.grid_jitter = 0.0;
  const topo::Placement jit = topo::generate_placement(spec, 1);
  for (std::size_t i = 0; i < grid.positions.size(); ++i) {
    EXPECT_DOUBLE_EQ(jit.positions[i].x, grid.positions[i].x);
    EXPECT_DOUBLE_EQ(jit.positions[i].y, grid.positions[i].y);
  }
}

TEST(TopoPlacement, SeedsChangeRggWorlds) {
  const topo::TopoSpec spec = rgg_spec(30);
  const topo::Placement a = topo::generate_placement(spec, 1);
  const topo::Placement b = topo::generate_placement(spec, 2);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    if (a.positions[i].x != b.positions[i].x) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(TopoPlacement, FloorplanHasWallsAndRoundRobinRooms) {
  topo::TopoSpec spec = rgg_spec(36);
  spec.generator = topo::Generator::kFloorplan;
  spec.rooms_x = 2;
  spec.rooms_y = 2;
  const topo::Placement p = topo::generate_placement(spec, 9);
  EXPECT_FALSE(p.walls.empty());
  // Node 0 and node 4 (round-robin over 4 rooms) land in the same room.
  const double rw = p.width / 2.0;
  EXPECT_EQ(p.positions[0].x < rw, p.positions[4].x < rw);
  EXPECT_EQ(p.positions[0].y < rw, p.positions[4].y < rw);
}

TEST(TopoPlacement, RejectsBadIdLists) {
  const topo::TopoSpec spec = rgg_spec(3);
  EXPECT_THROW((void)topo::generate_placement(spec, 1, {1, 2}), std::runtime_error);
  EXPECT_THROW((void)topo::generate_placement(spec, 1, {1, 2, 2}), std::runtime_error);
  EXPECT_THROW((void)topo::generate_placement(spec, 1, {3, 2, 1}), std::runtime_error);
  const topo::Placement p = topo::generate_placement(spec, 1, {2, 5, 9});
  EXPECT_TRUE(p.has(5));
  EXPECT_FALSE(p.has(4));
  EXPECT_THROW((void)p.position(4), std::runtime_error);
}

// --- geometric channel -----------------------------------------------------

TEST(TopoChannel, PathLossMonotoneInDistanceAndWalls) {
  const topo::TopoSpec spec = rgg_spec(2);
  EXPECT_LT(topo::path_loss_db(spec, 1.0, 0), topo::path_loss_db(spec, 5.0, 0));
  EXPECT_LT(topo::path_loss_db(spec, 5.0, 0), topo::path_loss_db(spec, 50.0, 0));
  EXPECT_DOUBLE_EQ(topo::path_loss_db(spec, 5.0, 2),
                   topo::path_loss_db(spec, 5.0, 0) + 2 * spec.wall_loss_db);
  // Sub-meter distances clamp to the 1 m reference.
  EXPECT_DOUBLE_EQ(topo::path_loss_db(spec, 0.1, 0), topo::path_loss_db(spec, 1.0, 0));
}

TEST(TopoChannel, MarginToPerRampsQuadratically) {
  const topo::TopoSpec spec = rgg_spec(2);
  EXPECT_DOUBLE_EQ(topo::margin_to_per(spec, spec.fade_margin_db), 0.0);
  EXPECT_DOUBLE_EQ(topo::margin_to_per(spec, spec.fade_margin_db + 10.0), 0.0);
  EXPECT_DOUBLE_EQ(topo::margin_to_per(spec, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(topo::margin_to_per(spec, -5.0), 1.0);
  const double mid = topo::margin_to_per(spec, spec.fade_margin_db / 2.0);
  EXPECT_DOUBLE_EQ(mid, 0.25);  // quadratic ramp: (1/2)^2
}

TEST(TopoChannel, MaxRadioRangeBoundsInteraction) {
  const topo::TopoSpec spec = rgg_spec(2);
  const double r = topo::max_radio_range(spec);
  EXPECT_GT(r, spec.range);  // planning range is conservative vs physics
  EXPECT_DOUBLE_EQ(topo::margin_to_per(spec, topo::link_margin_db(spec, r * 1.001, 0)),
                   1.0);
  EXPECT_LT(topo::margin_to_per(spec, topo::link_margin_db(spec, r * 0.9, 0)), 1.0);
  EXPECT_NEAR(topo::link_margin_db(spec, r, 0), 0.0, 1e-9);
}

TEST(TopoChannel, LinkPerSymmetricAndWallAware) {
  topo::TopoSpec spec = rgg_spec(36);
  spec.generator = topo::Generator::kFloorplan;
  const topo::Placement p = topo::generate_placement(spec, 4);
  const auto hook = topo::make_geometric_link_per(
      std::make_shared<const topo::Placement>(p), spec);
  for (const NodeId a : {1u, 7u, 20u}) {
    for (const NodeId b : {3u, 14u, 36u}) {
      EXPECT_DOUBLE_EQ(hook(a, b).per, hook(b, a).per);
      EXPECT_GE(hook(a, b).per, 0.0);
      EXPECT_LE(hook(a, b).per, 1.0);
      EXPECT_EQ(hook(a, b).valid_until, sim::TimePoint::never());  // nodes never move
    }
  }
}

// --- spatial index ---------------------------------------------------------

TEST(TopoSpatialIndex, MatchesBruteForceScan) {
  const topo::TopoSpec spec = rgg_spec(200, 20.0);
  const topo::Placement p = topo::generate_placement(spec, 11);
  const double radius = 8.0;
  const topo::SpatialIndex index{p, radius};
  for (std::size_t i = 0; i < p.ids.size(); ++i) {
    std::vector<NodeId> brute;
    for (std::size_t j = 0; j < p.ids.size(); ++j) {
      if (i == j) continue;
      if (topo::distance(p.positions[i], p.positions[j]) <= radius) {
        brute.push_back(p.ids[j]);
      }
    }
    EXPECT_EQ(index.within(p.ids[i], radius), brute) << "node " << p.ids[i];
  }
}

TEST(TopoSpatialIndex, NeighborTablesAreAscendingAndSymmetric) {
  const topo::TopoSpec spec = rgg_spec(120);
  const topo::Placement p = topo::generate_placement(spec, 3);
  const double radius = topo::max_radio_range(spec);
  const topo::SpatialIndex index{p, radius};
  const auto tables = index.neighbor_tables(radius);
  ASSERT_EQ(tables.size(), p.ids.size());
  for (const auto& [id, neigh] : tables) {
    EXPECT_TRUE(std::is_sorted(neigh.begin(), neigh.end()));
    for (const NodeId other : neigh) {
      const auto& back = tables.at(other);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), id))
          << other << " -> " << id;
    }
  }
}

TEST(TopoSpatialIndex, BallIncludesTheCenter) {
  const topo::TopoSpec spec = rgg_spec(80);
  const topo::Placement p = topo::generate_placement(spec, 9);
  const topo::SpatialIndex index{p, spec.range};
  for (const double radius : {0.0, 5.0, 25.0}) {
    for (const NodeId id : p.ids) {
      const std::vector<NodeId> ball = index.ball(id, radius);
      // ball = {center} ∪ within, still strictly ascending.
      EXPECT_TRUE(std::binary_search(ball.begin(), ball.end(), id));
      EXPECT_TRUE(std::is_sorted(ball.begin(), ball.end()));
      EXPECT_EQ(ball.size(), index.within(id, radius).size() + 1);
    }
  }
}

// --- generated world -------------------------------------------------------

TEST(TopoWorld, TreeIsConnectedCappedAndCovered) {
  topo::TopoSpec spec = rgg_spec(150);
  spec.max_degree = 4;
  const topo::GeneratedWorld w = topo::generate_world(spec, 21);
  EXPECT_EQ(w.consumer, 1u);
  EXPECT_EQ(w.parent.size(), 149u);  // everyone but the consumer has a parent

  std::map<NodeId, unsigned> fanout;
  for (const auto& [child, parent] : w.parent) {
    // Every tree edge is covered by the neighbor tables (the advertising
    // path would otherwise never deliver the CONNECT_IND).
    const auto& neigh = w.neighbors.at(child);
    EXPECT_TRUE(std::binary_search(neigh.begin(), neigh.end(), parent));
    // ... and within the planning range.
    EXPECT_LE(topo::distance(w.placement->position(child),
                             w.placement->position(parent)),
              spec.range);
    ++fanout[parent];
  }
  for (const auto& [parent, n] : fanout) EXPECT_LE(n, 4u) << "node " << parent;

  // Every node walks to the consumer without cycling.
  for (const NodeId start : w.placement->ids) {
    NodeId n = start;
    unsigned steps = 0;
    while (n != w.consumer) {
      n = w.parent.at(n);
      ASSERT_LE(++steps, w.placement->ids.size());
    }
  }
}

TEST(TopoWorld, DisconnectedWorldFailsDeterministically) {
  topo::TopoSpec spec = rgg_spec(20, 0.05);  // ~630 m side at range 10 m
  std::string first;
  try {
    (void)topo::generate_world(spec, 4);
    FAIL() << "expected a connectivity error";
  } catch (const std::runtime_error& e) {
    first = e.what();
  }
  EXPECT_NE(first.find("not connected"), std::string::npos);
  try {
    (void)topo::generate_world(spec, 4);
    FAIL() << "expected the same connectivity error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(first, e.what());  // byte-identical failure, run to run
  }
}

// --- BleWorld integration --------------------------------------------------

TEST(TopoBleWorld, DuplicateNodeIdThrows) {
  sim::Simulator sim{1};
  ble::BleWorld world{sim, phy::ChannelModel{0.0}};
  world.add_node(7, 0.0);
  EXPECT_THROW(world.add_node(7, 0.0), std::invalid_argument);
  EXPECT_NO_THROW(world.add_node(8, 0.0));
}

TEST(TopoBleWorld, GeneratedExperimentRidesTheNeighborTables) {
  testbed::ExperimentConfig cfg;
  cfg.topo = rgg_spec(30);
  cfg.duration = sim::Duration::sec(30);
  cfg.producer_interval = sim::Duration::sec(5);
  cfg.seed = 5;
  testbed::Experiment exp{cfg};
  ASSERT_TRUE(exp.ble_world()->has_neighbor_table());
  ASSERT_NE(exp.generated_world(), nullptr);
  exp.run();

  const testbed::ExperimentSummary s = exp.summary();
  EXPECT_EQ(s.topo_generator, "rgg");
  EXPECT_EQ(s.topo_seed, 5u);
  EXPECT_EQ(s.topo_nodes, 30u);
  EXPECT_GT(s.topo_max_hops, 0u);
  EXPECT_GT(s.coap_pdr, 0.0);

  // The advertising path never fell back to the full O(N) scan, and the
  // instrumentation surfaced through the summary counters.
  EXPECT_EQ(exp.ble_world()->adv_full_scans(), 0u);
  EXPECT_GT(exp.ble_world()->adv_events_routed(), 0u);
  EXPECT_EQ(s.counters.at("ble.adv_full_scans"), 0.0);
  EXPECT_GT(s.counters.at("ble.adv_events_routed"), 0.0);
}

TEST(TopoBleWorld, AdvertisingScanStaysBoundedByDegree) {
  // Regression guard for the over-scanning bug: routed advertising events
  // used to walk a large slice of the world per CONNECT_IND (1.6M candidates
  // for ~1k routed events at 1000 nodes) because the neighbor tables were
  // built at the radio range instead of the planning range. With plan-range
  // tables, the per-event candidate count is the plan-range degree — a small
  // multiple of the tree's degree cap (8), not a function of world size.
  testbed::ExperimentConfig cfg;
  cfg.topo = rgg_spec(100);
  cfg.duration = sim::Duration::sec(30);
  cfg.producer_interval = sim::Duration::sec(5);
  cfg.seed = 7;
  testbed::Experiment exp{cfg};
  exp.run();

  const ble::BleWorld& world = *exp.ble_world();
  ASSERT_GT(world.adv_events_routed(), 0u);
  EXPECT_EQ(world.adv_full_scans(), 0u);
  // ~25 in-range neighbors at density 8 / range 10: allow 5x the degree cap.
  EXPECT_LE(world.adv_candidates_scanned(), 40 * world.adv_events_routed());
}

// Every world resolves downstream routes lazily from the parent map. The
// contract: for every (node, destination) pair the lazy lookup answers exactly
// what an eager table of every (ancestor, descendant) host route would.
void expect_lazy_routes_equal_the_eager_build(testbed::ExperimentConfig cfg) {
  cfg.duration = sim::Duration::sec(1);
  testbed::Experiment exp{cfg};

  const testbed::Topology& topo = exp.config().topology;
  for (const NodeId id : topo.nodes) {
    net::RoutingTable& routes = exp.stack(id).routes();
    // Eager expectation: child subtrees get host routes via the child,
    // everything else defaults to the parent (the consumer has no default).
    std::map<NodeId, NodeId> eager;
    for (const NodeId child : topo.children(id)) {
      eager[child] = child;
      for (const NodeId desc : topo.subtree(child)) eager[desc] = child;
    }
    for (const NodeId dst : topo.nodes) {
      const std::optional<net::Ipv6Addr> got =
          routes.lookup(net::Ipv6Addr::site(dst));
      const auto it = eager.find(dst);
      if (it != eager.end()) {
        ASSERT_TRUE(got.has_value()) << id << " -> " << dst;
        EXPECT_EQ(*got, net::Ipv6Addr::site(it->second)) << id << " -> " << dst;
      } else if (id != topo.consumer) {
        ASSERT_TRUE(got.has_value()) << id << " -> " << dst;
        EXPECT_EQ(*got, net::Ipv6Addr::site(topo.parent.at(id)))
            << id << " -> " << dst;
      } else {
        EXPECT_FALSE(got.has_value()) << id << " -> " << dst;
      }
    }
  }
}

TEST(TopoBleWorld, LazyRoutesEqualTheEagerBuild) {
  testbed::ExperimentConfig generated;
  generated.topo = rgg_spec(40);
  generated.seed = 3;
  expect_lazy_routes_equal_the_eager_build(generated);
  for (const testbed::Topology& wired :
       {testbed::Topology::tree15(), testbed::Topology::line15(),
        testbed::Topology::star(7)}) {
    SCOPED_TRACE(wired.name);
    testbed::ExperimentConfig cfg;
    cfg.topology = wired;
    expect_lazy_routes_equal_the_eager_build(cfg);
  }
}

TEST(TopoBleWorld, LazyResolverCachesAsHostRoutes) {
  testbed::ExperimentConfig cfg;
  cfg.topo = rgg_spec(30);
  cfg.duration = sim::Duration::sec(1);
  cfg.seed = 3;
  testbed::Experiment exp{cfg};

  const testbed::Topology& topo = exp.config().topology;
  net::RoutingTable& routes = exp.stack(topo.consumer).routes();
  EXPECT_EQ(routes.size(), 0u);  // nothing materialized at setup
  NodeId leaf = topo.consumer;
  for (const auto& [child, parent] : topo.parent) leaf = std::max(leaf, child);
  (void)routes.lookup(net::Ipv6Addr::site(leaf));
  EXPECT_EQ(routes.size(), 1u);  // resolver answer cached, run-once
  (void)routes.lookup(net::Ipv6Addr::site(leaf));
  EXPECT_EQ(routes.size(), 1u);
}

TEST(TopoBleWorld, StaticExperimentsKeepCountersOut) {
  testbed::ExperimentConfig cfg;
  cfg.duration = sim::Duration::sec(10);
  testbed::Experiment exp{cfg};
  EXPECT_FALSE(exp.ble_world()->has_neighbor_table());
  exp.run();
  const testbed::ExperimentSummary s = exp.summary();
  EXPECT_EQ(s.topo_generator, "static:tree");
  EXPECT_EQ(s.topo_nodes, 15u);
  EXPECT_NEAR(s.topo_mean_hops, 2.14, 0.01);
  // No adv counters for static worlds: campaign CSV columns must not change.
  EXPECT_EQ(s.counters.count("ble.adv_full_scans"), 0u);
}

// --- config-file integration -----------------------------------------------

TEST(TopoConfigFile, ParsesValidatesAndRenders) {
  const char* text =
      "radio = ble\n"
      "topo.generator = rgg\n"
      "topo.nodes = 50\n"
      "topo.density = 8\n"
      "topo.range = 10\n"
      "duration = 1m\n";
  const testbed::ExperimentConfig cfg = testbed::parse_experiment_config(text);
  EXPECT_TRUE(cfg.topo.enabled());
  EXPECT_EQ(cfg.topo.nodes, 50u);

  // The rendered effective description round-trips and carries the topo
  // block instead of a static "topology =" line.
  const std::string rendered = testbed::render_experiment_config(cfg);
  EXPECT_EQ(rendered.find("topology ="), std::string::npos);
  EXPECT_NE(rendered.find("topo.generator = rgg"), std::string::npos);
  const testbed::ExperimentConfig again = testbed::parse_experiment_config(rendered);
  EXPECT_EQ(again.topo.nodes, cfg.topo.nodes);
  EXPECT_EQ(testbed::render_experiment_config(again), rendered);
}

TEST(TopoConfigFile, BadTopoConfigsFailAtParseTime) {
  EXPECT_THROW((void)testbed::parse_experiment_config("topo.generator = torus\n"),
               std::runtime_error);
  EXPECT_THROW((void)testbed::parse_experiment_config("topo.what = 3\n"),
               std::runtime_error);
  // Unsatisfiable spec caught by validation at parse time, not N cells later.
  EXPECT_THROW((void)testbed::parse_experiment_config(
                   "topo.generator = rgg\ntopo.nodes = 1\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace mgap
