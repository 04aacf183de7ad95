// LinkBackend contract suite: every link architecture behind the
// `link.backend` key must (a) deliver the workload end to end, (b) be
// bit-identical across same-seed runs, and (c) — for the mesh world — be
// invariant under monotone node relabeling (behavior depends on the creation
// order and the radio graph, never on the numeric ids).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/link_backend.hpp"
#include "mesh/spec.hpp"
#include "mesh/world.hpp"
#include "phy/channel_model.hpp"
#include "sim/simulator.hpp"
#include "testbed/config_file.hpp"
#include "testbed/experiment.hpp"

namespace mgap {
namespace {

/// The identical 16-node generated world + CoAP workload, parameterized only
/// by the backend. Mesh settings follow the tuned operating point of
/// examples/experiments/backend_compare.campaign.
testbed::ExperimentConfig contract_config(const std::string& backend) {
  return testbed::parse_experiment_config(
      "link.backend = " + backend + R"(
topo.generator = jitter_grid
topo.nodes = 16
duration = 60s
producer_interval = 15s
producer_jitter = 2s
payload_len = 8
compression = iphc
mesh.ttl = 9
mesh.relay_density = 0.25
mesh.transmit_count = 2
mesh.adv_interval = 40ms
mesh.reasm_entries = 64
seed = 3
)");
}

struct RunResult {
  std::uint64_t sent{0};
  std::uint64_t acked{0};
  double ll_pdr{0.0};
  sim::Duration rtt_p50;
  std::map<std::string, double> counters;

  bool operator==(const RunResult&) const = default;
};

RunResult run_once(const std::string& backend) {
  testbed::Experiment e{contract_config(backend)};
  e.run();
  const auto s = e.summary();
  return RunResult{s.sent, s.acked, s.ll_pdr, s.rtt_p50, s.counters};
}

TEST(LinkBackendContract, EveryBackendDeliversTheWorkload) {
  for (const std::string backend : {"ble", "802154", "adv", "mesh"}) {
    SCOPED_TRACE(backend);
    const RunResult r = run_once(backend);
    EXPECT_GT(r.sent, 40u);
    // Floors are deliberately loose — this pins "the backend works", the
    // campaign pins where each one shines.
    EXPECT_GT(static_cast<double>(r.acked) / static_cast<double>(r.sent), 0.5);
  }
}

TEST(LinkBackendContract, SameSeedRunsAreBitIdentical) {
  for (const std::string backend : {"ble", "802154", "adv", "mesh"}) {
    SCOPED_TRACE(backend);
    const RunResult a = run_once(backend);
    const RunResult b = run_once(backend);
    EXPECT_EQ(a, b);
  }
}

TEST(LinkBackendContract, TransitivityMatchesArchitecture) {
  // Managed flooding is the only backend where one netif send() can reach
  // every node (host routes at the consumer); all others route hop by hop.
  for (const std::string backend : {"ble", "802154", "adv", "mesh"}) {
    SCOPED_TRACE(backend);
    testbed::Experiment e{contract_config(backend)};
    EXPECT_EQ(e.backend().transitive(), backend == "mesh");
  }
}

TEST(LinkBackendKind, ParseAndToStringRoundTrip) {
  using core::LinkBackendKind;
  EXPECT_EQ(core::parse_link_backend_kind("ble"), LinkBackendKind::kBle);
  EXPECT_EQ(core::parse_link_backend_kind("802154"), LinkBackendKind::kIeee802154);
  EXPECT_EQ(core::parse_link_backend_kind("ieee802154"),
            LinkBackendKind::kIeee802154);
  EXPECT_EQ(core::parse_link_backend_kind("mesh"), LinkBackendKind::kMesh);
  EXPECT_EQ(core::parse_link_backend_kind("adv"), LinkBackendKind::kAdv);
  for (const auto kind :
       {LinkBackendKind::kBle, LinkBackendKind::kIeee802154,
        LinkBackendKind::kMesh, LinkBackendKind::kAdv}) {
    EXPECT_EQ(core::parse_link_backend_kind(core::to_string(kind)), kind);
  }
  try {
    (void)core::parse_link_backend_kind("zigbee");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "config: unknown link.backend 'zigbee'");
  }
}

// --- monotone relabel invariance (mesh world level) ------------------------

struct MeshRun {
  std::uint64_t delivered{0};
  std::uint64_t relayed{0};
  std::uint64_t adv_events{0};
  std::uint64_t cache_hits{0};

  bool operator==(const MeshRun&) const = default;
};

/// Drives a 4-node line under `ids` (in creation/topology order): ids[0]
/// floods one 30-byte SDU to ids[3] every second for 20 s.
MeshRun run_mesh_line(const std::vector<NodeId>& ids) {
  sim::Simulator sim{11};
  mesh::MeshConfig cfg;
  cfg.transmit_count = 2;
  mesh::MeshWorld world{sim, cfg, mesh::MeshWorld::Mode::kFlood,
                        phy::ChannelModel{0.0}};
  mesh::MeshWorld::ReceiverRows rows;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) rows[ids[i]].push_back({ids[i - 1], 0.0});
    if (i + 1 < ids.size()) rows[ids[i]].push_back({ids[i + 1], 0.0});
  }
  // Receiver rows ascend by id, as the world contract requires.
  for (auto& [id, row] : rows) {
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.id < y.id; });
  }
  world.set_receivers(rows);
  MeshRun out;
  for (const NodeId id : ids) {
    net::Netif& nif = world.add_node(id);
    if (id == ids.back()) {
      nif.set_rx([&out](NodeId, std::vector<std::uint8_t>, sim::TimePoint) {
        ++out.delivered;
      });
    }
  }
  world.start();
  for (int i = 0; i < 20; ++i) {
    sim.schedule_at(sim::TimePoint::origin() + sim::Duration::sec(i),
                    [&world, &ids] {
                      (void)world.origin_send(
                          ids.front(), ids.back(),
                          std::vector<std::uint8_t>(30, 0x5A));
                    });
  }
  sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(30));
  for (const NodeId id : ids) {
    const auto& s = world.stats(id);
    out.relayed += s.relayed;
    out.adv_events += s.adv_events;
    out.cache_hits += s.cache_hits;
  }
  return out;
}

TEST(LinkBackendContract, MeshIsInvariantUnderMonotoneRelabel) {
  // Same creation order, same radio graph, ids mapped through a monotone
  // function: identical behavior down to every counter.
  const MeshRun small = run_mesh_line({1, 2, 3, 4});
  const MeshRun wide = run_mesh_line({10, 200, 3000, 40000});
  EXPECT_GT(small.delivered, 0u);
  EXPECT_EQ(small, wide);
}

}  // namespace
}  // namespace mgap
