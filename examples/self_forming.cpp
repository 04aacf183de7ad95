// Self-forming network: no static configuration at all — the section 9
// future work realized. Nodes boot knowing only whether they are the border
// router; dynamic topology management (dynconn, advertising RPL ranks per
// Lee et al.) builds the BLE connection graph, RPL-lite builds the IP routes
// over it, and CoAP traffic flows — all while the randomized-interval
// mitigation keeps the formed network shading-free. The same run as a spec
// line: `topology = self_forming15`.
//
// Build & run:  ./build/examples/self_forming

#include <cstdio>

#include "testbed/experiment.hpp"

int main() {
  using namespace mgap;
  using namespace mgap::testbed;

  constexpr unsigned kNodes = 15;
  ExperimentConfig cfg;
  cfg.topology = Topology::self_forming(kNodes);
  cfg.duration = sim::Duration::minutes(10);
  cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65), sim::Duration::ms(85));
  cfg.seed = 42;

  std::printf("self_forming: 15 unconfigured nodes, node 1 is the border router\n\n");

  Experiment exp{cfg};

  // Narrate the formation phase second by second.
  for (int s = 1; s <= 30; ++s) {
    exp.run_until(sim::TimePoint::origin() + sim::Duration::sec(s));
    unsigned joined = 0;
    for (NodeId id = 1; id <= kNodes; ++id) {
      if (exp.rpl(id)->joined()) ++joined;
    }
    std::printf("  t=%2ds: %2u/15 nodes in the DODAG\n", s, joined);
    if (joined == kNodes) break;
  }
  if (exp.formation_time()) {
    std::printf("\nDODAG complete after %.1f s\n", exp.formation_time()->to_sec_f());
  }

  exp.run();  // remainder of the experiment

  std::printf("\nfinal topology (node: depth, parent, children):\n");
  std::uint64_t losses = 0;
  for (NodeId id = 1; id <= kNodes; ++id) {
    const core::Dynconn& dc = *exp.dynconn(id);
    if (dc.is_root()) {
      std::printf("  node %2u: root, %u children\n", id, dc.children());
      continue;
    }
    losses += dc.uplink_losses();
    std::printf("  node %2u: depth %u, parent %2u, %u children\n", id,
                exp.rpl(id)->rank() / net::kRplMinHopRankIncrease - 1u,
                dc.uplink_peer().value_or(kInvalidNode), dc.children());
  }

  const ExperimentSummary s = exp.summary();
  std::printf("\ntraffic: %llu/%llu CoAP requests answered (PDR %.4f)\n",
              static_cast<unsigned long long>(s.acked),
              static_cast<unsigned long long>(s.sent), s.coap_pdr);
  std::printf("uplink losses after formation: %llu (randomized intervals at work)\n",
              static_cast<unsigned long long>(losses));
  std::printf("RPL parent changes: %.0f\n", s.counters.at("rpl.parent_changes"));
  return 0;
}
