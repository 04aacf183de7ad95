// Integration tests: self-forming IPv6-over-BLE networks — dynamic topology
// management coupled with RPL routing (the paper's section 9 future work),
// run by Experiment on a topology with no static links.

#include <gtest/gtest.h>

#include "testbed/config_file.hpp"
#include "testbed/experiment.hpp"

namespace mgap::testbed {
namespace {

ExperimentConfig self_forming(unsigned nodes, sim::Duration duration, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.topology = Topology::self_forming(nodes);
  cfg.duration = duration;
  cfg.seed = seed;
  return cfg;
}

bool all_joined(Experiment& exp) {
  for (const NodeId id : exp.config().topology.nodes) {
    if (!exp.rpl(id)->joined()) return false;
  }
  return true;
}

TEST(SelfForming, FifteenNodesFormAndDeliver) {
  Experiment exp{self_forming(15, sim::Duration::minutes(5), 1)};
  exp.run();

  EXPECT_TRUE(all_joined(exp));
  ASSERT_TRUE(exp.formation_time().has_value());
  // Formation completes within tens of seconds (observation windows +
  // connect + trickle rounds per tier).
  EXPECT_LT(*exp.formation_time(), sim::TimePoint::origin() + sim::Duration::sec(60));

  // Traffic flows once formed.
  EXPECT_GT(exp.metrics().total_acked(), 0u);
  const double pdr = exp.metrics().pdr();
  EXPECT_GT(pdr, 0.85);  // early requests race formation; steady state ~1.0
}

TEST(SelfForming, DepthsBoundedByFanout) {
  Experiment exp{self_forming(15, sim::Duration::minutes(3), 2)};
  exp.run();
  ASSERT_TRUE(all_joined(exp));
  // Root + 14 nodes at fanout <= 3: depth up to 3 tiers typically.
  for (NodeId id = 2; id <= 15; ++id) {
    const unsigned depth = exp.rpl(id)->rank() / net::kRplMinHopRankIncrease - 1u;
    EXPECT_GE(depth, 1u) << "node " << id;
    EXPECT_LE(depth, 6u) << "node " << id;
  }
  // Fanout constraint respected at the BLE level.
  for (NodeId id = 1; id <= 15; ++id) {
    EXPECT_LE(exp.dynconn(id)->children(), core::DynconnConfig{}.max_children)
        << "node " << id;
  }
  // The summary's hop columns describe the formed DODAG.
  const ExperimentSummary s = exp.summary();
  EXPECT_EQ(s.topo_generator, "self_forming");
  EXPECT_GE(s.topo_mean_hops, 1.0);
  EXPECT_LE(s.topo_max_hops, 6u);
}

TEST(SelfForming, SteadyStateIsReliable) {
  Experiment exp{self_forming(10, sim::Duration::minutes(10), 3)};
  exp.run();
  ASSERT_TRUE(all_joined(exp));
  // Measure steady state only: the requests sent after the first minute.
  const PdrBucket steady = exp.metrics().count_between(
      sim::TimePoint::origin() + sim::Duration::sec(60),
      sim::TimePoint::origin() + sim::Duration::minutes(10));
  ASSERT_GT(steady.sent, 0u);
  EXPECT_GT(steady.pdr(), 0.99);
}

TEST(SelfForming, HealsAfterForcedUplinkLoss) {
  Experiment exp{self_forming(8, sim::Duration::minutes(2), 4)};
  exp.run_until(sim::TimePoint::origin() + sim::Duration::minutes(2));
  ASSERT_TRUE(all_joined(exp));

  // Kill a mid-tree node's uplink; the network must re-form.
  NodeId victim = kInvalidNode;
  for (NodeId id = 2; id <= 8; ++id) {
    if (exp.dynconn(id)->children() > 0) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode) << "expected at least one interior node";
  const NodeId parent = *exp.dynconn(victim)->uplink_peer();
  ble::Connection* uplink = exp.controller(victim)->connection_to(parent);
  ASSERT_NE(uplink, nullptr);
  uplink->close(ble::DisconnectReason::kSupervisionTimeout);

  exp.run_until(exp.simulator().now() + sim::Duration::minutes(2));
  EXPECT_TRUE(all_joined(exp));
  EXPECT_TRUE(exp.dynconn(victim)->has_uplink());
}

TEST(SelfForming, RandomizedIntervalsKeepFormedNetworkLossFree) {
  ExperimentConfig cfg = self_forming(12, sim::Duration::minutes(30), 5);
  // Experiment defaults to a fixed 75 ms interval; dynconn's mitigation needs
  // the randomized window: after formation there must be no shading-induced
  // uplink losses.
  cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65), sim::Duration::ms(85));
  Experiment exp{cfg};
  exp.run();
  ASSERT_TRUE(all_joined(exp));
  std::uint64_t losses = 0;
  for (NodeId id = 2; id <= 12; ++id) losses += exp.dynconn(id)->uplink_losses();
  EXPECT_EQ(losses, 0u);
  EXPECT_EQ(exp.summary().counters.at("dynconn.uplink_losses"), 0.0);
}

TEST(SelfForming, RunAfterRunUntilRunsTheRemainderAndTheDrain) {
  Experiment exp{self_forming(5, sim::Duration::minutes(1), 6)};
  exp.run_until(sim::TimePoint::origin() + sim::Duration::sec(30));
  exp.run();
  EXPECT_EQ(exp.simulator().now(),
            sim::TimePoint::origin() + sim::Duration::minutes(1) + exp.config().drain);
}

TEST(SelfForming, SummaryCountersOnlyOnSelfFormingRuns) {
  Experiment formed{self_forming(5, sim::Duration::minutes(1), 7)};
  formed.run();
  const ExperimentSummary s = formed.summary();
  ASSERT_TRUE(formed.formation_time().has_value());
  EXPECT_EQ(s.counters.at("rpl.formation_s"), formed.formation_time()->to_sec_f());
  EXPECT_GT(s.counters.at("rpl.dio_tx"), 0.0);
  EXPECT_GT(s.counters.at("rpl.dao_tx"), 0.0);
  EXPECT_EQ(s.counters.count("rpl.parent_changes"), 1u);

  ExperimentConfig wired;
  wired.topology = Topology::star(5);
  wired.duration = sim::Duration::sec(30);
  Experiment static_run{wired};
  static_run.run();
  const ExperimentSummary w = static_run.summary();
  for (const char* name : {"rpl.formation_s", "rpl.dio_tx", "rpl.dao_tx",
                           "rpl.parent_changes", "dynconn.uplink_losses"}) {
    EXPECT_EQ(w.counters.count(name), 0u) << name;
  }
  EXPECT_EQ(static_run.dynconn(2), nullptr);
  EXPECT_EQ(static_run.rpl(2), nullptr);
}

TEST(SelfForming, CrashFaultsAreRejected) {
  // dynconn cannot be suspended, so a crash would only switch the radio off:
  // the configuration is refused up front, naming the fault.
  ExperimentConfig cfg = self_forming(5, sim::Duration::minutes(1), 1);
  apply_experiment_kv(cfg, "fault.0", "crash node=3 at=20s reboot_after=5s");
  try {
    Experiment exp{cfg};
    FAIL() << "expected a config error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fault.0"), std::string::npos) << e.what();
  }
  EXPECT_THROW(validate(cfg), std::runtime_error);

  ExperimentConfig chaos = self_forming(5, sim::Duration::minutes(1), 1);
  chaos.chaos.rate_per_min = 2.0;  // every kind, crash included
  EXPECT_THROW(validate(chaos), std::runtime_error);
  chaos.chaos.kinds = {fault::FaultKind::kBlackout};  // only edge faults
  EXPECT_THROW(validate(chaos), std::runtime_error);
}

TEST(SelfForming, ChaosSamplesNodeFaultsOnly) {
  // Chaos link faults pick from the topology's edges; a self-forming world
  // has none, so only the node-scoped kinds are sampled.
  ExperimentConfig cfg = self_forming(6, sim::Duration::minutes(2), 3);
  cfg.chaos.rate_per_min = 6.0;
  cfg.chaos.kinds = {fault::FaultKind::kBlackout, fault::FaultKind::kPressure};
  validate(cfg);
  Experiment exp{cfg};
  exp.run();
  ASSERT_NE(exp.injector(), nullptr);
  ASSERT_GT(exp.injector()->timeline().size(), 0u);
  for (const fault::InjectedFault& f : exp.injector()->timeline()) {
    EXPECT_EQ(f.event.kind, fault::FaultKind::kPressure);
  }
}

}  // namespace
}  // namespace mgap::testbed
