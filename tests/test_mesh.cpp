// Unit tests for the Bluetooth Mesh subsystem (src/mesh/): bearer delivery,
// relay/TTL semantics, the network message cache, relay election density,
// lower-transport segmentation/reassembly (incl. bounded-table eviction),
// heartbeat publication, netif back-pressure, crash/reboot behavior, the
// kDirect (IPv6-over-advertising) mode, the bearer's collision rule, and the
// flat message cache against a std::set + std::deque reference.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "mesh/message_cache.hpp"
#include "mesh/spec.hpp"
#include "mesh/world.hpp"
#include "phy/ble_phy.hpp"
#include "phy/channel_model.hpp"
#include "sim/simulator.hpp"

namespace mgap::mesh {
namespace {

struct Rx {
  NodeId src{0};
  std::vector<std::uint8_t> frame;
};

/// A MeshWorld over a line topology 1-2-...-n: only adjacent ids are in
/// radio range, links are lossless, adv channels are clean. Received SDUs
/// are captured per node.
struct LineWorld {
  LineWorld(MeshConfig cfg, unsigned n,
            MeshWorld::Mode mode = MeshWorld::Mode::kFlood)
      : world{sim, cfg, mode, phy::ChannelModel{0.0}} {
    MeshWorld::ReceiverRows rows;
    for (NodeId id = 1; id <= n; ++id) {
      if (id > 1) rows[id].push_back({id - 1, 0.0});
      if (id < n) rows[id].push_back({id + 1, 0.0});
    }
    world.set_receivers(rows);
    for (NodeId id = 1; id <= n; ++id) {
      net::Netif& nif = world.add_node(id);
      netif[id] = &nif;
      nif.set_rx([this, id](NodeId src, std::vector<std::uint8_t> f,
                            sim::TimePoint) {
        rx[id].push_back(Rx{src, std::move(f)});
      });
      nif.set_writable([this, id](NodeId next_hop) {
        writable[id].push_back(next_hop);
      });
    }
    world.start();
  }

  sim::Simulator sim{1};
  MeshWorld world;
  std::map<NodeId, net::Netif*> netif;
  std::map<NodeId, std::vector<Rx>> rx;
  std::map<NodeId, std::vector<NodeId>> writable;
};

std::vector<std::uint8_t> payload(std::size_t len, std::uint8_t fill = 0xAB) {
  std::vector<std::uint8_t> p(len, fill);
  for (std::size_t i = 0; i < len; ++i) p[i] = static_cast<std::uint8_t>(fill + i);
  return p;
}

constexpr auto kSettle = sim::Duration::sec(5);

TEST(MeshFlood, SingleHopDelivery) {
  LineWorld w{MeshConfig{}, 2};
  const auto sdu = payload(10);
  EXPECT_TRUE(w.world.origin_send(1, 2, sdu));
  w.sim.run_until(sim::TimePoint::origin() + kSettle);
  ASSERT_EQ(w.rx[2].size(), 1u);
  EXPECT_EQ(w.rx[2][0].src, 1u);
  EXPECT_EQ(w.rx[2][0].frame, sdu);
  EXPECT_EQ(w.world.stats(1).sdu_tx, 1u);
  EXPECT_EQ(w.world.stats(2).sdu_rx, 1u);
}

TEST(MeshFlood, RelayExtendsReachAcrossLine) {
  // 1 -> 4 needs two relays; with TTL 7 and everyone relaying it arrives.
  LineWorld w{MeshConfig{}, 4};
  EXPECT_TRUE(w.world.origin_send(1, 4, payload(8)));
  w.sim.run_until(sim::TimePoint::origin() + kSettle);
  ASSERT_EQ(w.rx[4].size(), 1u);
  EXPECT_GE(w.world.stats(2).relayed, 1u);
  EXPECT_GE(w.world.stats(3).relayed, 1u);
  // The destination consumes; it does not re-flood.
  EXPECT_EQ(w.world.stats(4).relayed, 0u);
}

TEST(MeshFlood, TtlFloorStopsTheFlood) {
  // TTL 2 pays for exactly one relay: the PDU reaches node 3 but dies there.
  MeshConfig cfg;
  cfg.ttl = 2;
  LineWorld w{cfg, 4};
  EXPECT_TRUE(w.world.origin_send(1, 4, payload(8)));
  w.sim.run_until(sim::TimePoint::origin() + kSettle);
  EXPECT_TRUE(w.rx[4].empty());
  EXPECT_EQ(w.world.stats(2).relayed, 1u);
  // Node 3 heard the relayed copy (TTL 1) and had to suppress.
  EXPECT_GE(w.world.stats(3).relay_suppressed, 1u);
}

TEST(MeshFlood, MessageCacheKillsTransmitCountDuplicates) {
  MeshConfig cfg;
  cfg.transmit_count = 3;
  LineWorld w{cfg, 2};
  EXPECT_TRUE(w.world.origin_send(1, 2, payload(8)));
  w.sim.run_until(sim::TimePoint::origin() + kSettle);
  // Three copies on air, one SDU up, the rest dead in the cache.
  EXPECT_EQ(w.world.stats(1).adv_events, 3u);
  EXPECT_EQ(w.world.stats(2).sdu_rx, 1u);
  EXPECT_EQ(w.world.stats(2).cache_hits, 2u);
}

TEST(MeshFlood, RelayElectionMatchesDensity) {
  sim::Simulator sim{1};
  MeshConfig cfg;
  cfg.relay_density = 0.3;
  MeshWorld world{sim, cfg, MeshWorld::Mode::kFlood, phy::ChannelModel{0.0}};
  unsigned relays = 0;
  for (NodeId id = 100; id < 110; ++id) {
    world.add_node(id);
    if (world.relay_enabled(id)) ++relays;
  }
  EXPECT_EQ(relays, 3u);  // floor(10 * 0.3), independent of the ids
}

TEST(MeshFlood, RelayElectionExtremes) {
  sim::Simulator sim{1};
  MeshConfig all;
  all.relay_density = 1.0;
  MeshWorld wa{sim, all, MeshWorld::Mode::kFlood, phy::ChannelModel{0.0}};
  MeshConfig none;
  none.relay_density = 0.0;
  MeshWorld wn{sim, none, MeshWorld::Mode::kFlood, phy::ChannelModel{0.0}};
  for (NodeId id = 1; id <= 5; ++id) {
    wa.add_node(id);
    wn.add_node(id);
    EXPECT_TRUE(wa.relay_enabled(id));
    EXPECT_FALSE(wn.relay_enabled(id));
  }
}

TEST(MeshFlood, DuplicateNodeIdThrows) {
  sim::Simulator sim{1};
  MeshWorld world{sim, MeshConfig{}, MeshWorld::Mode::kFlood,
                  phy::ChannelModel{0.0}};
  world.add_node(7);
  EXPECT_THROW(world.add_node(7), std::invalid_argument);
}

TEST(MeshFlood, SegmentationRoundTrip) {
  // 40 bytes ride as ceil(40/12) = 4 lower-transport segments and reassemble
  // byte-identically.
  LineWorld w{MeshConfig{}, 2};
  const auto sdu = payload(40);
  EXPECT_TRUE(w.world.origin_send(1, 2, sdu));
  w.sim.run_until(sim::TimePoint::origin() + kSettle);
  EXPECT_EQ(w.world.stats(1).seg_tx, 4u);
  ASSERT_EQ(w.rx[2].size(), 1u);
  EXPECT_EQ(w.rx[2][0].frame, sdu);
}

TEST(MeshFlood, ReassemblyTableEvictsOldestWhenFull) {
  // One reassembly slot at node 2, two interleaving segmented SDUs (from
  // nodes 1 and 3): at least one half-built SDU must be evicted.
  MeshConfig cfg;
  cfg.reasm_entries = 1;
  LineWorld w{cfg, 3};
  EXPECT_TRUE(w.world.origin_send(1, 2, payload(36, 0x10)));
  EXPECT_TRUE(w.world.origin_send(3, 2, payload(36, 0x80)));
  w.sim.run_until(sim::TimePoint::origin() + kSettle);
  EXPECT_GE(w.world.stats(2).reasm_evicted, 1u);
  EXPECT_LT(w.world.stats(2).sdu_rx, 2u);
}

TEST(MeshFlood, HeartbeatMeasuresFloodingRadius) {
  MeshConfig cfg;
  cfg.heartbeat_period = sim::Duration::sec(1);
  LineWorld w{cfg, 4};
  w.sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(10));
  EXPECT_GT(w.world.stats(1).heartbeat_tx, 0u);
  EXPECT_GT(w.world.stats(4).heartbeat_rx, 0u);
  // Node 1's heartbeats cross 3 hops to reach node 4.
  EXPECT_GE(w.world.stats(4).heartbeat_hops_max, 3u);
}

TEST(MeshFlood, BackpressureRefusesAndSignalsWritable) {
  // A full bearer queue refuses the SDU (the IP stack keeps the frame) and
  // the writable signal fires once the queue drains enough to take one.
  MeshConfig cfg;
  cfg.queue_cap = 4;
  LineWorld w{cfg, 2};
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(w.netif[1]->send(2, payload(8)));
  }
  EXPECT_FALSE(w.netif[1]->send(2, payload(8)));
  EXPECT_EQ(w.world.stats(1).backpressure, 1u);
  EXPECT_TRUE(w.writable[1].empty());
  w.sim.run_until(sim::TimePoint::origin() + kSettle);
  ASSERT_FALSE(w.writable[1].empty());
  EXPECT_EQ(w.writable[1][0], 2u);
  EXPECT_TRUE(w.netif[1]->send(2, payload(8)));  // the retry now fits
  w.sim.run_until(sim::TimePoint::origin() + kSettle * 2);
  EXPECT_EQ(w.world.stats(2).sdu_rx, 5u);
}

TEST(MeshFlood, CrashSilencesNodeRebootResumes) {
  LineWorld w{MeshConfig{}, 3};
  w.world.on_node_crash(2);
  EXPECT_TRUE(w.world.origin_send(1, 3, payload(8)));
  w.sim.run_until(sim::TimePoint::origin() + kSettle);
  EXPECT_TRUE(w.rx[3].empty());  // the only relay was down
  w.world.on_node_reboot(2);
  EXPECT_TRUE(w.world.origin_send(1, 3, payload(8)));
  w.sim.run_until(sim::TimePoint::origin() + kSettle * 2);
  EXPECT_EQ(w.rx[3].size(), 1u);
}

TEST(MeshFlood, CrashedOriginRefusesSend) {
  LineWorld w{MeshConfig{}, 2};
  w.world.on_node_crash(1);
  EXPECT_FALSE(w.world.origin_send(1, 2, payload(8)));
}

TEST(MeshDirect, NextHopOnlyNoRelay) {
  // kDirect addresses the IP next hop over plain advertisements: a PDU for
  // an out-of-range destination reaches nobody, and nothing ever relays.
  LineWorld w{MeshConfig{}, 3, MeshWorld::Mode::kDirect};
  EXPECT_FALSE(w.world.relay_enabled(2));
  EXPECT_TRUE(w.world.origin_send(1, 3, payload(8)));
  EXPECT_TRUE(w.world.origin_send(1, 2, payload(8)));
  w.sim.run_until(sim::TimePoint::origin() + kSettle);
  EXPECT_TRUE(w.rx[3].empty());
  EXPECT_EQ(w.rx[2].size(), 1u);
  EXPECT_EQ(w.world.stats(2).relayed, 0u);
}

TEST(MeshWorldStats, ReceptionRatioIsOneWhenClean) {
  LineWorld w{MeshConfig{}, 2};
  EXPECT_TRUE(w.world.origin_send(1, 2, payload(8)));
  w.sim.run_until(sim::TimePoint::origin() + kSettle);
  EXPECT_DOUBLE_EQ(w.world.reception_ratio(), 1.0);
}

TEST(MeshWorldRows, RejectsMalformedRows) {
  sim::Simulator sim{1};
  MeshWorld world{sim, MeshConfig{}, MeshWorld::Mode::kFlood,
                  phy::ChannelModel{0.0}};
  EXPECT_THROW(world.set_receivers({{1, {{3, 0.0}, {2, 0.0}}}}), std::invalid_argument);
  EXPECT_THROW(world.set_receivers({{1, {{1, 0.0}}}}), std::invalid_argument);
  EXPECT_THROW(world.set_receivers({{1, {{2, 1.0}}}}), std::invalid_argument);
  // A row naming a node that was never added fails when the rows resolve,
  // before the run, not on the first reception.
  world.add_node(1);
  world.add_node(2);
  world.set_receivers({{1, {{2, 0.0}}}, {2, {{1, 0.0}, {9, 0.0}}}});
  EXPECT_THROW(world.start(), std::invalid_argument);
  world.set_receivers({{1, {{2, 0.0}}}, {7, {}}});
  EXPECT_THROW(world.start(), std::invalid_argument);
}

// --- Bearer collision rule --------------------------------------------------
//
// Four nodes with hand-made receiver rows and adv_interval 0, so each SDU goes
// on air at the instant it is sent. The hidden-terminal rows put interferer 3
// in range of receiver 2 only, and bystander 4 in range of transmitter 1 only:
//
//     4 -- 1 -- 2 -- 3
//
// Each case also checks a reception whose outcome depends on looking the
// receiver up in the *interferer's* row, so none passes if the rule reads any
// other row.

const MeshWorld::ReceiverRows kHiddenRows{
    {1, {{2, 0.0}, {4, 0.0}}}, {2, {{1, 0.0}, {3, 0.0}}}, {3, {{2, 0.0}}}, {4, {{1, 0.0}}}};
/// Interferer 3 in range of transmitter 1 but not of receiver 2.
const MeshWorld::ReceiverRows kExposedRows{
    {1, {{2, 0.0}, {3, 0.0}}}, {2, {{1, 0.0}}}, {3, {{1, 0.0}}}, {4, {}}};

constexpr sim::Duration kThird = phy::kAdvEventDuration / 3;

struct AirWorld {
  explicit AirWorld(const MeshWorld::ReceiverRows& rows)
      : world{sim, config(), MeshWorld::Mode::kDirect, phy::ChannelModel{0.0}} {
    world.set_receivers(rows);
    for (NodeId id = 1; id <= 4; ++id) world.add_node(id);
    world.start();
  }
  static MeshConfig config() {
    MeshConfig cfg;
    cfg.adv_interval = sim::Duration{};
    return cfg;
  }
  /// `from` puts one single-segment SDU for `to` on air at 10 ms + `offset`.
  void send_at(sim::Duration offset, NodeId from, NodeId to) {
    sim.schedule_at(sim::TimePoint::origin() + sim::Duration::ms(10) + offset,
                    [this, from, to] { EXPECT_TRUE(world.origin_send(from, to, payload(8))); });
  }
  const MeshNodeStats& run(NodeId id) {
    sim.run_until(sim::TimePoint::origin() + sim::Duration::ms(50));
    return world.stats(id);
  }

  sim::Simulator sim{1};
  MeshWorld world;
};

TEST(MeshCollision, HiddenInterfererCollidesAtTheReceiver) {
  AirWorld w{kHiddenRows};
  w.send_at(sim::Duration{}, 1, 2);
  w.send_at(sim::Duration::us(100), 3, 2);
  EXPECT_EQ(w.run(2).collisions, 2u);  // both events lost at 2
  EXPECT_EQ(w.world.stats(2).sdu_rx, 0u);
  // 4 hears 1 cleanly: 3 overlaps in time but cannot reach 4.
  EXPECT_EQ(w.world.stats(4).collisions, 0u);
  EXPECT_EQ(w.world.stats(4).rx_pdus, 1u);
}

TEST(MeshCollision, InterfererOutOfReceiverRangeDoesNotCollide) {
  AirWorld w{kExposedRows};
  w.send_at(sim::Duration{}, 1, 2);
  w.send_at(sim::Duration::us(100), 3, 1);
  EXPECT_EQ(w.run(2).collisions, 0u);
  EXPECT_EQ(w.world.stats(2).sdu_rx, 1u);
}

TEST(MeshCollision, StartsAThirdOfAnEventApartDoNotCollide) {
  AirWorld apart{kHiddenRows};
  apart.send_at(sim::Duration{}, 1, 2);
  apart.send_at(kThird, 3, 2);
  EXPECT_EQ(apart.run(2).collisions, 0u);
  EXPECT_EQ(apart.world.stats(2).rx_pdus, 2u);

  AirWorld close{kHiddenRows};
  close.send_at(sim::Duration{}, 1, 2);
  close.send_at(kThird - sim::Duration::ns(1), 3, 2);
  EXPECT_EQ(close.run(2).collisions, 2u);
  EXPECT_EQ(close.world.stats(4).collisions, 0u);
}

TEST(MeshCollision, ReceiversOwnOverlappingTransmissionCollides) {
  AirWorld w{kHiddenRows};
  w.send_at(sim::Duration{}, 1, 2);
  w.send_at(sim::Duration::us(200), 2, 3);
  // Half-duplex: 2 misses 1's event and 1 misses 2's.
  EXPECT_EQ(w.run(2).collisions, 1u);
  EXPECT_EQ(w.world.stats(1).collisions, 1u);
  // Neither transmitter reaches the other's second receiver.
  EXPECT_EQ(w.world.stats(4).collisions, 0u);
  EXPECT_EQ(w.world.stats(4).rx_pdus, 1u);
  EXPECT_EQ(w.world.stats(3).collisions, 0u);
  EXPECT_EQ(w.world.stats(3).sdu_rx, 1u);
}

// --- Message cache ----------------------------------------------------------

/// The cache as it was before the flat table: set lookup over a FIFO deque.
struct ReferenceCache {
  std::uint32_t capacity;
  std::set<std::uint64_t> keys;
  std::deque<std::uint64_t> fifo;
  std::vector<std::uint64_t> evicted;

  bool check_insert(std::uint64_t key) {
    if (keys.contains(key)) return true;
    keys.insert(key);
    fifo.push_back(key);
    if (fifo.size() > capacity) {
      evicted.push_back(fifo.front());
      keys.erase(fifo.front());
      fifo.pop_front();
    }
    return false;
  }
};

std::uint64_t key_of(NodeId src, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(src) << 32) | seq;
}

/// SRC+SEQ keys that share one home slot in every table of up to 256 slots,
/// so they all probe one chain.
std::vector<std::uint64_t> one_chain_keys(std::size_t count) {
  std::map<std::size_t, std::vector<std::uint64_t>> by_home;
  for (std::uint32_t seq = 0;; ++seq) {
    for (NodeId src = 1; src <= 4; ++src) {
      auto& keys = by_home[MessageCache::home(key_of(src, seq), 8)];
      keys.push_back(key_of(src, seq));
      if (keys.size() == count) return keys;
    }
  }
}

TEST(MessageCache, MatchesSetAndDequeReference) {
  const std::vector<std::uint64_t> chain = one_chain_keys(24);
  for (const std::uint32_t capacity : {4u, 5u, 128u}) {
    SCOPED_TRACE(capacity);
    MessageCache cache{capacity};
    ReferenceCache ref{capacity, {}, {}, {}};
    std::mt19937_64 rng{capacity};
    std::vector<std::uint64_t> universe = chain;
    for (NodeId src = 1; src <= 6; ++src) {
      for (std::uint32_t seq = 0; seq < 64; ++seq) universe.push_back(key_of(src, seq));
    }
    for (int op = 0; op < 40000; ++op) {
      std::uint64_t key = 0;
      switch (rng() % 4) {
        case 0: key = chain[rng() % chain.size()]; break;
        case 1: key = universe[rng() % universe.size()]; break;
        case 2:  // a recent key: a repeat, or a re-insertion after eviction
          if (!ref.evicted.empty() && rng() % 2 == 0) {
            key = ref.evicted[ref.evicted.size() - 1 - rng() % std::min<std::size_t>(
                                                             ref.evicted.size(), 8)];
          } else {
            key = ref.fifo.empty() ? chain[0] : ref.fifo[rng() % ref.fifo.size()];
          }
          break;
        default: key = rng(); break;  // any 64-bit value is a legal key
      }
      ASSERT_EQ(cache.check_insert(key), ref.check_insert(key)) << "op " << op;
      ASSERT_EQ(cache.size(), ref.fifo.size());
      // Every held key stays findable after each eviction's deletion.
      for (const std::uint64_t k : ref.fifo) ASSERT_TRUE(cache.contains(k)) << "op " << op;
      if (op % 97 == 0) {
        for (const std::uint64_t k : universe) {
          ASSERT_EQ(cache.contains(k), ref.keys.contains(k)) << "op " << op;
        }
      }
    }
    EXPECT_FALSE(ref.evicted.empty());
  }
}

}  // namespace
}  // namespace mgap::mesh
