// Arena allocator tests: bump/heap mechanics, reverse-order finalization,
// deterministic exhaustion, reset-reuse — and the experiment-level A/B
// contract that arena-pooled per-node state produces bit-identical
// simulation results to the heap path (same seed, same world, same numbers).

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "helpers/oracle.hpp"
#include "sim/arena.hpp"
#include "testbed/config_file.hpp"
#include "testbed/experiment.hpp"
#include "topo/spec.hpp"

namespace mgap {
namespace {

struct DtorProbe {
  std::vector<int>* order;
  int id;
  ~DtorProbe() { order->push_back(id); }
};

TEST(Arena, DestroysInReverseAllocationOrder) {
  std::vector<int> order;
  {
    sim::Arena arena;
    for (int i = 0; i < 4; ++i) arena.make<DtorProbe>(&order, i);
    EXPECT_EQ(arena.objects(), 4u);
    EXPECT_TRUE(order.empty());  // nothing dies before the arena
  }
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(Arena, HeapModeKeepsTheSameSemantics) {
  std::vector<int> order;
  sim::Arena arena{sim::Arena::Mode::kHeap};
  for (int i = 0; i < 3; ++i) arena.make<DtorProbe>(&order, i);
  EXPECT_EQ(arena.objects(), 3u);
  EXPECT_EQ(arena.bytes_used(), 0u);  // no bump chunks in heap mode
  EXPECT_EQ(arena.chunk_count(), 0u);
  arena.reset();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
  // Reusable after reset.
  arena.make<DtorProbe>(&order, 9);
  EXPECT_EQ(arena.objects(), 1u);
}

struct alignas(64) LineProbe {
  std::array<std::byte, 80> bytes{};
};
struct alignas(64) LineDtorProbe {
  std::vector<int>* order;
  int id;
  ~LineDtorProbe() { order->push_back(id); }
};

TEST(Arena, OverAlignedObjectsAreAlignedInBothModes) {
  for (const auto mode : {sim::Arena::Mode::kBump, sim::Arena::Mode::kHeap}) {
    std::vector<int> order;
    {
      sim::Arena arena{mode};
      for (int i = 0; i < 16; ++i) {
        arena.make<char>('x');  // knock the next address off the line boundary
        const auto* line = arena.make<LineProbe>();
        const auto* dtor = arena.make<LineDtorProbe>(&order, i);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(line) % 64, 0u) << i;
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(dtor) % 64, 0u) << i;
      }
    }
    EXPECT_EQ(order.size(), 16u);
    EXPECT_EQ(order.front(), 15);
  }
}

TEST(Arena, BumpAllocationIsContiguousWithinAChunk) {
  sim::Arena arena;
  auto* a = arena.make<std::uint64_t>(1u);
  auto* b = arena.make<std::uint64_t>(2u);
  // Creation-order locality: the second object sits right after the first.
  EXPECT_EQ(reinterpret_cast<std::byte*>(b),
            reinterpret_cast<std::byte*>(a) + sizeof(std::uint64_t));
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_GE(arena.bytes_used(), 2 * sizeof(std::uint64_t));
}

TEST(Arena, ExhaustionThrowsBadAllocDeterministically) {
  // 1 KiB chunks capped at 2 KiB total: the third chunk request must throw,
  // and the arena must stay usable (strong guarantee on the failed make).
  using Block = std::array<std::byte, 512>;
  sim::Arena arena{sim::Arena::Mode::kBump, 1024, 2048};
  std::size_t made = 0;
  try {
    for (;;) {
      arena.make<Block>();
      ++made;
    }
  } catch (const std::bad_alloc&) {
  }
  EXPECT_EQ(made, 4u);  // 2 chunks x 2 objects each
  EXPECT_EQ(arena.bytes_reserved(), 2048u);
  EXPECT_EQ(arena.objects(), 4u);
}

TEST(Arena, ResetReleasesAndReuses) {
  using Block = std::array<std::byte, 512>;
  sim::Arena arena{sim::Arena::Mode::kBump, 1024, 2048};
  for (int i = 0; i < 4; ++i) arena.make<Block>();
  EXPECT_THROW(arena.make<Block>(), std::bad_alloc);
  arena.reset();
  EXPECT_EQ(arena.objects(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  // The budget is whole again: the same sequence fits again.
  for (int i = 0; i < 4; ++i) arena.make<Block>();
  EXPECT_EQ(arena.objects(), 4u);
}

TEST(Arena, OversizedObjectGetsItsOwnChunk) {
  sim::Arena arena{sim::Arena::Mode::kBump, 64};
  using BigBlock = std::array<std::byte, 4096>;
  auto* big = arena.make<BigBlock>();
  EXPECT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 4096u);
}

// --- experiment-level A/B --------------------------------------------------

testbed::ExperimentConfig small_world(bool arena) {
  testbed::ExperimentConfig cfg;
  cfg.topo.generator = topo::Generator::kRgg;
  cfg.topo.nodes = 40;
  cfg.topo.density = 8.0;
  cfg.topo.range = 10.0;
  cfg.duration = sim::Duration::sec(30);
  cfg.producer_interval = sim::Duration::sec(5);
  cfg.producer_jitter = sim::Duration::sec(1);
  cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65),
                                                sim::Duration::ms(85));
  cfg.seed = 11;
  cfg.arena = arena;
  return cfg;
}

TEST(ArenaExperiment, BumpAndHeapModesAreBitIdentical) {
  // Every deterministic output — full summary, counter map, campaign JSON and
  // .mgt bytes: if any RNG stream or event ordering depended on allocation
  // layout, these diverge.
  testhelpers::OracleOptions opts;
  opts.compare_campaign_json = true;
  opts.compare_mgt_trace = true;
  const testhelpers::OracleResult r =
      testhelpers::run_differential(small_world(true), small_world(false), opts);
  EXPECT_TRUE(r.ok) << r.divergence;
  EXPECT_GT(r.a.sent, 0u);

  // And the arena actually carried the per-node state in bump mode, including
  // what the run itself allocates (connections, link stats).
  testbed::Experiment with{small_world(true)};
  with.run();
  testbed::Experiment without{small_world(false)};
  without.run();
  EXPECT_GT(with.ble_world()->arena().objects(), 0u);
  EXPECT_GT(with.ble_world()->arena().bytes_used(), 0u);
  EXPECT_EQ(without.ble_world()->arena().bytes_used(), 0u);
}

TEST(ArenaExperiment, ConfigKeyRoundTrips) {
  const testbed::ExperimentConfig cfg =
      testbed::parse_experiment_config("arena = false\nduration = 1s\n");
  EXPECT_FALSE(cfg.arena);
  const std::string rendered = testbed::render_experiment_config(cfg);
  EXPECT_NE(rendered.find("arena = false"), std::string::npos);
  EXPECT_TRUE(testbed::parse_experiment_config(rendered + "arena = true\n").arena);
}

}  // namespace
}  // namespace mgap
