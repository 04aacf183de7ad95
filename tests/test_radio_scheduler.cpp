// Unit tests: per-node radio claim arbitration — the mechanism behind
// connection shading (first-come claims, denial on overlap).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ble/radio_scheduler.hpp"
#include "sim/rng.hpp"

namespace mgap::ble {
namespace {

sim::TimePoint tp(std::int64_t us) { return sim::TimePoint::from_ns(us * 1000); }

TEST(RadioScheduler, GrantsNonOverlapping) {
  RadioScheduler s;
  EXPECT_TRUE(s.try_claim(tp(0), tp(100), 1));
  EXPECT_TRUE(s.try_claim(tp(100), tp(200), 2));  // adjacent is fine
  EXPECT_TRUE(s.try_claim(tp(500), tp(600), 3));
  EXPECT_EQ(s.granted(), 3u);
  EXPECT_EQ(s.denied(), 0u);
}

TEST(RadioScheduler, DeniesOverlap) {
  RadioScheduler s;
  EXPECT_TRUE(s.try_claim(tp(100), tp(200), 1));
  EXPECT_FALSE(s.try_claim(tp(150), tp(250), 2));  // overlaps tail
  EXPECT_FALSE(s.try_claim(tp(50), tp(150), 2));   // overlaps head
  EXPECT_FALSE(s.try_claim(tp(120), tp(180), 2));  // contained
  EXPECT_FALSE(s.try_claim(tp(0), tp(300), 2));    // containing
  EXPECT_EQ(s.denied(), 4u);
}

TEST(RadioScheduler, FirstComeWins) {
  // The essence of shading: whoever claims first keeps the slot; the later
  // claimer starves (section 6.1 choice (i)).
  RadioScheduler s;
  EXPECT_TRUE(s.try_claim(tp(100), tp(200), 7));
  EXPECT_FALSE(s.try_claim(tp(100), tp(200), 8));
  s.release(7);
  EXPECT_TRUE(s.try_claim(tp(100), tp(200), 8));
}

TEST(RadioScheduler, ReleaseRemovesAllClaimsOfOwner) {
  RadioScheduler s;
  EXPECT_TRUE(s.try_claim(tp(0), tp(10), 1));
  EXPECT_TRUE(s.try_claim(tp(20), tp(30), 1));
  EXPECT_TRUE(s.try_claim(tp(40), tp(50), 2));
  s.release(1);
  EXPECT_EQ(s.active_claims(), 1u);
  EXPECT_TRUE(s.try_claim(tp(0), tp(30), 3));
}

TEST(RadioScheduler, NextStartAfterSkipsExcludedOwner) {
  RadioScheduler s;
  ASSERT_TRUE(s.try_claim(tp(100), tp(110), 1));
  ASSERT_TRUE(s.try_claim(tp(200), tp(210), 2));
  ASSERT_TRUE(s.try_claim(tp(300), tp(310), 3));
  EXPECT_EQ(s.next_start_after(tp(0), 1), tp(200));
  EXPECT_EQ(s.next_start_after(tp(0), 99), tp(100));
  EXPECT_EQ(s.next_start_after(tp(250), 99), tp(300));
  EXPECT_EQ(s.next_start_after(tp(400), 99), RadioScheduler::never());
}

TEST(RadioScheduler, HoldsChecksOwnerAndInstant) {
  RadioScheduler s;
  ASSERT_TRUE(s.try_claim(tp(100), tp(200), 5));
  EXPECT_TRUE(s.holds(5, tp(100)));
  EXPECT_TRUE(s.holds(5, tp(199)));
  EXPECT_FALSE(s.holds(5, tp(200)));  // end-exclusive
  EXPECT_FALSE(s.holds(6, tp(150)));
}

TEST(RadioScheduler, IsFreeIgnoresOwnClaims) {
  RadioScheduler s;
  ASSERT_TRUE(s.try_claim(tp(100), tp(200), 5));
  EXPECT_TRUE(s.is_free(tp(100), tp(200), 5));
  EXPECT_FALSE(s.is_free(tp(100), tp(200), 6));
  EXPECT_TRUE(s.is_free(tp(300), tp(400), 6));
}

TEST(RadioScheduler, PruneDropsExpiredClaims) {
  RadioScheduler s;
  ASSERT_TRUE(s.try_claim(tp(0), tp(10), 1));
  ASSERT_TRUE(s.try_claim(tp(20), tp(30), 2));
  s.prune_before(tp(15));
  EXPECT_EQ(s.active_claims(), 1u);
  EXPECT_TRUE(s.try_claim(tp(0), tp(10), 3));
}

/// The scheduler as one sorted std::vector: the semantics the inline-claim
/// storage must keep exactly (first-come grants, upper-bound insertion).
class ReferenceScheduler {
 public:
  bool try_claim(sim::TimePoint start, sim::TimePoint end, std::uint64_t owner) {
    for (const Claim& c : claims_) {
      if (start < c.end && c.start < end) return false;
    }
    auto pos = std::upper_bound(claims_.begin(), claims_.end(), start,
                                [](sim::TimePoint t, const Claim& c) { return t < c.start; });
    claims_.insert(pos, Claim{start, end, owner});
    return true;
  }
  void release(std::uint64_t owner) {
    std::erase_if(claims_, [owner](const Claim& c) { return c.owner == owner; });
  }
  void prune_before(sim::TimePoint t) {
    std::erase_if(claims_, [t](const Claim& c) { return c.end < t; });
  }
  [[nodiscard]] bool holds(std::uint64_t owner, sim::TimePoint at) const {
    return std::any_of(claims_.begin(), claims_.end(), [owner, at](const Claim& c) {
      return c.owner == owner && c.start <= at && at < c.end;
    });
  }
  [[nodiscard]] sim::TimePoint next_start_after(sim::TimePoint t, std::uint64_t exclude) const {
    for (const Claim& c : claims_) {
      if (c.start > t && c.owner != exclude) return c.start;
    }
    return RadioScheduler::never();
  }
  [[nodiscard]] bool is_free(sim::TimePoint start, sim::TimePoint end,
                             std::uint64_t owner) const {
    return std::none_of(claims_.begin(), claims_.end(), [&](const Claim& c) {
      return c.owner != owner && start < c.end && c.start < end;
    });
  }
  [[nodiscard]] std::size_t size() const { return claims_.size(); }

 private:
  struct Claim {
    sim::TimePoint start;
    sim::TimePoint end;
    std::uint64_t owner;
  };
  std::vector<Claim> claims_;
};

TEST(RadioScheduler, MatchesSortedVectorReference) {
  // Random operation sequences over 20 owners. Phases alternate between
  // growing (mostly claims) and draining (mostly releases), so the table
  // spills past the inline slots and, once empty, returns to them many times.
  sim::Rng rng{1406, 0};
  RadioScheduler s;
  ReferenceScheduler ref;
  std::uint64_t granted = 0;
  std::uint64_t denied = 0;
  bool spilled = false;
  int spills = 0;
  int returns = 0;
  const auto rand_tp = [&] { return tp(static_cast<std::int64_t>(rng.next_u64() % 3000)); };
  const auto rand_owner = [&] { return 1 + rng.next_u64() % 20; };
  for (int step = 0; step < 40'000; ++step) {
    const bool growing = (step / 500) % 2 == 0;
    const std::uint64_t roll = rng.next_u64() % 100;
    if (roll < (growing ? 70u : 10u)) {
      const sim::TimePoint start = rand_tp();
      const sim::TimePoint end = start + sim::Duration::us(static_cast<std::int64_t>(1 + rng.next_u64() % 80));
      const std::uint64_t owner = rand_owner();
      const bool want = ref.try_claim(start, end, owner);
      ASSERT_EQ(s.try_claim(start, end, owner), want) << "step " << step;
      (want ? granted : denied) += 1;
    } else if (roll < (growing ? 80u : 50u)) {
      const std::uint64_t owner = rand_owner();
      ref.release(owner);
      s.release(owner);
    } else if (roll < (growing ? 82u : 60u)) {
      const sim::TimePoint t = tp(static_cast<std::int64_t>(rng.next_u64() % 600));
      ref.prune_before(t);
      s.prune_before(t);
    } else {
      const sim::TimePoint a = rand_tp();
      const sim::TimePoint b = a + sim::Duration::us(static_cast<std::int64_t>(1 + rng.next_u64() % 80));
      const std::uint64_t owner = rand_owner();
      ASSERT_EQ(s.next_start_after(a, owner), ref.next_start_after(a, owner)) << step;
      ASSERT_EQ(s.is_free(a, b, owner), ref.is_free(a, b, owner)) << step;
      ASSERT_EQ(s.holds(owner, a), ref.holds(owner, a)) << step;
    }
    ASSERT_EQ(s.active_claims(), ref.size()) << "step " << step;
    if (!spilled && ref.size() > 8) {
      spilled = true;
      ++spills;
    }
    if (spilled && ref.size() == 0) {
      spilled = false;
      ++returns;
    }
  }
  EXPECT_EQ(s.granted(), granted);
  EXPECT_EQ(s.denied(), denied);
  EXPECT_GT(spills, 10);
  EXPECT_GT(returns, 10);
}

TEST(RadioScheduler, ZeroLengthForbidden) {
  RadioScheduler s;
#ifndef NDEBUG
  EXPECT_DEATH((void)s.try_claim(tp(10), tp(10), 1), "");
#else
  GTEST_SKIP() << "assertions disabled";
#endif
}

}  // namespace
}  // namespace mgap::ble
