#pragma once
// Per-node radio arbitration.
//
// Every BLE activity (a connection event, an advertising event) must reserve
// the node's single radio for a time slot before it can run. Reservations are
// granted strictly first-come: a claim that overlaps an existing one is
// denied and the corresponding event is skipped. This mirrors NimBLE's link-
// layer scheduler and is the mechanism behind *connection shading*
// (section 6.1): two connections with equal intervals that drift into overlap
// starve the later claimer until its supervision timeout fires.

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/ids.hpp"
#include "sim/time.hpp"

namespace mgap::obs {
class Recorder;
}

namespace mgap::ble {

class RadioScheduler {
 public:
  /// Attaches the typed event recorder: every claim outcome is emitted as an
  /// obs kRadioClaim, timestamped at the *window start* — exactly what the
  /// offline shading analyzer needs. Null detaches.
  void set_recorder(obs::Recorder* recorder, NodeId node) {
    recorder_ = recorder;
    node_ = node;
  }

  /// Attempts to reserve [start, end) for `owner`. Returns false (and leaves
  /// the table unchanged) when the span overlaps any existing claim.
  bool try_claim(sim::TimePoint start, sim::TimePoint end, std::uint64_t owner);

  /// Releases all claims held by `owner`.
  void release(std::uint64_t owner);

  /// Drops claims that ended before `t` (consumed slots).
  void prune_before(sim::TimePoint t);

  /// True when `owner` holds a claim covering instant `at`.
  [[nodiscard]] bool holds(std::uint64_t owner, sim::TimePoint at) const;

  /// Start of the next claim beginning strictly after `t`, ignoring claims of
  /// `exclude_owner`; TimePoint::max-like sentinel when none.
  [[nodiscard]] sim::TimePoint next_start_after(sim::TimePoint t,
                                                std::uint64_t exclude_owner) const;

  /// True when [start, end) is free of claims from owners other than `owner`.
  [[nodiscard]] bool is_free(sim::TimePoint start, sim::TimePoint end,
                             std::uint64_t owner) const;

  [[nodiscard]] std::uint64_t granted() const { return granted_; }
  [[nodiscard]] std::uint64_t denied() const { return denied_; }
  [[nodiscard]] std::size_t active_claims() const { return claims().size(); }

  [[nodiscard]] static constexpr sim::TimePoint never() { return sim::TimePoint::never(); }

  /// One past the first kHotClaims inline claims. A claim or release scans
  /// the whole table, so a node holding at most that many claims (its open
  /// connections plus its GAP activity) reads the scheduler from its start
  /// through here; Controller::idle_span ends here.
  [[nodiscard]] const void* hot_claims_end() const { return inline_.data() + kHotClaims; }

 private:
  struct Claim {
    sim::TimePoint start;
    sim::TimePoint end;
    std::uint64_t owner;
  };
  /// A node holds one claim per open connection plus its GAP activity. In the
  /// 10k-node rgg10k_idle run (seed 7), 99.7% of the 18.8M claims found at
  /// most 7 others in the table and none found more than 9; the 27 nodes
  /// that ever spill make 1.2% of the claims.
  static constexpr std::uint32_t kInlineClaims = 8;
  /// The claims a connection event's prefetch hint covers: in the same run,
  /// 96% of the claims found at most 4 others in the table. Five claims end
  /// in the controller's fourth cache line; a hint through all 8 inline
  /// claims (5 lines) measured slower.
  static constexpr std::uint32_t kHotClaims = 5;
  static_assert(kHotClaims <= kInlineClaims);

  /// inline_count_ once the claims have moved to spill_.
  static constexpr std::uint32_t kSpilled = std::numeric_limits<std::uint32_t>::max();

  /// The active claims, sorted by start. They live in inline_ until a claim
  /// past kInlineClaims moves them all to spill_, and stay there until the
  /// table empties: a relay hovering at the boundary (release, then re-claim,
  /// every event) keeps using the vector instead of copying back and forth.
  [[nodiscard]] std::span<const Claim> claims() const {
    return inline_count_ == kSpilled ? std::span<const Claim>{spill_}
                                     : std::span<const Claim>{inline_.data(), inline_count_};
  }
  void insert_at(std::size_t pos, const Claim& claim);
  template <class Pred>
  void erase_claims_if(Pred pred);
  void record_claim(sim::TimePoint start, sim::TimePoint end, std::uint64_t owner,
                    bool granted) const;

  obs::Recorder* recorder_{nullptr};
  std::uint32_t inline_count_{0};  // claims in inline_, or kSpilled
  NodeId node_{kInvalidNode};
  std::uint64_t granted_{0};
  std::uint64_t denied_{0};
  std::array<Claim, kInlineClaims> inline_{};
  std::vector<Claim> spill_;  // empty unless inline_count_ == kSpilled
};

}  // namespace mgap::ble
