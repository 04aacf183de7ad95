#include "ble/radio_scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "obs/recorder.hpp"

namespace mgap::ble {

void RadioScheduler::record_claim(sim::TimePoint start, sim::TimePoint end,
                                  std::uint64_t owner, bool granted) const {
  obs::Event e;
  e.at = start;
  e.type = obs::EventType::kRadioClaim;
  e.flags = granted ? obs::kClaimGranted : 0;
  e.node = node_;
  e.id = owner;
  e.a = static_cast<std::uint32_t>((end - start).count_ns());
  recorder_->record(e);
}

void RadioScheduler::insert_at(std::size_t pos, const Claim& claim) {
  if (inline_count_ < kInlineClaims) {
    for (std::size_t i = inline_count_; i > pos; --i) inline_[i] = inline_[i - 1];
    inline_[pos] = claim;
    ++inline_count_;
    return;
  }
  if (inline_count_ == kInlineClaims) {
    spill_.assign(inline_.begin(), inline_.end());
    inline_count_ = kSpilled;
  }
  spill_.insert(spill_.begin() + static_cast<std::ptrdiff_t>(pos), claim);
}

template <class Pred>
void RadioScheduler::erase_claims_if(Pred pred) {
  if (inline_count_ == kSpilled) {
    std::erase_if(spill_, pred);
    if (spill_.empty()) inline_count_ = 0;
    return;
  }
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < inline_count_; ++i) {
    if (!pred(inline_[i])) inline_[kept++] = inline_[i];
  }
  inline_count_ = kept;
}

bool RadioScheduler::try_claim(sim::TimePoint start, sim::TimePoint end, std::uint64_t owner) {
  assert(start < end);
  const bool want_event =
      recorder_ != nullptr && recorder_->wants(obs::EventType::kRadioClaim);
  const std::span<const Claim> cs = claims();
  std::size_t pos = cs.size();  // upper bound of `start` among the sorted starts
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const Claim& c = cs[i];
    if (start < c.end && c.start < end) {
      ++denied_;
      if (want_event) record_claim(start, end, owner, false);
      return false;
    }
    if (pos == cs.size() && start < c.start) pos = i;
  }
  insert_at(pos, Claim{start, end, owner});
  ++granted_;
  if (want_event) record_claim(start, end, owner, true);
  return true;
}

void RadioScheduler::release(std::uint64_t owner) {
  erase_claims_if([owner](const Claim& c) { return c.owner == owner; });
}

void RadioScheduler::prune_before(sim::TimePoint t) {
  erase_claims_if([t](const Claim& c) { return c.end < t; });
}

bool RadioScheduler::holds(std::uint64_t owner, sim::TimePoint at) const {
  const std::span<const Claim> cs = claims();
  return std::any_of(cs.begin(), cs.end(), [owner, at](const Claim& c) {
    return c.owner == owner && c.start <= at && at < c.end;
  });
}

sim::TimePoint RadioScheduler::next_start_after(sim::TimePoint t,
                                                std::uint64_t exclude_owner) const {
  for (const Claim& c : claims()) {  // sorted by start
    if (c.start > t && c.owner != exclude_owner) return c.start;
  }
  return never();
}

bool RadioScheduler::is_free(sim::TimePoint start, sim::TimePoint end,
                             std::uint64_t owner) const {
  const std::span<const Claim> cs = claims();
  return std::none_of(cs.begin(), cs.end(), [&](const Claim& c) {
    return c.owner != owner && start < c.end && c.start < end;
  });
}

}  // namespace mgap::ble
