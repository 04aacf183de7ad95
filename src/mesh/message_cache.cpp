#include "mesh/message_cache.hpp"

namespace mgap::mesh {

namespace {

constexpr unsigned kMinBits = 3;

}  // namespace

bool MessageCache::check_insert(std::uint64_t key) {
  if (capacity_ == 0) return false;
  if (slots_.empty()) grow();
  std::size_t slot = find(key);
  if (slots_[slot] != kFree) return true;
  if (ring_.size() < capacity_) {
    if ((ring_.size() + 1) * 2 > slots_.size()) {
      grow();
      slot = find(key);
    }
    slots_[slot] = static_cast<std::uint32_t>(ring_.size());
    ring_.push_back(key);
    return false;
  }
  // Full: the oldest key leaves and the new one takes its ring index. The
  // deletion may shift entries, so the new key's slot is found afterwards.
  erase_slot(find(ring_[oldest_]));
  ring_[oldest_] = key;
  slots_[find(key)] = oldest_;
  oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
  return false;
}

bool MessageCache::contains(std::uint64_t key) const {
  return !slots_.empty() && slots_[find(key)] != kFree;
}

std::size_t MessageCache::find(std::uint64_t key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(key, bits_);
  while (slots_[i] != kFree && ring_[slots_[i]] != key) i = (i + 1) & mask;
  return i;
}

void MessageCache::erase_slot(std::size_t slot) {
  // Backward shift: walk the chain after the hole and move back every entry
  // whose home does not lie between the hole and its slot, so no lookup ever
  // stops early at the hole.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t j = (slot + 1) & mask; slots_[j] != kFree; j = (j + 1) & mask) {
    const std::size_t h = home(ring_[slots_[j]], bits_);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kFree;
}

void MessageCache::grow() {
  // Only a ring that is still filling grows, so ring index i holds the i-th
  // key inserted and the rehash order does not matter.
  bits_ = bits_ == 0 ? kMinBits : bits_ + 1;
  slots_.assign(std::size_t{1} << bits_, kFree);
  for (std::uint32_t i = 0; i < ring_.size(); ++i) slots_[find(ring_[i])] = i;
}

}  // namespace mgap::mesh
