#pragma once
// Network message cache of one mesh node: the last `capacity` SRC+SEQ keys it
// has seen, evicted oldest first.
//
// A FIFO ring holds the keys; an open-addressing table (linear probing,
// backward-shift deletion) holds *ring indices*, so every key value is legal —
// node ids are chosen by the caller, and no key is reserved as an empty
// marker. Storage grows with the keys actually held (the table stays at most
// half full); nothing is preallocated for `capacity`, which may be up to
// 65,536 per node.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mgap::mesh {

class MessageCache {
 public:
  explicit MessageCache(std::uint32_t capacity = 0) : capacity_{capacity} {}

  /// True when `key` is held. Otherwise inserts it, evicting the oldest key
  /// when the cache is full, and returns false.
  bool check_insert(std::uint64_t key);
  [[nodiscard]] bool contains(std::uint64_t key) const;
  [[nodiscard]] std::size_t size() const { return ring_.size(); }

  /// The slot `key` probes first in a table of 2^bits slots (Fibonacci
  /// hashing: the top bits of one multiply). Keys that share their first
  /// `bits` bits here share a home slot at every table size up to 2^bits.
  [[nodiscard]] static std::size_t home(std::uint64_t key, unsigned bits) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - bits));
  }

 private:
  static constexpr std::uint32_t kFree = 0xFFFFFFFFu;

  /// The slot holding `key`, else the free slot that ends its probe chain.
  [[nodiscard]] std::size_t find(std::uint64_t key) const;
  void erase_slot(std::size_t slot);
  void grow();

  std::uint32_t capacity_;
  std::uint32_t oldest_{0};  // ring index evicted next, once the ring is full
  unsigned bits_{0};
  std::vector<std::uint64_t> ring_;
  std::vector<std::uint32_t> slots_;  // ring indices; kFree marks a free slot
};

}  // namespace mgap::mesh
