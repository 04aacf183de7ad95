#pragma once
// BLE data-channel selection: channel maps plus the two channel selection
// algorithms defined by the Core spec (Vol 6 Part B 4.5.8). The paper's setup
// excludes the externally jammed channel 22 through the channel map on all
// nodes (section 4.2); everything else hops across the remaining 36 channels.

#include <cstdint>
#include <vector>

#include "ble/ll_types.hpp"
#include "phy/ble_phy.hpp"

namespace mgap::ble {

/// The set of data channels a connection may use (>= 2 channels required).
class ChannelMap {
 public:
  /// All 37 data channels enabled.
  [[nodiscard]] static ChannelMap all() { return ChannelMap{(1ULL << 37) - 1}; }

  void exclude(std::uint8_t channel);
  void include(std::uint8_t channel);
  [[nodiscard]] bool is_used(std::uint8_t channel) const;
  [[nodiscard]] unsigned used_count() const;
  /// Used channels in ascending order (the spec's remapping table).
  [[nodiscard]] std::vector<std::uint8_t> used_channels() const;
  /// used_channels()[k] without building the table; k < used_count().
  [[nodiscard]] std::uint8_t nth_used(unsigned k) const;
  [[nodiscard]] std::uint64_t bits() const { return bits_; }

  friend bool operator==(const ChannelMap&, const ChannelMap&) = default;

 private:
  explicit ChannelMap(std::uint64_t bits) : bits_{bits} {}
  std::uint64_t bits_{(1ULL << 37) - 1};

 public:
  ChannelMap() = default;
};

/// Channel Selection Algorithm #1: increment-and-remap.
class Csa1 {
 public:
  /// hop must be in [5, 16] per spec.
  explicit Csa1(std::uint8_t hop_increment);

  /// Advances to and returns the channel for the next connection event.
  std::uint8_t next(const ChannelMap& map);

  [[nodiscard]] std::uint8_t hop_increment() const { return hop_; }

 private:
  std::uint8_t hop_;
  std::uint8_t last_unmapped_{0};
};

/// Channel Selection Algorithm #2: the PRNG-based selection of Bluetooth 5.
class Csa2 {
 public:
  explicit Csa2(std::uint32_t access_address);

  /// Channel for connection event `event_counter` (stateless per event).
  [[nodiscard]] std::uint8_t channel(std::uint16_t event_counter,
                                     const ChannelMap& map) const;

  [[nodiscard]] std::uint16_t channel_identifier() const { return channel_id_; }

 private:
  std::uint16_t channel_id_;
};

/// Unified per-connection selector.
class ChannelSelection {
 public:
  ChannelSelection(Csa csa, std::uint32_t access_address, std::uint8_t hop_increment);

  std::uint8_t channel_for_event(std::uint16_t event_counter, const ChannelMap& map);

 private:
  Csa algo_;
  Csa1 csa1_;
  Csa2 csa2_;
};

}  // namespace mgap::ble
