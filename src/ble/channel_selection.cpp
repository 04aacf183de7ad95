#include "ble/channel_selection.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace mgap::ble {

void ChannelMap::exclude(std::uint8_t channel) {
  if (channel >= phy::kNumDataChannels) throw std::out_of_range{"ChannelMap::exclude"};
  bits_ &= ~(1ULL << channel);
  if (used_count() < 2) throw std::invalid_argument{"ChannelMap: fewer than 2 channels"};
}

void ChannelMap::include(std::uint8_t channel) {
  if (channel >= phy::kNumDataChannels) throw std::out_of_range{"ChannelMap::include"};
  bits_ |= 1ULL << channel;
}

bool ChannelMap::is_used(std::uint8_t channel) const {
  return channel < phy::kNumDataChannels && (bits_ >> channel) & 1ULL;
}

unsigned ChannelMap::used_count() const {
  return static_cast<unsigned>(std::popcount(bits_));
}

std::vector<std::uint8_t> ChannelMap::used_channels() const {
  std::vector<std::uint8_t> out;
  out.reserve(used_count());
  for (std::uint8_t ch = 0; ch < phy::kNumDataChannels; ++ch) {
    if (is_used(ch)) out.push_back(ch);
  }
  return out;
}

std::uint8_t ChannelMap::nth_used(unsigned k) const {
  assert(k < used_count());
  std::uint64_t bits = bits_;
  for (unsigned i = 0; i < k; ++i) bits &= bits - 1;  // drop the lowest set bit
  return static_cast<std::uint8_t>(std::countr_zero(bits));
}

Csa1::Csa1(std::uint8_t hop_increment) : hop_{hop_increment} {
  if (hop_ < 5 || hop_ > 16) throw std::invalid_argument{"CSA#1 hop must be in [5,16]"};
}

std::uint8_t Csa1::next(const ChannelMap& map) {
  last_unmapped_ = static_cast<std::uint8_t>((last_unmapped_ + hop_) % 37);
  if (map.is_used(last_unmapped_)) return last_unmapped_;
  // Remap: index into the table of used channels.
  return map.nth_used(last_unmapped_ % map.used_count());
}

namespace {

// Core spec Vol 6 Part B 4.5.8.3.3: bit-reversal of each of the two bytes.
std::uint16_t perm(std::uint16_t v) {
  auto rev8 = [](std::uint8_t b) {
    b = static_cast<std::uint8_t>((b & 0xF0U) >> 4 | (b & 0x0FU) << 4);
    b = static_cast<std::uint8_t>((b & 0xCCU) >> 2 | (b & 0x33U) << 2);
    b = static_cast<std::uint8_t>((b & 0xAAU) >> 1 | (b & 0x55U) << 1);
    return b;
  };
  return static_cast<std::uint16_t>(rev8(static_cast<std::uint8_t>(v >> 8)) << 8 |
                                    rev8(static_cast<std::uint8_t>(v & 0xFFU)));
}

// Multiply-add-modulo step.
std::uint16_t mam(std::uint16_t a, std::uint16_t b) {
  return static_cast<std::uint16_t>((static_cast<std::uint32_t>(a) * 17U + b) & 0xFFFFU);
}

}  // namespace

Csa2::Csa2(std::uint32_t access_address)
    : channel_id_{static_cast<std::uint16_t>(((access_address >> 16) ^ (access_address & 0xFFFFU)) &
                                             0xFFFFU)} {}

std::uint8_t Csa2::channel(std::uint16_t event_counter, const ChannelMap& map) const {
  // prn_e generation (three rounds of perm + mam, then a final xor).
  std::uint16_t prn = static_cast<std::uint16_t>(event_counter ^ channel_id_);
  for (int round = 0; round < 3; ++round) {
    prn = perm(prn);
    prn = mam(prn, channel_id_);
  }
  const std::uint16_t prn_e = static_cast<std::uint16_t>(prn ^ channel_id_);

  const auto unmapped = static_cast<std::uint8_t>(prn_e % 37);
  if (map.is_used(unmapped)) return unmapped;

  return map.nth_used((map.used_count() * prn_e) >> 16);
}

ChannelSelection::ChannelSelection(Csa csa, std::uint32_t access_address,
                                   std::uint8_t hop_increment)
    : algo_{csa}, csa1_{hop_increment}, csa2_{access_address} {}

std::uint8_t ChannelSelection::channel_for_event(std::uint16_t event_counter,
                                                 const ChannelMap& map) {
  if (algo_ == Csa::kCsa1) return csa1_.next(map);
  return csa2_.channel(event_counter, map);
}

}  // namespace mgap::ble
