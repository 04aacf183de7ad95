#pragma once
// BLE link-layer vocabulary types shared across the ble subsystem.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "phy/ble_phy.hpp"
#include "sim/ids.hpp"
#include "sim/time.hpp"

namespace mgap::ble {

/// Identity of one BLE connection instance. Reconnecting a dropped link
/// creates a new ConnId; per-link aggregation happens in LinkStats.
using ConnId = std::uint64_t;

/// Connection roles. The terms follow the paper's non-discriminatory naming
/// (footnote 1): the coordinator dictates timing, the subordinate follows.
enum class Role : std::uint8_t { kCoordinator, kSubordinate };

[[nodiscard]] constexpr Role other(Role r) {
  return r == Role::kCoordinator ? Role::kSubordinate : Role::kCoordinator;
}

/// Channel selection algorithms defined by the Core spec (section 2.2).
enum class Csa : std::uint8_t { kCsa1, kCsa2 };

enum class DisconnectReason : std::uint8_t {
  kSupervisionTimeout,  // the shading-induced loss analysed in section 6
  kLocalClose,          // host-initiated (e.g. statconn rejecting an interval)
  kPeerClose,
};

/// Connection parameters fixed by the coordinator at connect time and
/// updatable through LL control procedures (section 2.2).
struct ConnParams {
  sim::Duration interval{sim::Duration::ms(75)};
  unsigned subordinate_latency{0};
  sim::Duration supervision_timeout{sim::Duration::sec(2)};
  Csa csa{Csa::kCsa2};
  /// The paper uses LE 1M exclusively (nrf52dk limitation, section 4.2);
  /// LE 2M is available as an extension (PHY update procedure not modelled —
  /// the mode is fixed at connect time).
  phy::PhyMode phy{phy::PhyMode::k1M};
};

/// One link-layer data PDU queued for transfer (carries an L2CAP K-frame).
struct LlPdu {
  std::vector<std::uint8_t> payload;
  sim::TimePoint enqueued;
  [[nodiscard]] std::size_t air_payload() const { return payload.size(); }
};

/// Per-link (node-pair) statistics aggregated across reconnects. This is the
/// data behind Figures 12, 13(b), 14 and 15 (link-layer PDR, per-channel PDR,
/// connection losses).
struct LinkStats {
  NodeId coordinator{kInvalidNode};
  NodeId subordinate{kInvalidNode};

  std::uint64_t events_ok{0};        // connection events with a completed exchange
  std::uint64_t events_missed{0};    // skipped: radio conflict on either side
  std::uint64_t events_aborted{0};   // closed early by a CRC error
  std::uint64_t pdu_tx{0};           // data PDU transmission attempts
  std::uint64_t pdu_ok{0};           // data PDUs delivered (first try or retry)
  std::uint64_t pdu_retrans{0};      // retransmissions (lost PDU or lost ack)
  std::uint64_t conn_losses{0};      // supervision timeouts
  std::uint64_t reconnects{0};

  // Per-data-channel attempt/success counts (Figure 12 lower heatmap).
  std::array<std::uint64_t, 37> chan_tx{};
  std::array<std::uint64_t, 37> chan_ok{};

  /// Link-layer PDR: delivered / attempted transmissions (counts
  /// retransmissions as additional attempts).
  [[nodiscard]] double ll_pdr() const {
    return pdu_tx == 0 ? 1.0 : static_cast<double>(pdu_ok) / static_cast<double>(pdu_tx);
  }
  [[nodiscard]] double event_pdr() const {
    const std::uint64_t total = events_ok + events_missed;
    return total == 0 ? 1.0 : static_cast<double>(events_ok) / static_cast<double>(total);
  }
};
// Every connection event bumps one of the three event counters. Connection
// names LinkStats from its start through events_aborted in its prefetch
// hint, so the other two come before it, all within the first 64 bytes.
static_assert(offsetof(LinkStats, events_ok) < offsetof(LinkStats, events_aborted));
static_assert(offsetof(LinkStats, events_missed) < offsetof(LinkStats, events_aborted));
static_assert(offsetof(LinkStats, events_aborted) + sizeof(std::uint64_t) <= 64);

}  // namespace mgap::ble
