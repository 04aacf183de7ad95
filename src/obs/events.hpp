#pragma once
// Typed binary trace events — the observability subsystem's vocabulary.
//
// The hot paths (connection-event engine, radio scheduler, IP stack, CoAP
// client, fault injector) emit these fixed-layout records instead of building
// strings; a Recorder streams them into the compact `.mgt` on-disk format
// (src/obs/mgt.hpp) and, for packet-bearing events, into a PCAPNG capture
// (src/obs/pcapng.hpp). The offline analyzer (src/obs/analyzer.hpp) and the
// `mgap_trace` CLI consume them to reproduce the paper's shading analysis
// (section 6.1, Figure 11) from a trace instead of live counters.
//
// Events reuse sim::TraceCat as their subscribe category, so the
// `trace.categories` mask governs the Recorder.

#include <cstdint>

#include "sim/ids.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace mgap::obs {

enum class EventType : std::uint8_t {
  kConnOpen = 1,         // connection established       [gap]
  kConnClose = 2,        // connection terminated        [ll]
  kConnEvent = 3,        // executed connection event    [ll]
  kConnEventMissed = 4,  // skipped connection event     [ll]
  kPduTx = 5,            // data PDU attempt + CRC outcome [ll]
  kRadioClaim = 6,       // radio-slot claim result      [ll]
  kPktbufDrop = 7,       // pktbuf exhaustion drop       [net]
  kPktbufWater = 8,      // new pktbuf high-watermark    [net]
  kIpPacket = 9,         // IPv6 packet tx/rx/forward    [net]
  kCoapTxn = 10,         // CoAP transaction state       [app]
  kFaultBegin = 11,      // injected fault begins        [fault]
  kFaultEnd = 12,        // injected fault ends          [fault]
  kL2capCredit = 13,     // L2CAP flow-control credit grant [ll]
  kFlowBreaker = 14,     // circuit-breaker state change [net]
  kFlowDefer = 15,       // back-pressure backoff armed  [net]
  kMeshRelay = 16,       // mesh network-layer relay     [mesh]
  kMeshCacheHit = 17,    // mesh message-cache dedup     [mesh]
  kMeshSegment = 18,     // mesh lower-transport segment [mesh]
};

/// Channel field value when no channel applies.
inline constexpr std::uint8_t kNoChannel = 0xFF;

/// One trace event. 32 bytes of fixed fields; packet-bearing events
/// (kPduTx, kIpPacket) additionally carry a payload blob in the trace file.
///
/// Field semantics by type (unused fields are zero):
///   kConnOpen:        id=conn, node=coordinator, a=subordinate, b=interval_us
///   kConnClose:       id=conn, node=coordinator, a=subordinate,
///                     flags=DisconnectReason, b=events_missed (saturated)
///   kConnEvent:       id=conn, node=coordinator, chan=channel, b=event ctr,
///                     a=pairs exchanged, flags: bit0=aborted(CRC), bit1=synced
///   kConnEventMissed: id=conn, node=coordinator, chan=channel, b=event ctr,
///                     flags: bit0=coord granted, bit1=sub granted
///   kPduTx:           id=conn, node=sender, chan=channel, a=access address,
///                     b=airtime_ns, flags: bit0=crc ok, bit1=sub->coord,
///                     bit2=retransmission; payload=LL data payload
///   kRadioClaim:      id=owner, node=claiming node, a=duration_ns,
///                     flags: bit0=granted
///   kPktbufDrop:      node, a=bytes used, b=capacity, flags: bit0=rx path
///   kPktbufWater:     node, a=new high-watermark, b=capacity
///   kIpPacket:        node, a=packet length, flags: kIpTx/kIpRx/kIpForward;
///                     payload=IPv6 packet bytes
///   kCoapTxn:         id=token, node, flags=CoapPhase, a=payload bytes
///                     (send), rtt_us (response), attempt (retransmit/timeout)
///   kFaultBegin/End:  id=fault index, node=target (0 if none),
///                     flags=FaultKind, a=peer node, chan=chan_lo
///   kL2capCredit:     id=conn, node=granting (receiver) node, a=credits
///                     granted, b=sender tx_credits after the grant,
///                     flags: bit0=grant flushed because the sender starved
///   kFlowBreaker:     node, a=next hop, flags=new BreakerState,
///                     b=frames shed on open (0 otherwise)
///   kFlowDefer:       node, a=next hop, b=backoff delay in us,
///                     flags=consecutive-failure streak (saturated)
///   kMeshRelay:       node=relaying node, id=(src<<32)|seq, chan=TTL after
///                     decrement, a=dst, b=(seg_idx<<16)|seg_count,
///                     flags: bit0=heartbeat
///   kMeshCacheHit:    node, id=(src<<32)|seq, a=dst, flags: bit0=heartbeat
///   kMeshSegment:     node, id=(src<<32)|msg_tag, a=seg_idx (tx) or
///                     segments held (reassembled/evicted), b=seg_count,
///                     flags: bit0=tx, bit1=reassembled, bit2=evicted
struct Event {
  sim::TimePoint at;
  EventType type{EventType::kConnOpen};
  std::uint8_t chan{kNoChannel};
  std::uint16_t flags{0};
  std::uint32_t node{0};
  std::uint64_t id{0};
  std::uint32_t a{0};
  std::uint32_t b{0};

  friend bool operator==(const Event&, const Event&) = default;
};

// kConnEvent flags.
inline constexpr std::uint16_t kEvAborted = 0x0001;
inline constexpr std::uint16_t kEvSynced = 0x0002;
// kConnEventMissed flags.
inline constexpr std::uint16_t kEvCoordGranted = 0x0001;
inline constexpr std::uint16_t kEvSubGranted = 0x0002;
// kPduTx flags.
inline constexpr std::uint16_t kPduCrcOk = 0x0001;
inline constexpr std::uint16_t kPduSubToCoord = 0x0002;
inline constexpr std::uint16_t kPduRetrans = 0x0004;
// kRadioClaim flags.
inline constexpr std::uint16_t kClaimGranted = 0x0001;
// kPktbufDrop flags.
inline constexpr std::uint16_t kPktbufRx = 0x0001;
// kL2capCredit flags.
inline constexpr std::uint16_t kCreditStarved = 0x0001;
// kIpPacket flags (direction).
inline constexpr std::uint16_t kIpTx = 0x0000;
inline constexpr std::uint16_t kIpRx = 0x0001;
inline constexpr std::uint16_t kIpForward = 0x0002;
// kMeshRelay / kMeshCacheHit flags.
inline constexpr std::uint16_t kMeshHeartbeat = 0x0001;
// kMeshSegment flags.
inline constexpr std::uint16_t kMeshSegTx = 0x0001;
inline constexpr std::uint16_t kMeshSegReassembled = 0x0002;
inline constexpr std::uint16_t kMeshSegEvicted = 0x0004;

/// kCoapTxn flags values.
enum class CoapPhase : std::uint16_t {
  kSentNon = 0,
  kSentCon = 1,
  kResponse = 2,
  kRetransmit = 3,
  kTimeout = 4,
};

/// Subscribe category of an event type.
[[nodiscard]] constexpr sim::TraceCat category(EventType type) {
  switch (type) {
    case EventType::kConnOpen: return sim::TraceCat::kGap;
    case EventType::kConnClose:
    case EventType::kConnEvent:
    case EventType::kConnEventMissed:
    case EventType::kPduTx:
    case EventType::kRadioClaim:
    case EventType::kL2capCredit: return sim::TraceCat::kLinkLayer;
    case EventType::kPktbufDrop:
    case EventType::kPktbufWater:
    case EventType::kIpPacket:
    case EventType::kFlowBreaker:
    case EventType::kFlowDefer: return sim::TraceCat::kNet;
    case EventType::kCoapTxn: return sim::TraceCat::kApp;
    case EventType::kFaultBegin:
    case EventType::kFaultEnd: return sim::TraceCat::kFault;
    case EventType::kMeshRelay:
    case EventType::kMeshCacheHit:
    case EventType::kMeshSegment: return sim::TraceCat::kMesh;
  }
  return sim::TraceCat::kLinkLayer;
}

[[nodiscard]] constexpr const char* to_string(EventType type) {
  switch (type) {
    case EventType::kConnOpen: return "conn_open";
    case EventType::kConnClose: return "conn_close";
    case EventType::kConnEvent: return "conn_event";
    case EventType::kConnEventMissed: return "conn_event_missed";
    case EventType::kPduTx: return "pdu_tx";
    case EventType::kRadioClaim: return "radio_claim";
    case EventType::kPktbufDrop: return "pktbuf_drop";
    case EventType::kPktbufWater: return "pktbuf_water";
    case EventType::kIpPacket: return "ip_packet";
    case EventType::kCoapTxn: return "coap_txn";
    case EventType::kFaultBegin: return "fault_begin";
    case EventType::kFaultEnd: return "fault_end";
    case EventType::kL2capCredit: return "l2cap_credit";
    case EventType::kFlowBreaker: return "flow_breaker";
    case EventType::kFlowDefer: return "flow_defer";
    case EventType::kMeshRelay: return "mesh_relay";
    case EventType::kMeshCacheHit: return "mesh_cache_hit";
    case EventType::kMeshSegment: return "mesh_segment";
  }
  return "?";
}

}  // namespace mgap::obs
