#pragma once
// The Recorder: live sink for typed trace events.
//
// Hot paths hold a `Recorder*` (usually via their World / stack) and call
//
//   if (rec && rec->wants(EventType::kPduTx)) rec->record(event, payload);
//
// so a disabled recorder costs one pointer test. Events are filtered by a
// sim::TraceCat category mask, streamed into a `.mgt` file, and —
// for packet-bearing events — additionally exported as PCAPNG so the capture
// opens in Wireshark. Files are opened with open_trace_file(): directories
// and unwritable paths are rejected with a clear error instead of silently
// producing an empty or missing trace.

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/mgt.hpp"
#include "obs/pcapng.hpp"

namespace mgap::obs {

/// Opens `path` for binary truncating write. Throws std::runtime_error when
/// the path is empty, names a directory, or cannot be created/written
/// (`what` names the path and the reason).
[[nodiscard]] std::ofstream open_trace_file(const std::string& path);

class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Streams events into a `.mgt` file at `path` (throws on bad paths).
  void open_mgt(const std::string& path);
  /// Streams packet-bearing events into a PCAPNG file at `path`.
  void open_pcap(const std::string& path);
  /// Additionally collects events in memory (tests, offline analysis).
  void collect(bool on) {
    collect_ = on;
    refresh_active();
  }

  /// Category subscribe mask (sim::trace_cat_bit bits; default: all).
  void set_categories(std::uint32_t mask) { mask_ = mask; }
  [[nodiscard]] std::uint32_t categories() const { return mask_; }

  /// True when an event of this type would be recorded — the hot-path guard.
  [[nodiscard]] bool wants(EventType type) const {
    return active_ && (mask_ & sim::trace_cat_bit(category(type))) != 0;
  }
  /// True when packet payload bytes are worth assembling for `record`.
  [[nodiscard]] bool capture_payloads() const {
    return mgt_writer_ != nullptr || pcap_writer_ != nullptr;
  }

  void record(const Event& e, std::span<const std::uint8_t> payload = {});

  /// Flushes and closes the sinks. Throws std::runtime_error if any sink
  /// stream failed (so a bad disk does not yield a silently truncated trace).
  void close();

  [[nodiscard]] std::uint64_t events_recorded() const { return events_; }
  [[nodiscard]] const std::vector<Event>& collected() const { return collected_events_; }

 private:
  void refresh_active() {
    active_ = collect_ || mgt_writer_ != nullptr || pcap_writer_ != nullptr;
  }

  std::uint32_t mask_{sim::kAllTraceCats};
  bool active_{false};
  bool collect_{false};

  std::string mgt_path_;
  std::ofstream mgt_out_;
  std::unique_ptr<MgtWriter> mgt_writer_;

  std::string pcap_path_;
  std::ofstream pcap_out_;
  std::unique_ptr<PcapngWriter> pcap_writer_;

  std::vector<Event> collected_events_;
  std::uint64_t events_{0};
};

}  // namespace mgap::obs
