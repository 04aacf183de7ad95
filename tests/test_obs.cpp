// Observability subsystem tests: golden bytes for the `.mgt` format and the
// PCAPNG block builders, round-trips through writer/reader, the shading
// analyzer on synthetic claim streams, category masking, safe trace-file
// handling, and byte-determinism of traced experiments.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/analyzer.hpp"
#include "obs/mgt.hpp"
#include "obs/pcapng.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "sim/trace.hpp"
#include "testbed/config_file.hpp"
#include "testbed/experiment.hpp"

using namespace mgap;
using namespace mgap::obs;

namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& p) {
  std::ifstream in{p, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

std::filesystem::path tmp_path(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace

// --- .mgt golden bytes and round-trip ---------------------------------------

TEST(Mgt, GoldenHeaderBytes) {
  std::ostringstream out;
  MgtWriter w{out};
  const auto got = bytes_of(out.str());
  const std::vector<std::uint8_t> expect = {
      'M', 'G', 'T', '1',      // magic
      0x01, 0x00,              // version 1
      0x00, 0x00,              // flags
      0x01, 0, 0, 0, 0, 0, 0, 0,  // tsresol: 1 ns per tick
  };
  EXPECT_EQ(got, expect);
}

TEST(Mgt, GoldenRecordBytes) {
  Event e;
  e.at = sim::TimePoint::from_ns(0x0102030405060708);
  e.type = EventType::kPduTx;
  e.chan = 7;
  e.flags = 0x0003;
  e.node = 9;
  e.id = 0x1122334455667788;
  e.a = 0xAABBCCDD;
  e.b = 0x42;
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE};

  std::ostringstream out;
  MgtWriter w{out};
  w.write(e, payload);
  const auto got = bytes_of(out.str());
  ASSERT_EQ(got.size(), kMgtHeaderSize + kMgtRecordFixed + payload.size());

  const std::vector<std::uint8_t> record = {
      0x25, 0x00,                                      // len = 34 + 3
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // t_ns LE
      0x05,                                            // type = kPduTx
      0x07,                                            // chan
      0x03, 0x00,                                      // flags
      0x09, 0x00, 0x00, 0x00,                          // node
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // id LE
      0xDD, 0xCC, 0xBB, 0xAA,                          // a LE
      0x42, 0x00, 0x00, 0x00,                          // b LE
      0xDE, 0xAD, 0xBE,                                // payload
  };
  const std::vector<std::uint8_t> tail(got.begin() + kMgtHeaderSize, got.end());
  EXPECT_EQ(tail, record);
}

TEST(Mgt, RoundTripEventsAndPayloads) {
  std::stringstream stream;
  MgtWriter w{stream};

  Event a;
  a.at = sim::TimePoint::from_ns(1'000);
  a.type = EventType::kConnOpen;
  a.node = 2;
  a.id = 1;
  a.a = 3;
  a.b = 75'000;
  w.write(a);

  Event b;
  b.at = sim::TimePoint::from_ns(2'500);
  b.type = EventType::kIpPacket;
  b.node = 4;
  b.flags = kIpForward;
  b.a = 100;
  const std::vector<std::uint8_t> pkt(100, 0x5A);
  w.write(b, pkt);
  EXPECT_TRUE(w.ok());
  EXPECT_EQ(w.records_written(), 2u);

  MgtReader r{stream};
  const auto records = r.read_all();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event, a);
  EXPECT_TRUE(records[0].payload.empty());
  EXPECT_EQ(records[1].event, b);
  EXPECT_EQ(records[1].payload, pkt);
}

TEST(Mgt, PayloadTruncatedToSnapLength) {
  std::stringstream stream;
  MgtWriter w{stream};
  Event e;
  e.type = EventType::kIpPacket;
  std::vector<std::uint8_t> huge(kMgtMaxPayload + 500);
  for (std::size_t i = 0; i < huge.size(); ++i) {
    huge[i] = static_cast<std::uint8_t>(i);
  }
  w.write(e, huge);

  MgtReader r{stream};
  MgtRecord rec;
  ASSERT_TRUE(r.next(rec));
  ASSERT_EQ(rec.payload.size(), kMgtMaxPayload);
  EXPECT_TRUE(std::equal(rec.payload.begin(), rec.payload.end(), huge.begin()));
}

TEST(Mgt, ValidateAcceptsGoodRejectsCorrupt) {
  std::stringstream stream;
  MgtWriter w{stream};
  Event e;
  e.type = EventType::kConnEvent;
  w.write(e);
  {
    auto v = validate_mgt(stream);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.records, 1u);
  }
  // Truncated mid-record.
  const std::string full = stream.str();
  std::istringstream cut{full.substr(0, full.size() - 5)};
  EXPECT_FALSE(validate_mgt(cut).ok);
  // Foreign magic.
  std::istringstream foreign{"NOPE" + full.substr(4)};
  EXPECT_FALSE(validate_mgt(foreign).ok);
}

// --- PCAPNG golden bytes ----------------------------------------------------

TEST(Pcapng, GoldenSectionHeaderBlock) {
  const std::vector<std::uint8_t> expect = {
      0x0A, 0x0D, 0x0D, 0x0A,  // block type
      0x1C, 0x00, 0x00, 0x00,  // total length = 28
      0x4D, 0x3C, 0x2B, 0x1A,  // byte-order magic (little-endian)
      0x01, 0x00, 0x00, 0x00,  // version 1.0
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // section length: unknown
      0x1C, 0x00, 0x00, 0x00,  // trailing total length
  };
  EXPECT_EQ(pcapng_shb(), expect);
}

TEST(Pcapng, GoldenInterfaceDescriptionBlock) {
  const std::vector<std::uint8_t> expect = {
      0x01, 0x00, 0x00, 0x00,  // block type IDB
      0x2C, 0x00, 0x00, 0x00,  // total length = 44
      0x00, 0x01,              // linktype 256 (BLE LL with phdr)
      0x00, 0x00,              // reserved
      0x00, 0x00, 0x00, 0x00,  // snaplen: unlimited
      0x02, 0x00, 0x06, 0x00,  // if_name, 6 bytes
      'b', 'l', 'e', '-', 'l', 'l', 0x00, 0x00,  // name + pad
      0x09, 0x00, 0x01, 0x00,  // if_tsresol, 1 byte
      0x09, 0x00, 0x00, 0x00,  // 10^-9 s + pad
      0x00, 0x00, 0x00, 0x00,  // opt_endofopt
      0x2C, 0x00, 0x00, 0x00,  // trailing total length
  };
  EXPECT_EQ(pcapng_idb(kLinktypeBleLlWithPhdr, "ble-ll"), expect);
}

TEST(Pcapng, EpbSplitsNanosecondTimestamp) {
  const std::vector<std::uint8_t> data = {0xAA, 0xBB};
  const auto epb =
      pcapng_epb(3, sim::TimePoint::from_ns(0x123456789A), data);
  // Offsets: type(4) len(4) iface(4) ts_hi(4) ts_lo(4) cap(4) orig(4).
  ASSERT_GE(epb.size(), 32u);
  EXPECT_EQ(epb[8], 0x03);  // interface id
  const std::vector<std::uint8_t> ts_hi(epb.begin() + 12, epb.begin() + 16);
  const std::vector<std::uint8_t> ts_lo(epb.begin() + 16, epb.begin() + 20);
  EXPECT_EQ(ts_hi, (std::vector<std::uint8_t>{0x12, 0x00, 0x00, 0x00}));
  EXPECT_EQ(ts_lo, (std::vector<std::uint8_t>{0x9A, 0x78, 0x56, 0x34}));
  EXPECT_EQ(epb[20], 0x02);  // captured length
  EXPECT_EQ(epb.size() % 4, 0u);
  // Data padded to a 4-byte boundary before the trailing length.
  EXPECT_EQ(epb[28], 0xAA);
  EXPECT_EQ(epb[29], 0xBB);
}

TEST(Pcapng, RfChannelMapping) {
  EXPECT_EQ(rf_channel(0), 1);
  EXPECT_EQ(rf_channel(10), 11);
  EXPECT_EQ(rf_channel(11), 13);
  EXPECT_EQ(rf_channel(36), 38);
  EXPECT_EQ(rf_channel(37), 37);  // advertising channels pass through
  EXPECT_EQ(rf_channel(39), 39);
}

TEST(Pcapng, BleLlCaptureCrcMarking) {
  const std::vector<std::uint8_t> payload = {0x01, 0x02, 0x03};
  const auto good = ble_ll_capture(5, 0x12345678, payload, true);
  const auto bad = ble_ll_capture(5, 0x12345678, payload, false);
  // phdr(10) + AA(4) + header(2) + payload(3) + CRC(3).
  ASSERT_EQ(good.size(), 22u);
  EXPECT_EQ(good[0], 6);  // data channel 5 -> RF 6
  // phdr flags: dewhitened | AA valid | CRC checked | CRC valid = 0x0C11.
  EXPECT_EQ(good[8], 0x11);
  EXPECT_EQ(good[9], 0x0C);
  EXPECT_EQ(bad[9], 0x04);  // CRC-valid bit cleared
  // Good trailer is the CRC24 of header+payload; bad is its complement.
  const std::span<const std::uint8_t> on_air{good.data() + 14, 5};
  const std::uint32_t crc = ble_crc24(on_air);
  EXPECT_EQ(good[19], crc & 0xFF);
  EXPECT_EQ(good[20], (crc >> 8) & 0xFF);
  EXPECT_EQ(good[21], (crc >> 16) & 0xFF);
  EXPECT_EQ(bad[19], good[19] ^ 0xFF);
  EXPECT_EQ(bad[20], good[20] ^ 0xFF);
  EXPECT_EQ(bad[21], good[21] ^ 0xFF);
}

TEST(Pcapng, WriterOutputValidates) {
  std::stringstream stream;
  PcapngWriter w{stream};
  const std::vector<std::uint8_t> pdu = {0xDE, 0xAD};
  w.write_packet(w.ble_interface(), sim::TimePoint::from_ns(10), pdu);
  w.write_packet(w.ip_interface(4), sim::TimePoint::from_ns(20), pdu);
  w.write_packet(w.ble_interface(), sim::TimePoint::from_ns(30), pdu);

  const auto v = validate_pcapng(stream);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.interfaces, 2u);  // one BLE + one node-IPv6, created lazily once
  EXPECT_EQ(v.packets, 3u);
}

TEST(Pcapng, ValidateRejectsPacketBeforeInterface) {
  std::stringstream stream;
  const auto shb = pcapng_shb();
  stream.write(reinterpret_cast<const char*>(shb.data()),
               static_cast<std::streamsize>(shb.size()));
  const std::vector<std::uint8_t> data = {1, 2, 3};
  const auto epb = pcapng_epb(0, sim::TimePoint::from_ns(5), data);
  stream.write(reinterpret_cast<const char*>(epb.data()),
               static_cast<std::streamsize>(epb.size()));
  EXPECT_FALSE(validate_pcapng(stream).ok);
}

// --- shading analyzer -------------------------------------------------------

namespace {

Event claim(std::int64_t start_ns, std::int64_t dur_ns, std::uint32_t node,
            std::uint64_t owner, bool granted) {
  Event e;
  e.at = sim::TimePoint::from_ns(start_ns);
  e.type = EventType::kRadioClaim;
  e.node = node;
  e.id = owner;
  e.a = static_cast<std::uint32_t>(dur_ns);
  e.flags = granted ? kClaimGranted : 0;
  return e;
}

}  // namespace

TEST(Analyzer, DetectsSyntheticShadingOverlap) {
  // On node 5, conn 1 holds [100ms, 101ms); conn 2 wants [100.5ms, 101.5ms)
  // and is denied. The stream carries the *denial before the grant* — claims
  // are timestamped at their window start, which is in the future relative to
  // emission order — so streaming-prune analyzers would miss it.
  std::vector<Event> events;
  events.push_back(claim(100'500'000, 1'000'000, 5, 2, false));
  events.push_back(claim(100'000'000, 1'000'000, 5, 1, true));
  // An unrelated grant on another node must not match.
  events.push_back(claim(100'400'000, 1'000'000, 6, 3, true));

  const Analysis a = analyze(events);
  ASSERT_EQ(a.overlaps.size(), 1u);
  const ShadingOverlap& o = a.overlaps.front();
  EXPECT_EQ(o.node, 5u);
  EXPECT_EQ(o.victim, 2u);
  EXPECT_EQ(o.blocker, 1u);
  EXPECT_EQ(o.at, sim::TimePoint::from_ns(100'500'000));
  EXPECT_EQ(o.overlap_ns, 500'000);

  EXPECT_EQ(a.nodes.at(5).claims_granted, 1u);
  EXPECT_EQ(a.nodes.at(5).claims_denied, 1u);
  EXPECT_EQ(a.nodes.at(5).granted_ns, 1'000'000);
}

TEST(Analyzer, NoOverlapForDisjointWindows) {
  std::vector<Event> events;
  events.push_back(claim(100'000'000, 1'000'000, 5, 1, true));
  events.push_back(claim(101'000'000, 1'000'000, 5, 2, false));  // touches, no overlap
  const Analysis a = analyze(events);
  EXPECT_TRUE(a.overlaps.empty());
}

TEST(Analyzer, ConnectionLifecycle) {
  std::vector<Event> events;
  Event open;
  open.at = sim::TimePoint::from_ns(1'000'000);
  open.type = EventType::kConnOpen;
  open.node = 2;
  open.id = 7;
  open.a = 3;
  open.b = 75'000;
  events.push_back(open);

  Event run;
  run.at = sim::TimePoint::from_ns(76'000'000);
  run.type = EventType::kConnEvent;
  run.node = 2;
  run.id = 7;
  run.flags = kEvAborted;
  events.push_back(run);

  Event miss;
  miss.at = sim::TimePoint::from_ns(151'000'000);
  miss.type = EventType::kConnEventMissed;
  miss.node = 2;
  miss.id = 7;
  events.push_back(miss);

  Event close;
  close.at = sim::TimePoint::from_ns(2'000'000'000);
  close.type = EventType::kConnClose;
  close.node = 2;
  close.id = 7;
  close.a = 3;
  close.flags = 2;  // DisconnectReason value
  events.push_back(close);

  const Analysis a = analyze(events);
  ASSERT_EQ(a.connections.size(), 1u);
  const ConnTimeline& c = a.connections.at(7);
  EXPECT_EQ(c.coordinator, 2u);
  EXPECT_EQ(c.subordinate, 3u);
  EXPECT_EQ(c.interval_us, 75'000u);
  EXPECT_EQ(c.events_run, 1u);
  EXPECT_EQ(c.events_aborted, 1u);
  EXPECT_EQ(c.events_missed, 1u);
  EXPECT_TRUE(c.closed);
  EXPECT_EQ(c.close_reason, 2u);

  const std::string report = render_report(a);
  EXPECT_NE(report.find("conn 7"), std::string::npos);
}

TEST(Analyzer, OwnerNames) {
  EXPECT_EQ(owner_name(3), "conn 3");
  EXPECT_EQ(owner_name(kAdvOwnerBit | 12), "adv/scan(node 12)");
}

// --- category masks (obs::Recorder and trace.categories) --------------------

TEST(TraceCategories, ParseRenderRoundTrip) {
  const std::uint32_t mask = sim::parse_trace_cat_mask("ll,net");
  EXPECT_EQ(mask, sim::trace_cat_bit(sim::TraceCat::kLinkLayer) |
                      sim::trace_cat_bit(sim::TraceCat::kNet));
  EXPECT_EQ(sim::parse_trace_cat_mask(sim::render_trace_cat_mask(mask)), mask);
  EXPECT_EQ(sim::parse_trace_cat_mask("all"), sim::kAllTraceCats);
  EXPECT_EQ(sim::render_trace_cat_mask(sim::kAllTraceCats), "all");
  EXPECT_THROW((void)sim::parse_trace_cat_mask("ll,bogus"), std::runtime_error);
}

TEST(Recorder, CategoryMaskGatesWants) {
  Recorder rec;
  EXPECT_FALSE(rec.wants(EventType::kPduTx));  // no sink: inactive
  rec.collect(true);
  rec.set_categories(sim::trace_cat_bit(sim::TraceCat::kNet));
  EXPECT_TRUE(rec.wants(EventType::kPktbufDrop));
  EXPECT_FALSE(rec.wants(EventType::kPduTx));

  Event net_event;
  net_event.type = EventType::kPktbufDrop;
  Event ll_event;
  ll_event.type = EventType::kPduTx;
  rec.record(net_event);
  rec.record(ll_event);  // filtered by the mask even on direct record()
  ASSERT_EQ(rec.collected().size(), 1u);
  EXPECT_EQ(rec.collected().front().type, EventType::kPktbufDrop);
}

// --- safe trace-output paths (satellite: no silent clobbering) --------------

TEST(TraceFiles, RejectsEmptyDirectoryAndUnwritablePaths) {
  EXPECT_THROW((void)open_trace_file(""), std::runtime_error);

  const auto dir = tmp_path("mgap_obs_test_dir");
  std::filesystem::create_directories(dir);
  try {
    (void)open_trace_file(dir.string());
    FAIL() << "directory path must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("directory"), std::string::npos);
  }
  std::filesystem::remove(dir);

  EXPECT_THROW((void)open_trace_file("/nonexistent_mgap_dir/trace.mgt"),
               std::runtime_error);
}

TEST(TraceFiles, TruncatesExistingFile) {
  const auto path = tmp_path("mgap_obs_truncate.mgt");
  {
    std::ofstream out{path, std::ios::binary};
    out << std::string(4096, 'x');
  }
  {
    Recorder rec;
    rec.open_mgt(path.string());
    rec.close();
  }
  EXPECT_EQ(std::filesystem::file_size(path), kMgtHeaderSize);
  std::filesystem::remove(path);
}

// --- registry ---------------------------------------------------------------

TEST(Registry, CountersSumAndGaugesMax) {
  Registry reg;
  reg.count("drops", 1, 2.0);
  reg.count("drops", 2, 3.0);
  reg.gauge_max("water", 1, 100.0);
  reg.gauge_max("water", 1, 80.0);   // lower: ignored
  reg.gauge_max("water", 2, 250.0);

  const auto totals = reg.totals();
  EXPECT_DOUBLE_EQ(totals.at("drops"), 5.0);
  EXPECT_DOUBLE_EQ(totals.at("water"), 250.0);
  EXPECT_DOUBLE_EQ(reg.per_node("drops").at(2), 3.0);
  EXPECT_DOUBLE_EQ(reg.per_node("water").at(1), 100.0);
}

// --- config keys and end-to-end determinism ---------------------------------

TEST(TraceConfig, ParseAndRenderTraceKeys) {
  const auto cfg = testbed::parse_experiment_config(
      "radio = ble\n"
      "topology = tree15\n"
      "duration = 10s\n"
      "trace.file = /tmp/x.mgt\n"
      "trace.pcap = /tmp/x.pcapng\n"
      "trace.categories = ll,net\n");
  EXPECT_EQ(cfg.trace_file, "/tmp/x.mgt");
  EXPECT_EQ(cfg.trace_pcap, "/tmp/x.pcapng");
  EXPECT_EQ(cfg.trace_categories, sim::trace_cat_bit(sim::TraceCat::kLinkLayer) |
                                      sim::trace_cat_bit(sim::TraceCat::kNet));

  const std::string rendered = testbed::render_experiment_config(cfg);
  EXPECT_NE(rendered.find("trace.file = /tmp/x.mgt"), std::string::npos);
  EXPECT_NE(rendered.find("trace.categories = ll,net"), std::string::npos);

  // Defaults render no trace keys, keeping untraced configs byte-stable.
  const testbed::ExperimentConfig plain;
  EXPECT_EQ(testbed::render_experiment_config(plain).find("trace."),
            std::string::npos);
}

TEST(TraceConfig, DisablingViaNone) {
  auto cfg = testbed::parse_experiment_config("trace.file = x.mgt\n");
  testbed::apply_experiment_kv(cfg, "trace.file", "none");
  EXPECT_TRUE(cfg.trace_file.empty());
}

TEST(TracedExperiment, ByteIdenticalAcrossRunsAndCountersExposed) {
  const auto p1 = tmp_path("mgap_obs_det1.mgt");
  const auto p2 = tmp_path("mgap_obs_det2.mgt");

  testbed::ExperimentConfig cfg;
  cfg.topology = testbed::Topology::tree15();
  cfg.duration = sim::Duration::sec(5);
  cfg.drain = sim::Duration::sec(2);
  cfg.seed = 7;

  testbed::ExperimentSummary summary;
  for (const auto& path : {p1, p2}) {
    testbed::ExperimentConfig c = cfg;
    c.trace_file = path.string();
    testbed::Experiment e{c};
    e.run();
    summary = e.summary();
  }
  const auto b1 = read_file(p1);
  const auto b2 = read_file(p2);
  ASSERT_GT(b1.size(), kMgtHeaderSize);
  EXPECT_EQ(b1, b2);

  // The trace validates and the counters made it into the summary.
  std::ifstream in{p1, std::ios::binary};
  const auto v = validate_mgt(in);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_GT(summary.counters.at("trace.events"), 0.0);
  EXPECT_GT(summary.counters.at("radio.claims_granted"), 0.0);
  EXPECT_GT(summary.counters.at("pktbuf.high_water"), 0.0);

  std::filesystem::remove(p1);
  std::filesystem::remove(p2);
}

TEST(TracedExperiment, BadTracePathFailsConstruction) {
  testbed::ExperimentConfig cfg;
  cfg.duration = sim::Duration::sec(1);
  cfg.trace_file = std::filesystem::temp_directory_path().string();  // a directory
  EXPECT_THROW(testbed::Experiment{cfg}, std::runtime_error);
}
