#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "app/coap.hpp"
#include "ble/channel_selection.hpp"
#include "ble/world.hpp"
#include "campaign/aggregate.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/writers.hpp"
#include "net/checksum.hpp"
#include "net/ip_stack.hpp"
#include "net/ipv6.hpp"
#include "net/sixlowpan.hpp"
#include "net/udp.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "testbed/experiment.hpp"
#include "testbed/topology.hpp"
#include "testbed/workload.hpp"
#include "topo/world.hpp"

namespace perfbench {

using namespace mgap;

// ---------------------------------------------------------------------------
// Catalogue. BENCHMARK.json lists the same workloads and metrics (checked by
// tests/test_run.py against `mgap_perf --describe`). tree15_overload runs by
// name but is not listed: nearly all of its time is a cache-bound scan of the
// CoAP dedup cache, so on a shared host its wall time drifts by up to 2x
// between minutes, beyond any bound the listed metrics can carry.

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> list = {
      {"rgg10k_idle",
       "10k-node RGG, NON CoAP every 30 s: ~94% of events are idle BLE connection events, so "
       "sim and ble dominate and setup is large"},
      {"backend_mix_campaign",
       "128 short cells on 2 threads over ble, 802154, adv and mesh with crash faults: the only "
       "load on mesh, 802154, fault and the runner"},
  };
  return list;
}

const std::vector<MetricInfo>& end_to_end_metrics() {
  static const std::vector<MetricInfo> list = {
      {"sim_per_wall", "s/s", "higher", "simulated seconds per wall second of the run phase"},
      {"setup_s", "s", "lower", "config to constructed Experiment; campaign: parse + expand"},
      {"wall_s", "s", "lower", "whole workload: setup, run, summary, result file, teardown"},
      {"cells_per_s", "1/s", "higher", "experiments (cells) completed per wall second"},
      {"peak_rss_mib", "MiB", "lower", "peak resident memory of the workload's process"},
  };
  return list;
}

const std::vector<MetricInfo>& per_layer_metrics() {
  static const std::vector<MetricInfo> list = {
      {"sim.events", "count", "lower", "sim_per_wall on rgg10k_idle"},
      {"sim.events_cancelled", "count", "lower", "sim_per_wall on rgg10k_idle"},
      {"sim.pending", "count", "lower", "sim_per_wall on rgg10k_idle"},
      {"sim.ns_per_event", "ns", "lower", "sim_per_wall on rgg10k_idle"},
      {"sim.queue_churn_ns", "ns", "lower", "sim_per_wall on rgg10k_idle"},
      {"ble.conn_events", "count", "lower", "sim_per_wall on rgg10k_idle and tree15_overload"},
      {"ble.conn_events_missed", "count", "lower",
       "sim_per_wall on rgg10k_idle and tree15_overload"},
      {"ble.conn_events_aborted", "count", "lower",
       "sim_per_wall on rgg10k_idle and tree15_overload"},
      {"ble.pdu_tx", "count", "lower", "sim_per_wall on tree15_overload"},
      {"ble.pdu_retrans", "count", "lower", "sim_per_wall on tree15_overload"},
      {"ble.data_event_ratio", "ratio", "higher", "sim_per_wall on rgg10k_idle"},
      {"ble.idle_conn_event_ns", "ns", "lower", "sim_per_wall on rgg10k_idle"},
      {"ble.csa2_ns", "ns", "lower", "sim_per_wall on rgg10k_idle"},
      {"ble.radio_claims_granted", "count", "lower", "sim_per_wall on rgg10k_idle"},
      {"ble.radio_claims_denied", "count", "lower", "sim_per_wall on rgg10k_idle"},
      {"ble.adv_events_routed", "count", "lower", "setup_s and sim_per_wall on rgg10k_idle"},
      {"ble.adv_candidates_per_event", "count", "lower", "sim_per_wall on rgg10k_idle"},
      {"ble.connections_created", "count", "lower", "sim_per_wall on rgg10k_idle"},
      {"core.reconnects", "count", "lower", "cells_per_s on backend_mix_campaign"},
      {"core.conn_losses", "count", "lower", "cells_per_s on backend_mix_campaign"},
      {"net.rx_packets", "count", "lower", "sim_per_wall on tree15_overload"},
      {"net.forwarded", "count", "lower", "sim_per_wall on tree15_overload"},
      {"net.udp_sent", "count", "lower", "sim_per_wall on tree15_overload"},
      {"net.drops", "count", "lower", "sim_per_wall on tree15_overload"},
      {"net.pktbuf_high_water", "bytes", "lower", "sim_per_wall on tree15_overload"},
      {"net.iphc_ns", "ns", "lower", "sim_per_wall on tree15_overload"},
      {"net.udp_checksum_ns", "ns", "lower", "sim_per_wall on tree15_overload"},
      {"app.coap_sent", "count", "higher", "sim_per_wall on tree15_overload"},
      {"app.coap_acked", "count", "higher", "sim_per_wall on tree15_overload"},
      {"app.coap_retransmissions", "count", "lower", "sim_per_wall on tree15_overload"},
      {"app.coap_timeouts", "count", "lower", "sim_per_wall on tree15_overload"},
      {"app.nstart_deferrals", "count", "lower", "sim_per_wall on tree15_overload"},
      {"app.server_requests", "count", "higher", "sim_per_wall on tree15_overload"},
      {"app.coap_codec_ns", "ns", "lower", "sim_per_wall on tree15_overload"},
      {"app.server_request_ns", "ns", "lower",
       "sim_per_wall on tree15_overload; no change on rgg10k_idle (NON skips dedup)"},
      {"topo.generate_s", "s", "lower", "setup_s on rgg10k_idle; no change on tree15_overload"},
      {"topo.mean_hops", "hops", "lower", "setup_s on rgg10k_idle"},
      {"topo.max_hops", "hops", "lower", "setup_s on rgg10k_idle"},
      {"testbed.build_s", "s", "lower", "setup_s on rgg10k_idle; no change on tree15_overload"},
      {"testbed.teardown_s", "s", "lower", "wall_s on rgg10k_idle"},
      {"mesh.adv_events", "count", "lower", "cells_per_s on backend_mix_campaign"},
      {"mesh.relayed", "count", "lower", "cells_per_s on backend_mix_campaign"},
      {"mesh.collisions", "count", "lower", "cells_per_s on backend_mix_campaign"},
      {"mesh.cache_hits", "count", "lower", "cells_per_s on backend_mix_campaign"},
      {"mesh.queue_drops", "count", "lower", "cells_per_s on backend_mix_campaign"},
      {"ieee802154.sent", "count", "higher", "cells_per_s on backend_mix_campaign"},
      {"ieee802154.acked", "count", "higher", "cells_per_s on backend_mix_campaign"},
      {"ieee802154.ll_pdr", "ratio", "higher", "cells_per_s on backend_mix_campaign"},
      {"fault.injected", "count", "lower", "cells_per_s on backend_mix_campaign"},
      {"fault.link_downs", "count", "lower", "cells_per_s on backend_mix_campaign"},
      {"campaign.cells", "count", "higher", "cells_per_s on backend_mix_campaign"},
      {"campaign.cell_wall_p50_ms", "ms", "lower", "cells_per_s on backend_mix_campaign"},
      {"campaign.cell_wall_p90_ms", "ms", "lower", "cells_per_s on backend_mix_campaign"},
      {"campaign.worker_busy_ratio", "ratio", "higher", "cells_per_s on backend_mix_campaign"},
      {"campaign.write_s", "s", "lower", "wall_s on backend_mix_campaign"},
      {"share.sim", "ratio", "lower", "sim_per_wall on rgg10k_idle"},
      {"share.ble", "ratio", "lower", "sim_per_wall on rgg10k_idle"},
      {"share.net", "ratio", "lower", "sim_per_wall on tree15_overload"},
      {"share.app", "ratio", "lower", "sim_per_wall on tree15_overload"},
      {"share.unexplained", "ratio", "lower", "sim_per_wall on every workload"},
      {"bench.trace_overhead", "ratio", "lower", "none: traced wall / untraced wall"},
  };
  return list;
}

namespace {

// ---------------------------------------------------------------------------
// Workload inputs. The workload seed drives the simulation; the 10k world's
// placement seed is pinned, so every seed runs on the same connected world.

testbed::ExperimentConfig rgg10k_config(std::uint64_t seed) {
  testbed::ExperimentConfig cfg;
  cfg.topo.generator = topo::Generator::kRgg;
  cfg.topo.nodes = 10000;
  cfg.topo.density = 8.0;
  cfg.topo.range = 10.0;
  cfg.topo.seed = 7;
  cfg.duration = sim::Duration::sec(60);
  cfg.producer_interval = sim::Duration::sec(30);
  cfg.producer_jitter = sim::Duration::sec(10);
  cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65), sim::Duration::ms(85));
  cfg.seed = seed;
  return cfg;
}

/// The paper's 15-node tree, its node ids relabelled by a strictly
/// increasing map drawn from `seed` (the identity at the default seed). A
/// monotone relabelling keeps creation order, so the simulation does the same
/// work and every output stays at its recorded value.
testbed::Topology relabeled_tree15(std::uint64_t seed) {
  const testbed::Topology tree = testbed::Topology::tree15();
  if (seed == kDefaultSeed) return tree;
  sim::Rng rng{seed, 1};
  std::map<NodeId, NodeId> id;
  NodeId next = 0;
  for (const NodeId n : tree.nodes) {
    next = static_cast<NodeId>(next + 1 + rng.next_u64() % 40);
    id[n] = next;
  }
  testbed::Topology out = tree;
  out.nodes.clear();
  for (const NodeId n : tree.nodes) out.nodes.push_back(id.at(n));
  out.consumer = id.at(tree.consumer);
  out.edges.clear();
  for (const testbed::Topology::Edge& e : tree.edges) {
    out.edges.push_back({id.at(e.coordinator), id.at(e.subordinate)});
  }
  out.parent.clear();
  for (const auto& [child, parent] : tree.parent) out.parent[id.at(child)] = id.at(parent);
  return out;
}

/// The simulation seed stays at the recorded 7: at 50x load the run's cost
/// depends chaotically on it (the consumer's dedup work grows with the square
/// of the requests it accepts), so the workload seed relabels the tree.
testbed::ExperimentConfig tree15_config(std::uint64_t seed) {
  testbed::ExperimentConfig cfg;
  cfg.topology = relabeled_tree15(seed);
  cfg.duration = sim::Duration::sec(60);
  cfg.confirmable_coap = true;
  cfg.producer_interval = sim::Duration::ms(20);
  cfg.producer_jitter = sim::Duration::ms(5);
  cfg.l2cap_deferred_credits = true;
  cfg.flow.txq_frames = 16;
  cfg.flow.backoff = true;
  cfg.flow.breaker = true;
  cfg.cc.mode = app::CoapCcConfig::Mode::kCocoa;
  cfg.cc.nstart = 16;
  cfg.seed = kDefaultSeed;
  return cfg;
}

/// 4 backends x 2 relay densities x 2 chaos rates x 8 seeds = 128 cells.
std::string campaign_spec_text(std::uint64_t seed) {
  return "campaign = backend_mix\n"
         "link.backend = ble, 802154, adv, mesh\n"
         "topo.generator = jitter_grid\n"
         "topo.nodes = 36\n"
         "duration = 120s\n"
         "producer_interval = 30s\n"
         "producer_jitter = 2s\n"
         "payload_len = 8\n"
         "compression = iphc\n"
         "mesh.ttl = 5\n"
         "mesh.relay_density = 0.15, 1.0\n"
         "mesh.transmit_count = 2\n"
         "mesh.adv_interval = 40ms\n"
         "mesh.reasm_entries = 64\n"
         "chaos_kinds = crash\n"
         "chaos_rate = 0, 2\n"
         "seeds = " +
         std::to_string(seed) + ".." + std::to_string(seed + 7) + "\n";
}

constexpr std::size_t kCampaignCells = 128;
constexpr unsigned kCampaignThreads = 2;
/// FNV-1a of campaign::to_json(result, false) at the default seed.
constexpr std::uint64_t kCampaignFingerprint = 0xcd417c03098e3e06ull;

double seconds_of(sim::Duration d) { return static_cast<double>(d.count_ns()) * 1e-9; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double counter(const testbed::ExperimentSummary& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : it->second;
}

/// Layer counters and times of probed experiments, keyed by metric name
/// (plus a few "probe." helpers). Summed over experiments except the keys
/// below.
using Layers = std::map<std::string, double>;

void merge(Layers& into, const Layers& one) {
  for (const auto& [key, value] : one) {
    const bool take_max = key == "sim.pending" || key == "topo.max_hops" ||
                          key == "net.pktbuf_high_water" || key == "probe.consumer_requests";
    double& slot = into[key];
    slot = take_max ? std::max(slot, value) : slot + value;
  }
}

// ---------------------------------------------------------------------------
// Micro-benchmarks: one layer's public function on this workload's shapes.

volatile std::uint64_t g_sink = 0;

/// Median over 5 batches of the wall nanoseconds per operation.
template <typename Body>
double ns_per_op(std::size_t ops, Body&& body) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) body();
    batches.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  return median(batches);
}

double queue_churn_ns(std::size_t population) {
  sim::EventQueue q;
  sim::Rng rng{3, 1};
  for (std::size_t i = 0; i < std::max<std::size_t>(population, 1); ++i) {
    q.schedule(sim::TimePoint::from_ns(static_cast<std::int64_t>(rng.next_u64() % 100'000'000)),
               [] {});
  }
  return ns_per_op(200'000, [&] {
    const auto fired = q.pop();
    q.schedule(fired.at + sim::Duration::us(static_cast<std::int64_t>(rng.next_u64() % 100'000)),
               [] {});
  });
}

double idle_conn_event_ns() {
  sim::Simulator simu{1};
  ble::BleWorld world{simu, phy::ChannelModel{0.01}};
  ble::Controller& a = world.add_node(1, 2.0);
  ble::Controller& b = world.add_node(2, -2.0);
  ble::ConnParams params;
  params.interval = sim::Duration::ms(75);
  world.open_connection(a, b, params, sim::TimePoint::origin() + sim::Duration::ms(10));
  std::vector<double> batches;
  sim::TimePoint until = sim::TimePoint::origin();
  for (int i = 0; i < 5; ++i) {
    until += sim::Duration::minutes(20);
    const std::uint64_t before = simu.events_fired();
    const auto t0 = Clock::now();
    simu.run_until(until);
    const auto fired = static_cast<double>(simu.events_fired() - before);
    batches.push_back(seconds_since(t0) * 1e9 / std::max(fired, 1.0));
  }
  return median(batches);
}

double csa2_ns() {
  const ble::Csa2 csa{0x8E89BED6};
  ble::ChannelMap map = ble::ChannelMap::all();
  map.exclude(22);
  std::uint16_t counter_value = 0;
  std::uint64_t sum = 0;
  const double ns = ns_per_op(1'000'000, [&] { sum += csa.channel(++counter_value, map); });
  g_sink = g_sink + sum;
  return ns;
}

/// The request a producer sends: token, Uri-Path "gap", payload.
app::CoapMessage producer_request(std::size_t payload_len, bool confirmable, std::uint16_t mid) {
  app::CoapMessage m;
  m.type = confirmable ? app::CoapType::kCon : app::CoapType::kNon;
  m.message_id = mid;
  m.token = {1, 2, 3, 4};
  m.add_uri_path("gap");
  m.payload.assign(payload_len, 0xA5);
  return m;
}

std::vector<std::uint8_t> request_frame(const net::Ipv6Addr& src, NodeId l2_src,
                                        NodeId l2_dst, const app::CoapMessage& m,
                                        net::CompressionMode mode) {
  const net::Ipv6Addr dst = net::Ipv6Addr::site(l2_dst);
  net::Ipv6Header h;
  h.src = src;
  h.dst = dst;
  const auto udp = net::udp_encode(src, dst, 49155, app::kCoapPort, app::coap_encode(m));
  return net::sixlo_encode(net::ipv6_encode(h, udp), mode, l2_src, l2_dst);
}

/// A link that delivers injected frames to its stack and accepts every send.
class InjectNetif final : public net::Netif {
 public:
  bool send(NodeId /*next_hop*/, std::vector<std::uint8_t> /*frame*/) override { return true; }
  [[nodiscard]] std::size_t mtu() const override { return 1280; }
  [[nodiscard]] bool neighbor_up(NodeId /*neighbor*/) const override { return true; }
  void inject(NodeId src, std::vector<std::uint8_t> frame, sim::TimePoint at) {
    deliver_rx(src, std::move(frame), at);
  }
};

/// CON requests through the consumer's IP stack and CoAP server while the
/// server's dedup cache holds `cached` live entries. Throws when a request
/// goes unanswered (the measurement would be of the wrong path).
double server_request_ns(std::size_t cached, net::CompressionMode mode, std::size_t payload_len) {
  constexpr NodeId kConsumer = 1;
  constexpr NodeId kNeighbor = 2;
  constexpr std::size_t kPerBatch = 200;
  sim::Simulator simu{1};
  InjectNetif netif;
  net::IpStackConfig ip_cfg;
  ip_cfg.compression = mode;
  net::IpStack stack{simu, kConsumer, netif, ip_cfg};
  stack.routes().set_default(net::Ipv6Addr::site(kNeighbor));
  testbed::Consumer consumer{stack};
  // Request i comes from producer 2 + i / 65536 with message id i % 65536,
  // so every (peer, message id) key is new and the cache only grows.
  const auto frame = [&](std::size_t i) {
    const auto src = net::Ipv6Addr::site(static_cast<NodeId>(kNeighbor + i / 65536));
    return request_frame(src, kNeighbor, kConsumer,
                         producer_request(payload_len, true, static_cast<std::uint16_t>(i)),
                         mode);
  };
  for (std::size_t i = 0; i < cached; ++i) netif.inject(kNeighbor, frame(i), simu.now());
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t i = 0; i < 5 * kPerBatch; ++i) frames.push_back(frame(cached + i));
  std::size_t next = 0;
  const double ns = ns_per_op(kPerBatch, [&] {
    netif.inject(kNeighbor, std::move(frames[next++]), simu.now());
  });
  const std::size_t total = cached + frames.size();
  if (consumer.requests_rx() != total || consumer.responses_tx() != total) {
    throw std::runtime_error{"server_request_ns: requests went unanswered"};
  }
  return ns;
}

struct PacketShape {
  net::CompressionMode compression;
  std::size_t payload_len;
  bool confirmable;
};

/// The micro-benchmark metrics for a workload's packet shape and queue size.
Layers run_micro(std::size_t pending, const PacketShape& shape, std::size_t dedup_entries,
                 Trace& trace) {
  Layers m;
  const auto micro = trace.scope("micro");
  {
    const auto span = trace.scope("micro.queue_churn");
    m["sim.queue_churn_ns"] = queue_churn_ns(pending);
  }
  {
    const auto span = trace.scope("micro.idle_conn_event");
    m["ble.idle_conn_event_ns"] = idle_conn_event_ns();
  }
  {
    const auto span = trace.scope("micro.csa2");
    m["ble.csa2_ns"] = csa2_ns();
  }
  const app::CoapMessage req = producer_request(shape.payload_len, shape.confirmable, 1);
  const auto src = net::Ipv6Addr::site(3);
  const auto dst = net::Ipv6Addr::site(1);
  const auto udp = net::udp_encode(src, dst, 49155, app::kCoapPort, app::coap_encode(req));
  net::Ipv6Header h;
  h.src = src;
  h.dst = dst;
  const auto packet = net::ipv6_encode(h, udp);
  {
    const auto span = trace.scope("micro.iphc");
    std::uint64_t bytes = 0;
    m["net.iphc_ns"] = ns_per_op(100'000, [&] {
      const auto frame = net::sixlo_encode(packet, shape.compression, 3, 1);
      bytes += net::sixlo_decode(frame, 3, 1)->size();
    });
    g_sink = g_sink + bytes;
  }
  {
    const auto span = trace.scope("micro.udp_checksum");
    std::uint64_t sum = 0;
    m["net.udp_checksum_ns"] =
        ns_per_op(1'000'000, [&] { sum += net::udp6_checksum(src, dst, udp); });
    g_sink = g_sink + sum;
  }
  {
    const auto span = trace.scope("micro.coap_codec");
    std::uint64_t mids = 0;
    m["app.coap_codec_ns"] = ns_per_op(100'000, [&] {
      mids += app::coap_decode(app::coap_encode(req))->message_id;
    });
    g_sink = g_sink + mids;
  }
  {
    const auto span = trace.scope("micro.server_request");
    m["app.server_request_ns"] =
        server_request_ns(dedup_entries, shape.compression, shape.payload_len);
  }
  return m;
}

// ---------------------------------------------------------------------------
// One experiment: set-up, run, summary, result file, teardown.

struct ExperimentRun {
  testbed::ExperimentSummary summary;
  std::uint64_t events{0};
  std::uint64_t adv_full_scans{0};
  double setup_s{0.0};
  double run_s{0.0};
  double write_s{0.0};
  double wall_s{0.0};
  Layers layers;  // probed runs only
};

/// The routing tree the Experiment constructor builds: generated worlds are
/// placed and their tree derived; a static tree is re-validated from its
/// parent map.
void build_topology(const testbed::ExperimentConfig& cfg) {
  if (cfg.topo.enabled()) {
    const topo::GeneratedWorld world = topo::generate_world(cfg.topo, cfg.seed);
    (void)testbed::Topology::from_parent_map(cfg.topo.generator_name(), world.consumer,
                                             world.parent);
  } else {
    (void)testbed::Topology::from_parent_map(cfg.topology.name, cfg.topology.consumer,
                                             cfg.topology.parent);
  }
}

/// The experiment's summary as the campaign writer renders a one-cell result.
std::string result_file(const std::string& name, const testbed::ExperimentConfig& cfg,
                        const testbed::ExperimentSummary& summary,
                        const testbed::RttHistogram& rtt) {
  campaign::CampaignResult result;
  result.name = name;
  result.seeds = {cfg.seed};
  campaign::CellConfig cell_config;
  cell_config.config = cfg;
  result.configs.push_back(std::move(cell_config));
  campaign::CellResult cell;
  cell.seed = cfg.seed;
  cell.summary = summary;
  cell.rtt = rtt;
  result.cells.push_back(std::move(cell));
  result.aggregates.push_back(campaign::aggregate_config(0, result.cells));
  return campaign::to_json(result, false);
}

Layers collect_layers(testbed::Experiment& exp, const testbed::ExperimentSummary& s,
                      std::size_t pending) {
  Layers l;
  const sim::Simulator& simu = exp.simulator();
  l["probe.experiments"] = 1;
  l["sim.events"] = static_cast<double>(simu.events_fired());
  l["sim.events_cancelled"] = static_cast<double>(simu.events_cancelled());
  l["sim.pending"] = static_cast<double>(pending);

  if (const ble::BleWorld* world = exp.ble_world()) {
    for (const ble::LinkStats* ls : world->all_link_stats()) {
      l["ble.conn_events"] +=
          static_cast<double>(ls->events_ok + ls->events_missed + ls->events_aborted);
      l["ble.conn_events_missed"] += static_cast<double>(ls->events_missed);
      l["ble.conn_events_aborted"] += static_cast<double>(ls->events_aborted);
      l["ble.pdu_tx"] += static_cast<double>(ls->pdu_tx);
      l["probe.pdu_ok"] += static_cast<double>(ls->pdu_ok);
      l["ble.pdu_retrans"] += static_cast<double>(ls->pdu_retrans);
    }
    l["ble.adv_events_routed"] = static_cast<double>(world->adv_events_routed());
    l["probe.adv_candidates"] = static_cast<double>(world->adv_candidates_scanned());
    l["ble.connections_created"] = static_cast<double>(world->connections_created());
  }
  l["ble.radio_claims_granted"] = counter(s, "radio.claims_granted");
  l["ble.radio_claims_denied"] = counter(s, "radio.claims_denied");
  l["core.reconnects"] = static_cast<double>(s.reconnects);
  l["core.conn_losses"] = static_cast<double>(s.conn_losses);

  for (const NodeId id : exp.config().topology.nodes) {
    const net::IpStats& st = exp.stack(id).stats();
    l["net.rx_packets"] += static_cast<double>(st.rx_packets);
    l["net.forwarded"] += static_cast<double>(st.forwarded);
    l["net.udp_sent"] += static_cast<double>(st.udp_sent);
    l["net.drops"] += static_cast<double>(
        st.drop_pktbuf + st.drop_no_route + st.drop_no_neighbor + st.drop_link_down +
        st.drop_hop_limit + st.drop_malformed + st.drop_no_handler + st.drop_queue_full +
        st.drop_breaker);
  }
  l["net.pktbuf_high_water"] = counter(s, "pktbuf.high_water");

  l["app.coap_sent"] = static_cast<double>(s.sent);
  l["app.coap_acked"] = static_cast<double>(s.acked);
  l["app.coap_retransmissions"] = static_cast<double>(s.coap_retransmissions);
  l["app.coap_timeouts"] = static_cast<double>(s.coap_timeouts);
  l["app.nstart_deferrals"] = counter(s, "coap.nstart_deferrals");
  l["app.server_requests"] = static_cast<double>(exp.consumer().requests_rx());
  l["probe.consumer_requests"] = l["app.server_requests"];

  l["topo.mean_hops"] = s.topo_mean_hops;
  l["topo.max_hops"] = static_cast<double>(s.topo_max_hops);

  for (const char* name :
       {"mesh.adv_events", "mesh.relayed", "mesh.collisions", "mesh.cache_hits",
        "mesh.queue_drops"}) {
    l[name] = counter(s, name);
  }
  if (exp.config().radio == core::LinkBackendKind::kIeee802154) {
    l["probe.ieee802154_cells"] = 1;
    l["ieee802154.sent"] = static_cast<double>(s.sent);
    l["ieee802154.acked"] = static_cast<double>(s.acked);
    l["ieee802154.ll_pdr"] = s.ll_pdr;
  }
  l["fault.injected"] = static_cast<double>(s.faults_injected);
  l["fault.link_downs"] = static_cast<double>(s.link_downs);
  return l;
}

/// Runs `cfg` once. A probed run also times topology generation on its own
/// and advances the simulator one simulated second per span (the same
/// program as one call: Simulator::run_until executes every event up to its
/// bound), then lets Experiment::run() stop the producers and drain.
ExperimentRun run_experiment(const testbed::ExperimentConfig& cfg, const std::string& name,
                             const std::string& out_path, Trace& trace, bool probe) {
  ExperimentRun r;
  const auto whole = trace.scope("experiment");
  const auto t0 = Clock::now();
  double generate_s = 0.0;
  if (probe) {
    const auto span = trace.scope("topo.generate_world");
    const auto t = Clock::now();
    build_topology(cfg);
    generate_s = seconds_since(t);
  }
  std::unique_ptr<testbed::Experiment> exp;
  {
    const auto span = trace.scope("testbed.construct");
    const auto t = Clock::now();
    exp = std::make_unique<testbed::Experiment>(cfg);
    r.setup_s = seconds_since(t);
  }
  sim::Simulator& simu = exp->simulator();
  const std::size_t pending = simu.events_pending();
  {
    const auto span = trace.scope("experiment.run");
    const auto t = Clock::now();
    if (probe) {
      const std::int64_t whole_seconds = cfg.duration.count_ns() / 1'000'000'000;
      for (std::int64_t sec = 1; sec <= whole_seconds; ++sec) {
        const auto step = trace.scope("sim.run_until");
        simu.run_until(sim::TimePoint::origin() + sim::Duration::sec(sec));
      }
      const auto drain = trace.scope("experiment.stop_and_drain");
      exp->run();
    } else {
      exp->run();
    }
    r.run_s = seconds_since(t);
  }
  r.events = simu.events_fired();
  {
    const auto span = trace.scope("testbed.summary");
    r.summary = exp->summary();
    if (const ble::BleWorld* world = exp->ble_world()) {
      r.adv_full_scans = world->adv_full_scans();
    }
    if (probe) r.layers = collect_layers(*exp, r.summary, pending);
  }
  {
    const auto span = trace.scope("campaign.write");
    const auto t = Clock::now();
    campaign::write_file(out_path, result_file(name, cfg, r.summary, exp->metrics().rtt()));
    r.write_s = seconds_since(t);
  }
  double teardown_s = 0.0;
  {
    const auto span = trace.scope("testbed.teardown");
    const auto t = Clock::now();
    exp.reset();
    teardown_s = seconds_since(t);
  }
  r.wall_s = seconds_since(t0);
  if (probe) {
    r.layers["topo.generate_s"] = generate_s;
    r.layers["testbed.build_s"] = r.setup_s - generate_s;
    r.layers["testbed.teardown_s"] = teardown_s;
    r.layers["probe.run_s"] = r.run_s;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Metric assembly.

/// Per-layer values derived from probed layers, micro-benchmarks and the
/// run's cells, in catalogue order.
std::vector<Metric> layer_metrics(Layers v, const PacketShape& shape) {
  const double experiments = std::max(v["probe.experiments"], 1.0);
  const double events = v["sim.events"];
  const double run_ns = v["probe.run_s"] * 1e9;
  v["topo.mean_hops"] /= experiments;
  v["ieee802154.ll_pdr"] /= std::max(v["probe.ieee802154_cells"], 1.0);
  v["sim.ns_per_event"] = run_ns / std::max(events, 1.0);
  v["ble.data_event_ratio"] = v["probe.pdu_ok"] / std::max(v["ble.conn_events"], 1.0);
  v["ble.adv_candidates_per_event"] =
      v["probe.adv_candidates"] / std::max(v["ble.adv_events_routed"], 1.0);

  // Busy share of the run phase per layer: count x ns per call / run wall.
  // ble's idle-event cost includes dispatch from its own two-event queue, so
  // sim and ble overlap slightly; the remainder is reported as unexplained.
  v["share.sim"] = events * v["sim.queue_churn_ns"] / run_ns;
  v["share.ble"] = v["ble.conn_events"] * v["ble.idle_conn_event_ns"] / run_ns;
  v["share.net"] = v["net.rx_packets"] * (v["net.iphc_ns"] + v["net.udp_checksum_ns"]) / run_ns;
  // NON requests skip the server's dedup cache: they cost one codec pass.
  const double server_ns =
      shape.confirmable ? v["app.server_request_ns"] : v["app.coap_codec_ns"];
  v["share.app"] =
      (v["app.coap_sent"] * v["app.coap_codec_ns"] + v["app.server_requests"] * server_ns) /
      run_ns;
  v["share.unexplained"] =
      1.0 - v["share.sim"] - v["share.ble"] - v["share.net"] - v["share.app"];

  std::vector<Metric> out;
  for (const MetricInfo& info : per_layer_metrics()) {
    // A counter of a layer the workload never reaches (mesh on a BLE world)
    // reads 0; every timing must have been measured.
    const std::string_view unit{info.unit};
    if (unit != "s" && unit != "ms" && unit != "ns") v.try_emplace(info.name, 0.0);
    const auto it = v.find(info.name);
    if (it == v.end()) throw std::logic_error{std::string{"no value for "} + info.name};
    out.push_back(Metric{info.name, it->second, info.unit});
  }
  return out;
}

/// Cell walls (ms quantiles with their sample count), worker busy ratio and
/// result-file write time.
void add_cell_stats(Layers& v, const std::vector<double>& cell_walls_s,
                    const std::vector<double>& busy, const std::vector<double>& write_s) {
  std::vector<double> ms;
  for (const double w : cell_walls_s) ms.push_back(w * 1e3);
  const Quantile p50 = quantile(ms, 0.5);
  v["campaign.cells"] = static_cast<double>(p50.samples);
  v["campaign.cell_wall_p50_ms"] = p50.value;
  v["campaign.cell_wall_p90_ms"] = quantile(ms, 0.9).value;
  v["campaign.worker_busy_ratio"] = median(busy);
  v["campaign.write_s"] = median(write_s);
}

std::vector<Metric> end_to_end(double sim_per_wall, double setup_s, double wall_s,
                               double cells_per_s) {
  const double values[] = {sim_per_wall, setup_s, wall_s, cells_per_s, peak_rss_mib()};
  std::vector<Metric> out;
  std::size_t i = 0;
  for (const MetricInfo& info : end_to_end_metrics()) {
    out.push_back(Metric{info.name, values[i++], info.unit});
  }
  return out;
}

/// Whether another iteration fits in the measured time, taking the next to
/// last as long as the mean so far. The first `min_done` always run.
bool another_fits(std::size_t done, std::size_t min_done, double elapsed, double budget) {
  if (done < min_done) return true;
  return elapsed + elapsed / static_cast<double>(done) <= budget;
}

// ---------------------------------------------------------------------------
// Single-experiment workloads.

struct ExperimentWorkload {
  testbed::ExperimentConfig config;
  /// Extra set-ups (construct + destroy) before each untraced run.
  int setup_reps;
  /// Checks one run's deterministic outputs (default seed) or invariants.
  bool (*check)(const ExperimentRun& run, bool default_seed);
};

bool check_rgg10k(const ExperimentRun& r, bool default_seed) {
  const testbed::ExperimentSummary& s = r.summary;
  // The placement seed is pinned, so the hop statistics hold at every seed.
  bool ok = expect_equal("rgg10k_idle mean_hops", std::round(s.topo_mean_hops * 1000) / 1000,
                         21.753);
  ok &= expect_equal("rgg10k_idle adv_full_scans", static_cast<double>(r.adv_full_scans), 0);
  if (default_seed) {
    ok &= expect_equal("rgg10k_idle sent", static_cast<double>(s.sent), 14089);
    ok &= expect_equal("rgg10k_idle acked", static_cast<double>(s.acked), 5093);
    ok &= expect_equal("rgg10k_idle events", static_cast<double>(r.events), 10003425);
  } else {
    ok &= s.sent > 0 && r.events > 0;
  }
  return ok;
}

/// Exact at every seed: relabelling leaves the outputs unchanged.
bool check_tree15(const ExperimentRun& r, bool /*default_seed*/) {
  const testbed::ExperimentSummary& s = r.summary;
  bool ok = expect_equal("tree15_overload sent", static_cast<double>(s.sent), 40595);
  ok &= expect_equal("tree15_overload acked", static_cast<double>(s.acked), 16757);
  ok &= expect_equal("tree15_overload backpressure", static_cast<double>(s.backpressure_drops),
                     1290);
  ok &= expect_equal("tree15_overload retransmissions",
                     static_cast<double>(s.coap_retransmissions), 1398);
  ok &= expect_equal("tree15_overload events", static_cast<double>(r.events), 139904);
  return ok;
}

Outcome run_experiment_workload(const Options& o, Trace& trace, const ExperimentWorkload& w) {
  Outcome out;
  const testbed::ExperimentConfig& cfg = w.config;
  const bool default_seed = o.seed == kDefaultSeed;
  const std::string out_path = o.out_dir + "/" + o.workload + ".json";

  // Closed loop: the next run starts when the previous one ends. Traced runs
  // alternate with untraced ones; only untraced runs give end-to-end values.
  // Extra set-ups precede each untraced run, so set-up samples spread over
  // the whole measured time instead of its first moments.
  std::vector<double> setup, run_s, wall_s, traced_wall_s, write_s, cell_walls;
  Layers layers;
  Trace off{false};
  const auto loop_t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    if (traced) trace.next_run();
    out.tally.attempt(traced ? "traced run" : "run", [&] {
      for (int k = 0; k < (traced ? 0 : w.setup_reps); ++k) {
        const auto t = Clock::now();
        auto exp = std::make_unique<testbed::Experiment>(cfg);
        setup.push_back(seconds_since(t));
      }
      ExperimentRun r = run_experiment(cfg, o.workload, out_path, traced ? trace : off, traced);
      if (!w.check(r, default_seed)) return false;
      if (traced) {
        traced_wall_s.push_back(r.wall_s);
        layers = std::move(r.layers);
      } else {
        setup.push_back(r.setup_s);
        run_s.push_back(r.run_s);
        wall_s.push_back(r.wall_s);
      }
      write_s.push_back(r.write_s);
      cell_walls.push_back(r.wall_s);
      return true;
    });
    if (!another_fits(i + 1, o.trace ? 2 : 1, seconds_since(loop_t0), o.seconds)) break;
  }
  const double loop_s = seconds_since(loop_t0);

  if (!o.trace) {
    const double sim_s = seconds_of(cfg.duration + cfg.drain);
    out.metrics = end_to_end(sim_s / median(run_s), median(setup), median(wall_s),
                             1.0 / median(wall_s));
  } else {
    const PacketShape shape{cfg.compression, cfg.payload_len, cfg.confirmable_coap};
    merge(layers, run_micro(static_cast<std::size_t>(layers["sim.pending"]), shape,
                            static_cast<std::size_t>(layers["probe.consumer_requests"]), trace));
    double busy = 0.0;
    for (const double c : cell_walls) busy += c;
    add_cell_stats(layers, cell_walls, {busy / loop_s}, write_s);
    layers["bench.trace_overhead"] = median(traced_wall_s) / median(wall_s);
    out.metrics = layer_metrics(std::move(layers), shape);
  }
  out.correct = out.tally.failed() == 0;
  return out;
}

// ---------------------------------------------------------------------------
// The campaign workload.

struct CampaignRun {
  campaign::CampaignResult result;
  std::uint64_t fingerprint{0};
  double setup_s{0.0};
  double run_s{0.0};
  double write_s{0.0};
  double wall_s{0.0};
};

CampaignRun run_campaign(const std::string& spec_text, unsigned threads,
                         const std::string& out_path, Trace& trace) {
  CampaignRun r;
  const auto whole = trace.scope("campaign");
  const auto t0 = Clock::now();
  campaign::CampaignSpec spec;
  {
    const auto span = trace.scope("campaign.parse_and_expand");
    spec = campaign::parse_campaign_spec(spec_text);
    (void)campaign::expand_grid(spec);
    r.setup_s = seconds_since(t0);
  }
  {
    const auto span = trace.scope("campaign.run");
    const auto t = Clock::now();
    campaign::RunnerOptions options;
    options.threads = threads;
    options.progress = false;
    r.result = campaign::CampaignRunner{options}.run(spec);
    r.run_s = seconds_since(t);
  }
  {
    const auto span = trace.scope("campaign.write");
    const auto t = Clock::now();
    const std::string json = campaign::to_json(r.result, false);
    campaign::write_file(out_path, json);
    r.write_s = seconds_since(t);
    r.fingerprint = fnv1a(json);
  }
  r.wall_s = seconds_since(t0);
  return r;
}

std::string assignment_value(const campaign::CellConfig& c, const std::string& key) {
  for (const auto& [k, v] : c.assignment) {
    if (k == key) return v;
  }
  return {};
}

bool same_summary(const testbed::ExperimentSummary& a, const testbed::ExperimentSummary& b) {
  return a.sent == b.sent && a.acked == b.acked && a.coap_pdr == b.coap_pdr &&
         a.ll_pdr == b.ll_pdr && a.conn_losses == b.conn_losses &&
         a.reconnects == b.reconnects && a.counters == b.counters;
}

/// Cell-level invariants that hold at every seed: every cell sent traffic,
/// BLE cells never fell back to full advertising scans, and the backends that
/// ignore mesh.relay_density repeat their cells across that axis.
bool check_cells(const campaign::CampaignResult& result) {
  bool ok = expect_equal("backend_mix_campaign cells", static_cast<double>(result.cells.size()),
                         kCampaignCells);
  const std::size_t n_seeds = result.seeds.size();
  for (const campaign::CellResult& cell : result.cells) {
    ok &= cell.summary.sent > 0;
    ok &= counter(cell.summary, "ble.adv_full_scans") == 0.0;
  }
  for (std::size_t i = 0; i < result.configs.size(); ++i) {
    const campaign::CellConfig& a = result.configs[i];
    if (assignment_value(a, "link.backend") == "mesh") continue;
    for (std::size_t j = i + 1; j < result.configs.size(); ++j) {
      const campaign::CellConfig& b = result.configs[j];
      if (assignment_value(b, "link.backend") != assignment_value(a, "link.backend") ||
          assignment_value(b, "chaos_rate") != assignment_value(a, "chaos_rate")) {
        continue;
      }
      for (std::size_t s = 0; s < n_seeds; ++s) {
        const bool same = same_summary(result.cells[i * n_seeds + s].summary,
                                       result.cells[j * n_seeds + s].summary);
        if (!same) {
          std::fprintf(stderr, "perfbench: %s and %s differ at seed %zu\n", a.label().c_str(),
                       b.label().c_str(), s);
        }
        ok &= same;
      }
    }
  }
  return ok;
}

Outcome run_campaign_workload(const Options& o, Trace& trace) {
  // Extra parse + expand set-ups before each untraced campaign.
  constexpr int kSetupReps = 80;
  Outcome out;
  const std::string text = campaign_spec_text(o.seed);
  const std::string out_path = o.out_dir + "/" + o.workload + ".json";
  Trace off{false};
  std::vector<double> setup;
  const auto time_setups = [&] {
    for (int i = 0; i < kSetupReps; ++i) {
      const auto t = Clock::now();
      const campaign::CampaignSpec spec = campaign::parse_campaign_spec(text);
      const auto grid = campaign::expand_grid(spec);
      setup.push_back(seconds_since(t));
      if (grid.size() * spec.seeds.size() != kCampaignCells) return false;
    }
    return true;
  };

  // The determinism reference: the same campaign on one thread.
  std::uint64_t reference = 0;
  out.tally.attempt("campaign on 1 thread", [&] {
    const CampaignRun r = run_campaign(text, 1, out_path, off);
    reference = r.fingerprint;
    bool ok = check_cells(r.result);
    if (o.seed == kDefaultSeed && r.fingerprint != kCampaignFingerprint) {
      std::fprintf(stderr, "perfbench: campaign fingerprint %s, expected %s\n",
                   hex64(r.fingerprint).c_str(), hex64(kCampaignFingerprint).c_str());
      ok = false;
    }
    return ok;
  });

  std::vector<double> run_s, wall_s, traced_wall_s, write_s, cell_walls, busy;
  const auto loop_t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = o.trace && i % 2 == 1;
    if (traced) trace.next_run();
    out.tally.attempt(traced ? "traced campaign" : "campaign", [&] {
      if (!traced && !time_setups()) return false;
      const CampaignRun r = run_campaign(text, kCampaignThreads, out_path, traced ? trace : off);
      if (r.fingerprint != reference || !check_cells(r.result)) {
        std::fprintf(stderr, "perfbench: campaign fingerprint %s differs from 1 thread's %s\n",
                     hex64(r.fingerprint).c_str(), hex64(reference).c_str());
        return false;
      }
      double cells_s = 0.0;
      for (const campaign::CellResult& c : r.result.cells) {
        cell_walls.push_back(c.wall_seconds);
        cells_s += c.wall_seconds;
      }
      busy.push_back(cells_s / (r.result.threads_used * r.run_s));
      write_s.push_back(r.write_s);
      if (traced) {
        traced_wall_s.push_back(r.wall_s);
      } else {
        setup.push_back(r.setup_s);
        run_s.push_back(r.run_s);
        wall_s.push_back(r.wall_s);
      }
      return true;
    });
    if (!another_fits(i + 1, o.trace ? 2 : 1, seconds_since(loop_t0), o.seconds)) break;
  }

  const campaign::CampaignSpec spec = campaign::parse_campaign_spec(text);
  const double sim_s = seconds_of(spec.base.duration + spec.base.drain);
  if (!o.trace) {
    out.metrics = end_to_end(static_cast<double>(kCampaignCells) * sim_s / median(run_s),
                             median(setup), median(wall_s),
                             static_cast<double>(kCampaignCells) / median(wall_s));
  } else {
    // Per-layer probe: every grid configuration at the first seed, serially,
    // as single experiments with spans around each layer call.
    trace.next_run();
    Layers layers;
    const auto probe = trace.scope("campaign.probe");
    for (const campaign::CellConfig& c : campaign::expand_grid(spec)) {
      testbed::ExperimentConfig cfg = c.config;
      cfg.seed = spec.seeds.front();
      out.tally.attempt("probe cell", [&] {
        const ExperimentRun r =
            run_experiment(cfg, o.workload, o.out_dir + "/probe_cell.json", trace, true);
        merge(layers, r.layers);
        return r.summary.sent > 0;
      });
    }
    const PacketShape shape{spec.base.compression, spec.base.payload_len,
                            spec.base.confirmable_coap};
    merge(layers, run_micro(static_cast<std::size_t>(layers["sim.pending"]), shape,
                            static_cast<std::size_t>(layers["probe.consumer_requests"]), trace));
    add_cell_stats(layers, cell_walls, busy, write_s);
    layers["bench.trace_overhead"] = median(traced_wall_s) / median(wall_s);
    out.metrics = layer_metrics(std::move(layers), shape);
  }
  out.correct = out.tally.failed() == 0;
  return out;
}

}  // namespace

Outcome run_workload(const Options& options, Trace& trace) {
  if (options.workload == "rgg10k_idle") {
    return run_experiment_workload(options, trace,
                                   {rgg10k_config(options.seed), 2, &check_rgg10k});
  }
  if (options.workload == "tree15_overload") {
    return run_experiment_workload(options, trace,
                                   {tree15_config(options.seed), 12, &check_tree15});
  }
  if (options.workload == "backend_mix_campaign") return run_campaign_workload(options, trace);
  throw std::invalid_argument{"unknown workload: " + options.workload};
}

}  // namespace perfbench
