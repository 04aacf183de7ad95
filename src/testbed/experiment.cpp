#include "testbed/experiment.hpp"

#include <algorithm>
#include <cassert>

#include "mesh/backend.hpp"
#include "testbed/backend_154.hpp"
#include "testbed/backend_ble.hpp"
#include "testbed/config_file.hpp"
#include "topo/channel.hpp"
#include "topo/spatial_index.hpp"

namespace mgap::testbed {

Experiment::Experiment(ExperimentConfig config)
    : config_{std::move(config)},
      sim_{config_.seed},
      metrics_{config_.metrics_bucket},
      arena_{config_.arena ? sim::Arena::Mode::kBump : sim::Arena::Mode::kHeap} {
  validate(config_);
  if (config_.topo.enabled()) {
    // Procedural world: placement + geometric channel + routing tree, all
    // deterministic from (spec, seed). Replaces any statically wired topology
    // before node construction so everything downstream sees one source of
    // truth. Throws (deterministically) when the world is not connected.
    geo_ = std::make_unique<topo::GeneratedWorld>(
        topo::generate_world(config_.topo, config_.seed));
    config_.topology = Topology::from_parent_map(
        config_.topo.generator_name(), geo_->consumer, geo_->parent);
  }
  // Sinks open before any node exists, so even setup-time events are caught
  // and bad paths abort the experiment up front (not after an hour of sim).
  if (!config_.trace_file.empty()) recorder_.open_mgt(config_.trace_file);
  if (!config_.trace_pcap.empty()) recorder_.open_pcap(config_.trace_pcap);
  recorder_.set_categories(config_.trace_categories);
  build_backend();
  build_nodes();
  for (const Topology::Edge& e : config_.topology.edges) {
    backend_->add_link(e.coordinator, e.subordinate);
  }
  backend_->start();
  if (config_.topology.wired()) {
    install_routes();
  } else {
    start_rpl();
  }
  spawn_workload();
  setup_faults();
}

Experiment::~Experiment() = default;

void Experiment::build_backend() {
  switch (config_.radio) {
    case core::LinkBackendKind::kBle: {
      auto backend = std::make_unique<BleConnBackend>(
          sim_, config_, geo_.get(), &recorder_,
          [this](NodeId listener, ble::Connection& conn, bool up,
                 ble::DisconnectReason reason) {
            on_ble_link_event(listener, conn, up, reason);
          });
      ble_backend_ = backend.get();
      backend_ = std::move(backend);
      break;
    }
    case core::LinkBackendKind::kIeee802154: {
      auto backend = std::make_unique<Ieee154Backend>(sim_, config_.base_per);
      i154_backend_ = backend.get();
      backend_ = std::move(backend);
      break;
    }
    case core::LinkBackendKind::kMesh:
    case core::LinkBackendKind::kAdv: {
      auto backend = std::make_unique<mesh::MeshBackend>(
          sim_, config_.mesh, config_.radio, config_.base_per, &recorder_);
      if (geo_) {
        // Flooding propagates to every physically hearable node, so the
        // receiver rows span the radio range (geo_->neighbors only spans the
        // planning range the connection-oriented backends route within).
        // Every pair with PER < 1 lies within max_radio_range, so the rows
        // hold all of them, as the world's collision test needs. Nodes do
        // not move: each PER is computed once, here.
        const phy::LinkPerFn geometric =
            topo::make_geometric_link_per(geo_->placement, config_.topo);
        mesh::MeshWorld::ReceiverRows rows;
        for (const auto& [id, peers] :
             geo_->index->neighbor_tables(topo::max_radio_range(config_.topo))) {
          std::vector<mesh::MeshWorld::Receiver>& row = rows[id];
          for (const NodeId peer : peers) {
            const double per = geometric(id, peer).per;
            if (per < 1.0) row.push_back({peer, per});
          }
        }
        backend->world().set_receivers(std::move(rows));
      }
      mesh_backend_ = backend.get();
      backend_ = std::move(backend);
      break;
    }
  }
}

void Experiment::build_nodes() {
  std::uint64_t creation_index = 0;
  for (const NodeId id : config_.topology.nodes) {
    net::Netif& netif = backend_->add_node(id);
    Node node;
    net::IpStackConfig ip_cfg;
    ip_cfg.compression = config_.compression;
    // Netif back-pressure is radio-agnostic: every backend runs with the same
    // flow config (L2CAP credit knobs live inside the BLE backend).
    ip_cfg.flow = config_.flow;
    // Creation index, not node id: keeps jitter draws invariant under node
    // relabeling (the statconn discipline, pinned by the metamorphic tests).
    ip_cfg.flow_stream = creation_index++;
    node.stack = arena_.make<net::IpStack>(sim_, id, netif, ip_cfg);
    node.stack->set_recorder(&recorder_);
    backend_->finish_node(id);
    if (!config_.topology.wired()) {
      // RPL sees the BLE link set through the controller's live connections.
      ble::Controller* ctrl = controller(id);
      node.rpl = arena_.make<net::Rpl>(sim_, *node.stack, [ctrl] {
        std::vector<NodeId> out;
        for (ble::Connection* c : ctrl->connections()) out.push_back(c->peer_of(*ctrl).id());
        return out;
      });
    }
    nodes_.emplace(id, node);
  }
}

void Experiment::start_rpl() {
  // RPL's rank is the metric dynconn advertises to searching nodes; the link
  // lifecycle feeds RPL's neighbor set through on_ble_link_event.
  for (auto& [id, node] : nodes_) {
    core::Dynconn* dc = dynconn(id);
    node.rpl->set_rank_changed([this, dc](std::uint16_t rank) {
      dc->set_advertised_metric(rank);
      check_formation();
    });
    if (id == config_.topology.consumer) {
      node.rpl->start_as_root();
    } else {
      node.rpl->start();
    }
  }
}

void Experiment::check_formation() {
  if (formation_time_) return;
  for (const auto& [id, node] : nodes_) {
    if (!node.rpl->joined()) return;
  }
  formation_time_ = sim_.now();
}

void Experiment::on_ble_link_event(NodeId listener, ble::Connection& conn,
                                   bool up, ble::DisconnectReason reason) {
  if (!config_.topology.wired()) {
    // Both ends' RPL instances track the link set as their neighbor set.
    net::Rpl& rpl = *nodes_.at(listener).rpl;
    const NodeId peer = conn.coordinator().id() == listener ? conn.subordinate().id()
                                                            : conn.coordinator().id();
    if (up) {
      rpl.neighbor_up(peer);
    } else {
      rpl.neighbor_down(peer);
    }
  }
  // Link lifecycle + connection-loss log: counted once per link, on the
  // coordinator's side. Supervision timeouts inside a fault window (on
  // either endpoint) count as injected; the rest are emergent shading.
  if (conn.coordinator().id() != listener) return;
  const NodeId sub = conn.subordinate().id();
  const sim::TimePoint at = sim_.now();
  if (up) {
    metrics_.on_link_up(listener, sub, at);
    return;
  }
  const bool loss = reason == ble::DisconnectReason::kSupervisionTimeout;
  bool injected = false;
  if (loss && injector_) {
    // A fault is charged for timeouts up to one supervision window (plus
    // slack) past its end: the loss surfaces only when the timeout expires.
    const sim::Duration grace = config_.supervision_timeout + sim::Duration::sec(1);
    injected = injector_->attributable(listener, at, grace) ||
               injector_->attributable(sub, at, grace);
  }
  metrics_.on_link_down(listener, sub, at);
  if (loss) metrics_.on_conn_loss(listener, at, injected);
}

void Experiment::install_routes() {
  const Topology& topo = config_.topology;
  if (backend_->transitive()) {
    // Managed flooding delivers any netif send() to its destination node:
    // IP routing collapses to one logical hop. Upstream traffic addresses
    // the consumer directly; the consumer answers each node directly.
    for (auto& [id, node] : nodes_) {
      if (id != topo.consumer) {
        node.stack->routes().set_default(net::Ipv6Addr::site(topo.consumer));
      } else {
        for (const NodeId other : topo.nodes) {
          if (other == id) continue;
          node.stack->routes().add_host_route(net::Ipv6Addr::site(other),
                                              net::Ipv6Addr::site(other));
        }
      }
    }
    return;
  }
  // Downstream subtrees materialize lazily on first traffic. Eagerly
  // enumerating every (ancestor, descendant) pair is O(N * depth) routes —
  // ~300k table entries at 10k nodes, dominated by subtrees the response
  // traffic may never touch — and the recursive children()/subtree() walk
  // behind it is O(N^2) map scans. The resolver walks the parent chain from
  // the destination instead: if it passes through this node, the hop below it
  // is the next hop (cached by the routing table); otherwise the default
  // route toward the parent applies. Route contents are identical to the
  // eager build (asserted by tests). The walk reads an id-indexed copy of the
  // parent map (kInvalidNode for the root and for ids outside the tree)
  // instead of a map lookup per hop.
  NodeId max_id = 0;
  for (const NodeId id : topo.nodes) max_id = std::max(max_id, id);
  route_parent_.assign(std::size_t{max_id} + 1, kInvalidNode);
  for (const auto& [child, parent] : topo.parent) route_parent_[child] = parent;
  for (auto& [id, node] : nodes_) {
    if (id != topo.consumer) {
      node.stack->routes().set_default(net::Ipv6Addr::site(topo.parent.at(id)));
    }
    const NodeId self = id;
    node.stack->routes().set_resolver(
        [this, self](const net::Ipv6Addr& dst) -> std::optional<net::Ipv6Addr> {
          const NodeId root = config_.topology.consumer;
          NodeId cur = dst.node_id();
          if (cur == kInvalidNode) return std::nullopt;
          NodeId below = kInvalidNode;
          std::size_t steps = 0;
          while (cur != root && steps++ <= route_parent_.size()) {
            if (cur == self) {
              if (below == kInvalidNode) return std::nullopt;  // dst == self
              return net::Ipv6Addr::site(below);
            }
            if (cur >= route_parent_.size() || route_parent_[cur] == kInvalidNode) {
              return std::nullopt;  // unknown node
            }
            below = cur;
            cur = route_parent_[cur];
          }
          // Reached the root without passing through self: not in our
          // subtree — unless we *are* the root, whose child toward dst is
          // the hop below it on the walk.
          if (cur == root && self == root && below != kInvalidNode) {
            return net::Ipv6Addr::site(below);
          }
          return std::nullopt;
        });
  }
}

void Experiment::spawn_workload() {
  const Topology& topo = config_.topology;
  consumer_ = std::make_unique<Consumer>(*nodes_.at(topo.consumer).stack);
  std::uint64_t producer_index = 0;
  for (const NodeId id : topo.producers()) {
    Producer::Config pc;
    pc.consumer = net::Ipv6Addr::site(topo.consumer);
    pc.interval = config_.producer_interval;
    pc.jitter = config_.producer_jitter;
    pc.payload_len = config_.payload_len;
    pc.confirmable = config_.confirmable_coap;
    pc.cc = config_.cc;
    pc.cc.rto_stream = producer_index++;  // creation index (relabel-invariant)
    Node& node = nodes_.at(id);
    node.producer = arena_.make<Producer>(sim_, *node.stack, pc, metrics_);
    node.producer->start();
  }
}

void Experiment::setup_faults() {
  if (config_.faults.empty() && !config_.chaos.enabled()) return;
  std::vector<fault::FaultEvent> plan;
  plan.reserve(config_.faults.size());
  for (const auto& [key, ev] : config_.faults) plan.push_back(ev);
  if (config_.chaos.enabled()) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (const Topology::Edge& e : config_.topology.edges) {
      edges.emplace_back(e.coordinator, e.subordinate);
    }
    // Created only when chaos is on, so fault-free configs keep their
    // sequentially assigned RNG streams (and thus their exact outcomes).
    sim::Rng chaos_rng = sim_.make_rng();
    const auto sampled = fault::sample_chaos(config_.chaos, config_.topology.nodes,
                                             edges, config_.duration, chaos_rng);
    plan.insert(plan.end(), sampled.begin(), sampled.end());
  }

  fault::InjectorHooks hooks;
  hooks.on_crash = [this](NodeId node) { on_node_crash(node); };
  hooks.on_reboot = [this](NodeId node) { on_node_reboot(node); };
  hooks.pktbuf_of = [this](NodeId node) -> net::Pktbuf* {
    auto it = nodes_.find(node);
    return it == nodes_.end() ? nullptr : &it->second.stack->pktbuf();
  };
  if (geo_) {
    // Radius-scoped faults resolve their ball through the generated world's
    // spatial index; static topologies have no geometry, so the hook stays
    // unset and such faults keep their legacy (global / single-node) scope.
    hooks.nodes_within = [this](NodeId center, double radius) {
      return geo_->index->ball(center, radius);
    };
  }
  injector_ = std::make_unique<fault::FaultInjector>(
      sim_, ble_backend_ ? ble_backend_->world() : nullptr, std::move(hooks));
  injector_->arm(std::move(plan));
}

void Experiment::on_node_crash(NodeId node) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  Node& n = it->second;
  backend_->on_node_crash(node);
  if (n.producer) n.producer->stop();
  // RAM does not survive: queued frames and half-built reassemblies are gone.
  n.stack->purge();
}

void Experiment::on_node_reboot(NodeId node) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  Node& n = it->second;
  backend_->on_node_reboot(node);
  // Don't restart traffic during the post-run drain window.
  const bool running = sim_.now() < sim::TimePoint::origin() + config_.duration;
  if (n.producer && running) n.producer->start();
}

void Experiment::run() {
  assert(!ran_);
  ran_ = true;
  sim_.run_until(sim::TimePoint::origin() + config_.duration);
  for (auto& [id, node] : nodes_) {
    if (node.producer) node.producer->stop();
  }
  sim_.run_until(sim::TimePoint::origin() + config_.duration + config_.drain);
  recorder_.close();  // flush + surface any sink failure before results count
}

void Experiment::run_until(sim::TimePoint t) { sim_.run_until(t); }

net::IpStack& Experiment::stack(NodeId node) { return *nodes_.at(node).stack; }

ble::BleWorld* Experiment::ble_world() {
  return ble_backend_ ? ble_backend_->world() : nullptr;
}

ieee802154::Network154* Experiment::net154() {
  return i154_backend_ ? i154_backend_->net() : nullptr;
}

mesh::MeshWorld* Experiment::mesh_world() {
  return mesh_backend_ ? &mesh_backend_->world() : nullptr;
}

ble::Controller* Experiment::controller(NodeId node) {
  ble::BleWorld* w = ble_world();
  return w ? w->find(node) : nullptr;
}

core::Statconn* Experiment::statconn(NodeId node) {
  return ble_backend_ ? ble_backend_->statconn(node) : nullptr;
}

core::Dynconn* Experiment::dynconn(NodeId node) {
  return ble_backend_ ? ble_backend_->dynconn(node) : nullptr;
}

net::Rpl* Experiment::rpl(NodeId node) {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : it->second.rpl;
}

ExperimentSummary Experiment::summary() const {
  ExperimentSummary s;
  if (geo_) {
    s.topo_generator = geo_->spec.generator_name();
    s.topo_seed = geo_->placement->seed;
  } else if (config_.topology.wired()) {
    s.topo_generator = "static:" + config_.topology.name;
  } else {
    s.topo_generator = config_.topology.name;
  }
  s.topo_nodes = config_.topology.nodes.size();
  if (config_.topology.wired()) {
    s.topo_mean_hops = config_.topology.mean_hops();
    s.topo_max_hops = config_.topology.max_hops();
  } else {
    // The formed DODAG's depths (rank / 256 - 1) over the joined producers.
    std::uint64_t joined = 0;
    std::uint64_t total = 0;
    for (const auto& [id, node] : nodes_) {
      if (id == config_.topology.consumer || !node.rpl->joined()) continue;
      const std::uint64_t depth = node.rpl->rank() / net::kRplMinHopRankIncrease - 1;
      ++joined;
      total += depth;
      s.topo_max_hops = std::max(s.topo_max_hops, depth);
    }
    s.topo_mean_hops =
        joined == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(joined);
  }

  s.sent = metrics_.total_sent();
  s.acked = metrics_.total_acked();
  s.coap_pdr = metrics_.pdr();
  s.rtt_p50 = metrics_.rtt().quantile(0.50);
  s.rtt_p99 = metrics_.rtt().quantile(0.99);
  s.rtt_max = metrics_.rtt().max_seen();

  const core::LinkSummary ls = backend_->link_summary();
  s.ll_pdr = ls.ll_pdr;
  s.conn_losses = ls.conn_losses;
  s.reconnects = ls.reconnects;

  for (const auto& [id, node] : nodes_) {
    s.pktbuf_drops += node.stack->stats().drop_pktbuf;
    s.link_down_drops += node.stack->stats().drop_link_down;
    s.backpressure_drops += node.stack->stats().drop_queue_full;
    s.breaker_drops += node.stack->stats().drop_breaker;
    if (node.producer) {
      s.coap_retransmissions += node.producer->retransmissions();
      s.coap_timeouts += node.producer->con_timeouts();
    }
  }

  s.losses_injected = metrics_.losses_injected();
  s.losses_emergent = metrics_.losses_emergent();
  s.link_downs = metrics_.link_downs();
  s.link_ups = metrics_.link_ups();
  s.reconnect_p50 = metrics_.reconnect_times().quantile(0.50);
  s.reconnect_max = metrics_.reconnect_times().max_seen();
  s.repair_to_delivery_p50 = metrics_.repair_to_delivery().quantile(0.50);

  if (injector_) {
    s.faults_injected = injector_->injected_count();
    // Sliding PDR windows around each fault: w = 3 metric buckets before the
    // fault, the fault window itself (to experiment end for permanent
    // faults), and w after it.
    const sim::Duration w = config_.metrics_bucket * 3;
    const sim::TimePoint exp_end = sim::TimePoint::origin() + config_.duration;
    PdrBucket pre;
    PdrBucket during;
    PdrBucket post;
    for (const fault::InjectedFault& f : injector_->timeline()) {
      sim::TimePoint during_end = f.permanent ? exp_end : f.end;
      // Instant faults (clock_step) still get the bucket they landed in.
      if (during_end <= f.begin) during_end = f.begin + config_.metrics_bucket;
      const PdrBucket a = metrics_.count_between(f.begin - w, f.begin);
      const PdrBucket b = metrics_.count_between(f.begin, during_end);
      pre.sent += a.sent;
      pre.acked += a.acked;
      during.sent += b.sent;
      during.acked += b.acked;
      if (!f.permanent) {
        const PdrBucket c = metrics_.count_between(during_end, during_end + w);
        post.sent += c.sent;
        post.acked += c.acked;
      }
    }
    s.pdr_pre_fault = pre.pdr();
    s.pdr_during_fault = during.pdr();
    s.pdr_post_fault = post.pdr();
  }

  // Observability registry: per-node counters/gauges folded to totals. The
  // names are stable API — campaign CSV columns derive from them.
  obs::Registry reg;
  for (const auto& [id, node] : nodes_) {
    const net::Pktbuf& buf = node.stack->pktbuf();
    reg.gauge_max("pktbuf.high_water", id, static_cast<double>(buf.high_water()));
    reg.count("pktbuf.failed_allocs", id, static_cast<double>(buf.failed_allocs()));
    // Accounting-bug canaries appear only when nonzero: registering them
    // unconditionally would add a column to every campaign CSV, and a healthy
    // run must stay byte-identical to one produced before these existed.
    if (buf.underflows() > 0) {
      reg.count("pktbuf.underflows", id, static_cast<double>(buf.underflows()));
    }
    if (const std::uint64_t ev = node.stack->reassembler().evicted(); ev > 0) {
      reg.count("sixlo.reasm_evicted", id, static_cast<double>(ev));
    }
    // Flow-control attribution, registered only when the mechanism actually
    // fired (same byte-stability rule as the canaries above).
    const net::IpStats& ist = node.stack->stats();
    if (ist.drop_queue_full > 0) {
      reg.count("flow.backpressure_drops", id, static_cast<double>(ist.drop_queue_full));
    }
    if (ist.drop_breaker > 0) {
      reg.count("flow.breaker_drops", id, static_cast<double>(ist.drop_breaker));
    }
    if (ist.flow_deferrals > 0) {
      reg.count("flow.deferrals", id, static_cast<double>(ist.flow_deferrals));
    }
    if (const std::uint64_t bo = node.stack->breaker_opens(); bo > 0) {
      reg.count("flow.breaker_opens", id, static_cast<double>(bo));
    }
    if (node.producer && node.producer->nstart_deferrals() > 0) {
      reg.count("coap.nstart_deferrals", id,
                static_cast<double>(node.producer->nstart_deferrals()));
    }
    if (node.rpl != nullptr) {
      const net::RplStats& rs = node.rpl->stats();
      reg.count("rpl.parent_changes", id, static_cast<double>(rs.parent_changes));
      reg.count("rpl.dio_tx", id, static_cast<double>(rs.dio_tx));
      reg.count("rpl.dao_tx", id, static_cast<double>(rs.dao_tx));
    }
  }
  if (!config_.topology.wired()) {
    // Seconds until every node first held a rank; -1 if it never happened.
    reg.gauge_max("rpl.formation_s", 0,
                  formation_time_ ? formation_time_->to_sec_f() : -1.0);
  }
  backend_->fold_counters(reg);
  reg.count("trace.events", 0, static_cast<double>(recorder_.events_recorded()));
  if (config_.energy_account) {
    backend_->fold_energy(reg, sim_.now() - sim::TimePoint::origin());
  }
  s.counters = reg.totals();
  return s;
}

}  // namespace mgap::testbed
