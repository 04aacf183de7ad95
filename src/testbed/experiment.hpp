#pragma once
// Experiment runner: the C++ twin of the paper's YML-driven experimentation
// framework (Appendix A.3). An ExperimentConfig fully describes a run —
// radio, topology, traffic, connection-interval policy, seed — and the
// Experiment assembles the per-node stacks, wires routes, runs the
// simulation, and exposes metrics for the figures. A self-forming topology
// (Topology::self_forming) wires nothing: dynconn builds the BLE links and
// RPL-lite the routes over them (the paper's section 9 future work).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ble/world.hpp"
#include "core/dynconn.hpp"
#include "core/interval_policy.hpp"
#include "core/link_backend.hpp"
#include "core/statconn.hpp"
#include "fault/injector.hpp"
#include "fault/spec.hpp"
#include "ieee802154/mac.hpp"
#include "mesh/spec.hpp"
#include "net/ip_stack.hpp"
#include "net/rpl.hpp"
#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "phy/channel_model.hpp"
#include "sim/arena.hpp"
#include "sim/trace.hpp"
#include "sim/simulator.hpp"
#include "testbed/metrics.hpp"
#include "testbed/topology.hpp"
#include "testbed/workload.hpp"
#include "topo/world.hpp"

namespace mgap::mesh {
class MeshBackend;
class MeshWorld;
}  // namespace mgap::mesh

namespace mgap::testbed {

class BleConnBackend;
class Ieee154Backend;

struct ExperimentConfig {
  /// Link architecture (the `link.backend` config key; `radio` is the legacy
  /// spelling covering the first two). Each value selects a core::LinkBackend
  /// implementation; everything above net::Netif is backend-agnostic.
  using Radio = core::LinkBackendKind;

  Radio radio{Radio::kBle};
  Topology topology{Topology::tree15()};
  /// Procedural world (src/topo/). When enabled, `topology` is replaced by
  /// the generated routing tree at Experiment construction, the geometric
  /// channel model supplies the pairwise link PER, and the spatial index's
  /// neighbor tables are installed in the BleWorld.
  topo::TopoSpec topo;
  sim::Duration duration{sim::Duration::hours(1)};

  // Traffic (section 4.3 defaults).
  sim::Duration producer_interval{sim::Duration::sec(1)};
  sim::Duration producer_jitter{sim::Duration::ms(500)};
  std::size_t payload_len{39};
  bool confirmable_coap{false};  // CON + RFC 7252 retransmission (section 8)

  // BLE connection parameters (section 4.2 / 6.3).
  core::IntervalPolicy policy{core::IntervalPolicy::fixed(sim::Duration::ms(75))};
  sim::Duration supervision_timeout{sim::Duration::sec(2)};
  /// Section 6.3's rejected design-space alternative (for the ablation).
  bool param_update_mitigation{false};

  // Environment.
  double base_per{0.01};
  bool jam_channel_22{true};      // the external interferer seen in the testbed
  bool exclude_channel_22{true};  // the channel-map countermeasure (section 4.2)
  bool adaptive_channel_map{false};  // controller-side ADH instead (extension)
  double drift_ppm_range{5.0};    // per-node drift ~ U[-r, +r] ppm
  std::uint64_t seed{1};

  /// Allocate per-node state (BLE controllers/connections, IP stacks,
  /// producers) from bump arenas instead of the general heap (`arena` config
  /// key). Results are bit-identical either way — the off switch exists as
  /// the A/B control for exactly that property (test_arena) and as an escape
  /// hatch for allocation-debugging tools.
  bool arena{true};

  net::CompressionMode compression{net::CompressionMode::kUncompressed};
  sim::Duration metrics_bucket{sim::Duration::sec(10)};
  /// Extra settle time after producers stop, so in-flight requests at the
  /// cutoff are not miscounted as losses.
  sim::Duration drain{sim::Duration::sec(10)};

  // Fault injection (src/fault/). Keyed by config key ("fault.0", ...) so a
  // campaign axis on fault.N replaces rather than appends. Chaos mode adds a
  // seeded random fault sequence on top of the declared ones.
  std::map<std::string, fault::FaultEvent> faults;
  fault::ChaosConfig chaos;

  // statconn reconnect backoff (see StatconnConfig).
  sim::Duration reconnect_backoff_base{sim::Duration::ms(10)};
  sim::Duration reconnect_backoff_max{sim::Duration::ms(640)};
  sim::Duration reconnect_backoff_jitter{sim::Duration::ms(20)};

  // Overload-survival stack (flow.* / cc.* config keys), three independently
  // toggleable layers — all off by default, reproducing legacy behavior:
  //  * link: RFC 7668 receiver-driven L2CAP credit return,
  //  * netif: bounded TX queues + backoff + circuit breaker (net::FlowConfig),
  //  * app: CoCoA adaptive RTO + NSTART (app::CoapCcConfig).
  bool l2cap_deferred_credits{false};
  std::uint16_t l2cap_initial_credits{30};
  std::uint16_t l2cap_credit_batch{8};
  net::FlowConfig flow;
  app::CoapCcConfig cc;

  // Bluetooth Mesh / advertising backends (mesh.* config keys); ignored by
  // the connection-oriented backends.
  mesh::MeshConfig mesh;

  /// Folds the §5.4 per-node energy accounting (energy.charge_uc,
  /// energy.avg_current_ua) into the summary counters. Off by default so
  /// pre-existing campaign outputs keep their exact column set.
  bool energy_account{false};

  // Observability (src/obs/). Empty paths leave the corresponding sink off;
  // bad paths (directories, unwritable locations) fail construction with a
  // clear error rather than silently producing no trace.
  std::string trace_file;  // typed binary event trace (.mgt)
  std::string trace_pcap;  // PCAPNG capture (BLE LL + per-node IPv6)
  std::uint32_t trace_categories{sim::kAllTraceCats};
};

struct ExperimentSummary {
  // Topology metadata: sweep outputs are self-describing (which generator,
  // which placement seed, how big/deep the world actually was).
  std::string topo_generator;      // "static:tree15" or "rgg", "grid", ...
  std::uint64_t topo_seed{0};      // effective placement seed (0 for static)
  std::uint64_t topo_nodes{0};
  double topo_mean_hops{0.0};
  std::uint64_t topo_max_hops{0};

  std::uint64_t sent{0};
  std::uint64_t acked{0};
  double coap_pdr{1.0};
  double ll_pdr{1.0};
  std::uint64_t conn_losses{0};
  std::uint64_t reconnects{0};
  std::uint64_t pktbuf_drops{0};
  std::uint64_t link_down_drops{0};
  // Flow-control drop attribution (tail-drop above stays pktbuf_drops).
  std::uint64_t backpressure_drops{0};  // bounded-TX-queue admission refusals
  std::uint64_t breaker_drops{0};       // shed while a circuit breaker was open
  std::uint64_t coap_retransmissions{0};  // CON mode only
  std::uint64_t coap_timeouts{0};
  sim::Duration rtt_p50;
  sim::Duration rtt_p99;
  sim::Duration rtt_max;

  // Recovery metrics (zero / 1.0 when no faults were configured).
  std::uint64_t faults_injected{0};
  std::uint64_t losses_injected{0};   // supervision timeouts inside fault windows
  std::uint64_t losses_emergent{0};   // ... outside them (shading et al.)
  std::uint64_t link_downs{0};
  std::uint64_t link_ups{0};
  sim::Duration reconnect_p50;        // per-link down-to-up time
  sim::Duration reconnect_max;
  sim::Duration repair_to_delivery_p50;
  double pdr_pre_fault{1.0};          // sliding windows around fault events
  double pdr_during_fault{1.0};
  double pdr_post_fault{1.0};

  /// Observability totals from the obs::Registry (pktbuf watermarks, radio
  /// claim outcomes, recorded trace events). Campaign writers fold these into
  /// JSON/CSV next to the fixed fields above.
  std::map<std::string, double> counters;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs to the end of the configured duration, stops the producers and
  /// runs the drain (call once; it continues from where run_until left off).
  void run();
  /// Advances the simulation to absolute time `t` (for timeline probing).
  void run_until(sim::TimePoint t);

  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  /// The active link backend (never null after construction).
  [[nodiscard]] core::LinkBackend& backend() { return *backend_; }
  /// Non-null for BLE-connection experiments.
  [[nodiscard]] ble::BleWorld* ble_world();
  [[nodiscard]] ieee802154::Network154* net154();
  /// Non-null for mesh / adv experiments.
  [[nodiscard]] mesh::MeshWorld* mesh_world();
  /// Non-null when the topology was procedurally generated (config_.topo).
  [[nodiscard]] const topo::GeneratedWorld* generated_world() const {
    return geo_.get();
  }

  [[nodiscard]] net::IpStack& stack(NodeId node);
  [[nodiscard]] ble::Controller* controller(NodeId node);
  [[nodiscard]] core::Statconn* statconn(NodeId node);
  /// Self-forming topologies only (null otherwise): the node's dynconn and
  /// RPL instance, and when every node first held an RPL rank.
  [[nodiscard]] core::Dynconn* dynconn(NodeId node);
  [[nodiscard]] net::Rpl* rpl(NodeId node);
  [[nodiscard]] std::optional<sim::TimePoint> formation_time() const {
    return formation_time_;
  }
  /// Non-null when faults or chaos mode are configured.
  [[nodiscard]] fault::FaultInjector* injector() { return injector_.get(); }
  [[nodiscard]] const Consumer& consumer() const { return *consumer_; }
  /// The typed-event recorder every layer reports into. Sinks follow the
  /// trace_* config keys; run() closes them after the drain.
  [[nodiscard]] obs::Recorder& recorder() { return recorder_; }

  [[nodiscard]] ExperimentSummary summary() const;

 private:
  void build_backend();
  void build_nodes();
  void install_routes();
  void start_rpl();
  void check_formation();
  void spawn_workload();
  void setup_faults();
  void on_node_crash(NodeId node);
  void on_node_reboot(NodeId node);
  void on_ble_link_event(NodeId listener, ble::Connection& conn, bool up,
                         ble::DisconnectReason reason);

  struct Node {
    // The netif the stack binds to is owned by the backend; stack and
    // producer live in arena_ (destroyed before the backend, after the
    // consumer — the same relative order the unique_ptr members had).
    net::IpStack* stack{nullptr};
    Producer* producer{nullptr};
    net::Rpl* rpl{nullptr};  // self-forming topologies only
  };

  ExperimentConfig config_;
  std::unique_ptr<topo::GeneratedWorld> geo_;
  sim::Simulator sim_;
  obs::Recorder recorder_;
  Metrics metrics_;
  // One backend is active per experiment; the typed pointers alias backend_
  // for the flavour-specific accessors (ble_world, statconn, ...).
  std::unique_ptr<core::LinkBackend> backend_;
  BleConnBackend* ble_backend_{nullptr};
  Ieee154Backend* i154_backend_{nullptr};
  mesh::MeshBackend* mesh_backend_{nullptr};
  sim::Arena arena_;
  std::map<NodeId, Node> nodes_;
  // topology.parent as an id-indexed vector for the lazy route resolvers'
  // tree walk (see install_routes).
  std::vector<NodeId> route_parent_;
  std::unique_ptr<Consumer> consumer_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::optional<sim::TimePoint> formation_time_;
  bool ran_{false};
};

}  // namespace mgap::testbed
