#pragma once
// Link-backend abstraction: the seam between the experiment harness and a
// concrete link architecture. The paper's contribution is the BLE
// connection-oriented path (nimble_netif + statconn); the comparison question
// it raises — what does multi-hop IP *cost* on that link layer? — needs the
// alternatives to be peers, not special cases. A LinkBackend owns everything
// below net::Netif for one radio flavour: the shared medium, per-node link
// state, and connection management. The Experiment owns everything above it
// (IP stacks, workload, faults, metrics) and drives each backend through the
// same two-phase bring-up so a config key (`link.backend`) selects the
// architecture without touching the rest of the stack.
//
// Implementations:
//   * testbed::BleConnBackend  — BLE L2CAP connections + statconn (the paper),
//                                or dynconn on a self-forming topology
//   * testbed::Ieee154Backend  — IEEE 802.15.4 CSMA/CA (section 5.3 baseline)
//   * mesh::MeshBackend        — Bluetooth Mesh managed flooding (kMesh) and
//                                IPv6-over-advertising unicast (kAdv)
//
// Bring-up protocol (the order is load-bearing: sequentially numbered RNG
// streams pin the byte-identity of pre-refactor BLE runs):
//   1. construct backend          (world + shared-medium RNG streams)
//   2. per node, in topology order:
//        netif = add_node(id)     (per-node draws that predate the IP stack)
//        ... caller builds the IP stack on `netif` ...
//        finish_node(id)          (connection managers, listeners)
//   3. add_link(...) per topology edge
//   4. start()

#include <cstdint>
#include <string>
#include <string_view>

#include "net/netif.hpp"
#include "obs/registry.hpp"
#include "sim/ids.hpp"
#include "sim/time.hpp"

namespace mgap::core {

enum class LinkBackendKind : std::uint8_t {
  kBle,         // BLE connections (L2CAP CoC + statconn)
  kIeee802154,  // IEEE 802.15.4 CSMA/CA
  kMesh,        // Bluetooth Mesh managed flooding over the advertising bearer
  kAdv,         // IPv6 over BLE advertisements (unicast, routed, no flooding)
};

/// Canonical config token ("ble", "802154", "mesh", "adv").
[[nodiscard]] const char* to_string(LinkBackendKind kind);

/// Parses a `link.backend` config value. Accepts the canonical tokens plus
/// the legacy `radio` spelling "ieee802154". Throws std::runtime_error with a
/// deterministic message naming the offending value.
[[nodiscard]] LinkBackendKind parse_link_backend_kind(const std::string& value);

/// Link-level outcome fields the experiment summary reports per backend.
struct LinkSummary {
  double ll_pdr{1.0};
  std::uint64_t conn_losses{0};  // connection-oriented backends only
  std::uint64_t reconnects{0};
};

class LinkBackend {
 public:
  virtual ~LinkBackend() = default;

  LinkBackend(const LinkBackend&) = delete;
  LinkBackend& operator=(const LinkBackend&) = delete;

  [[nodiscard]] virtual LinkBackendKind kind() const = 0;

  /// Phase 2a: creates the node's link state and returns the netif the
  /// caller's IP stack binds to. Performs exactly the per-node RNG draws that
  /// historically preceded IP-stack construction (clock drift, controller
  /// streams). Nodes are added in topology order.
  virtual net::Netif& add_node(NodeId id) = 0;

  /// Phase 2b: runs after the caller attached its IP stack to the netif —
  /// connection managers and link listeners are created here.
  virtual void finish_node(NodeId /*id*/) {}

  /// Phase 3: one call per topology edge. Connectionless backends ignore it.
  virtual void add_link(NodeId /*coordinator*/, NodeId /*subordinate*/) {}

  /// Phase 4: called once after every node and link exists.
  virtual void start() {}

  /// True when one netif send() reaches any node in the connected world
  /// (managed flooding): IP routing then collapses to a single logical hop
  /// and the experiment installs direct host routes instead of a tree.
  [[nodiscard]] virtual bool transitive() const { return false; }

  [[nodiscard]] virtual LinkSummary link_summary() const = 0;

  /// Folds backend-specific counters into the summary registry. Counter
  /// names are stable API (campaign CSV columns derive from them); backends
  /// follow the established byte-stability rule — names that can appear in
  /// pre-existing configurations are registered only when nonzero.
  virtual void fold_counters(obs::Registry& /*reg*/) const {}

  /// Per-node energy accounting over `elapsed` (the §5.4 calibration):
  /// registers "energy.charge_uc" per node and the fleet-mean
  /// "energy.avg_current_ua". Only called when `energy.account` is on.
  virtual void fold_energy(obs::Registry& /*reg*/, sim::Duration /*elapsed*/) const {}

  /// Node-crash fault hooks: RAM and volatile link state are gone; the radio
  /// is off until reboot.
  virtual void on_node_crash(NodeId /*id*/) {}
  virtual void on_node_reboot(NodeId /*id*/) {}

 protected:
  LinkBackend() = default;
};

}  // namespace mgap::core
