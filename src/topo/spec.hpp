#pragma once
// TopoSpec: the declarative description of a procedurally generated world.
// Everything downstream — placement, walls, the geometric channel model, the
// routing tree — is a deterministic function of (spec, seed), so a generated
// 1000-node experiment is exactly as repeatable as the hand-wired 15-node
// ones. Each field is one `topo.*` row of the experiment-config key table
// (testbed/config_file.cpp).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mgap::topo {

/// The most nodes a world may have (`topo.nodes`, `starN`, `self_formingN`).
inline constexpr unsigned kMaxNodes = 100'000;

enum class Generator : std::uint8_t {
  kNone,        // hand-wired testbed topologies (tree15/line15/star)
  kGrid,        // regular square grid
  kJitterGrid,  // grid with per-node uniform jitter
  kRgg,         // random geometric graph: uniform placement, range links
  kFloorplan,   // rooms with attenuating walls and door gaps
};

struct TopoSpec {
  Generator generator{Generator::kNone};
  unsigned nodes{15};

  /// Deployment area side [m] (square). 0 derives the side from `density`,
  /// which keeps the mean node degree constant across a `topo.nodes` sweep —
  /// the regime the Bluetooth Mesh scalability studies explore.
  double area{0.0};
  /// Nodes per 100 m², used only when `area` is 0.
  double density{8.0};

  /// Link-planning range [m]: the maximum distance the topology builder
  /// accepts for a routing-tree edge. Links beyond it may still exist
  /// physically (the channel model decides), they are just never planned.
  double range{10.0};

  /// Children-per-parent cap in the routing tree (0 = unlimited). A BLE node
  /// services every connection from one radio, so an uncapped hub — e.g. the
  /// consumer adopting all ~25 in-range neighbors at density 8 — would
  /// saturate its schedule and churn supervision timeouts. The cap pushes
  /// excess nodes one hop deeper instead.
  unsigned max_degree{8};

  /// Jitter amplitude as a fraction of the grid pitch (jitter_grid only).
  double grid_jitter{0.3};

  /// Floorplan room grid; 0x0 picks a near-square factorization of ~1 room
  /// per 9 nodes.
  unsigned rooms_x{0};
  unsigned rooms_y{0};

  // --- geometric channel model (log-distance path loss) ------------------
  double tx_power_dbm{0.0};
  double path_loss_exp{2.2};       // indoor 2.4 GHz, light clutter
  double ref_loss_db{40.0};        // path loss at 1 m
  double sensitivity_dbm{-94.0};   // BLE 1M PHY receiver sensitivity
  double fade_margin_db{12.0};     // margin at which the extra PER reaches 0
  double wall_loss_db{6.0};        // attenuation per crossed wall

  /// Placement seed; 0 inherits the experiment seed, so every campaign
  /// replication samples a fresh world. A nonzero value pins the placement
  /// while the traffic seeds vary.
  std::uint64_t seed{0};

  [[nodiscard]] bool enabled() const { return generator != Generator::kNone; }
  /// "grid", "jitter_grid", "rgg", "floorplan" (or "none").
  [[nodiscard]] std::string generator_name() const;
  /// Resolved deployment side [m] (`area`, or derived from `density`).
  [[nodiscard]] double side() const;

  /// Throws std::runtime_error unless an enabled spec's fields agree: a
  /// derived area needs a density, `rooms` sets both dimensions or neither,
  /// `max_degree` 1 forms no tree. Each field's bounds are its `topo.*` row's.
  void validate() const;
};

/// "grid", "jitter_grid", "rgg", "floorplan", or "none"/"off"; else nullopt.
[[nodiscard]] std::optional<Generator> parse_generator(std::string_view name);

}  // namespace mgap::topo
