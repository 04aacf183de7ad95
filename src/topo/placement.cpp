#include "topo/placement.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/rng.hpp"

namespace mgap::topo {

namespace {

/// Dedicated RNG stream id for placement draws: independent of every
/// simulator stream, so generating a world never perturbs the experiment's
/// drift/jitter/channel draws for the same seed.
constexpr std::uint64_t kPlacementStream = 0x746f706fULL;  // "topo"

struct RoomGrid {
  unsigned rx{1};
  unsigned ry{1};
  double room_w{0.0};
  double room_h{0.0};
};

RoomGrid room_grid(const TopoSpec& spec, double side) {
  RoomGrid g;
  if (spec.rooms_x > 0) {
    g.rx = spec.rooms_x;
    g.ry = spec.rooms_y;
  } else {
    // ~1 room per 9 nodes, near-square factorization.
    const unsigned rooms = std::max(1u, spec.nodes / 9u);
    g.rx = static_cast<unsigned>(std::ceil(std::sqrt(static_cast<double>(rooms))));
    g.ry = (rooms + g.rx - 1) / g.rx;
  }
  g.room_w = side / g.rx;
  g.room_h = side / g.ry;
  return g;
}

/// Interior walls with a centered door gap per shared room boundary. The
/// door keeps every pair of adjacent rooms radio-connectable line-of-sight,
/// so a dense-enough floorplan deployment stays formable.
std::vector<Wall> floorplan_walls(const RoomGrid& g) {
  std::vector<Wall> walls;
  const auto door = [](double span) { return std::min(1.0, span * 0.25); };
  for (unsigned k = 1; k < g.rx; ++k) {
    const double x = static_cast<double>(k) * g.room_w;
    for (unsigned r = 0; r < g.ry; ++r) {
      const double y0 = static_cast<double>(r) * g.room_h;
      const double y1 = y0 + g.room_h;
      const double half_gap = door(g.room_h) / 2.0;
      const double mid = (y0 + y1) / 2.0;
      walls.push_back(Wall{{x, y0}, {x, mid - half_gap}});
      walls.push_back(Wall{{x, mid + half_gap}, {x, y1}});
    }
  }
  for (unsigned k = 1; k < g.ry; ++k) {
    const double y = static_cast<double>(k) * g.room_h;
    for (unsigned c = 0; c < g.rx; ++c) {
      const double x0 = static_cast<double>(c) * g.room_w;
      const double x1 = x0 + g.room_w;
      const double half_gap = door(g.room_w) / 2.0;
      const double mid = (x0 + x1) / 2.0;
      walls.push_back(Wall{{x0, y}, {mid - half_gap, y}});
      walls.push_back(Wall{{mid + half_gap, y}, {x1, y}});
    }
  }
  return walls;
}

}  // namespace

Point Placement::position(NodeId id) const {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) {
    throw std::runtime_error{"topo: unknown node id " + std::to_string(id)};
  }
  return positions[static_cast<std::size_t>(it - ids.begin())];
}

bool Placement::has(NodeId id) const {
  return std::binary_search(ids.begin(), ids.end(), id);
}

Placement generate_placement(const TopoSpec& spec, std::uint64_t seed,
                             const std::vector<NodeId>& ids) {
  spec.validate();
  if (!spec.enabled()) throw std::runtime_error{"topo: generator is none"};
  if (ids.empty()) throw std::runtime_error{"topo: no nodes to place"};
  if (ids.size() != spec.nodes) {
    throw std::runtime_error{"topo: id list size != topo.nodes"};
  }
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] <= ids[i - 1]) {
      throw std::runtime_error{"topo: node ids must be strictly ascending"};
    }
  }

  Placement p;
  p.generator = spec.generator_name();
  p.seed = seed;
  const double side = spec.side();
  p.width = side;
  p.height = side;
  p.ids = ids;
  p.positions.reserve(ids.size());

  sim::Rng rng{seed, kPlacementStream};
  const std::size_t n = ids.size();

  switch (spec.generator) {
    case Generator::kGrid:
    case Generator::kJitterGrid: {
      const auto cols = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
      const std::size_t rows = (n + cols - 1) / cols;
      const double pitch_x = side / static_cast<double>(cols);
      const double pitch_y = side / static_cast<double>(rows);
      const double j = spec.generator == Generator::kJitterGrid ? spec.grid_jitter : 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t col = i % cols;
        const std::size_t row = i / cols;
        double x = (static_cast<double>(col) + 0.5) * pitch_x;
        double y = (static_cast<double>(row) + 0.5) * pitch_y;
        if (spec.generator == Generator::kJitterGrid) {
          // Draws happen even for jitter 0, so the jitter amplitude is a
          // pure displacement knob that never reshuffles the stream.
          x += rng.uniform_real(-j, j) * pitch_x * 0.5;
          y += rng.uniform_real(-j, j) * pitch_y * 0.5;
        }
        p.positions.push_back(Point{std::clamp(x, 0.0, side), std::clamp(y, 0.0, side)});
      }
      break;
    }
    case Generator::kRgg: {
      for (std::size_t i = 0; i < n; ++i) {
        const double x = rng.uniform_real(0.0, side);
        const double y = rng.uniform_real(0.0, side);
        p.positions.push_back(Point{x, y});
      }
      break;
    }
    case Generator::kFloorplan: {
      const RoomGrid g = room_grid(spec, side);
      p.walls = floorplan_walls(g);
      const std::size_t rooms = static_cast<std::size_t>(g.rx) * g.ry;
      // Keep nodes off the walls so a node never sits inside the attenuator.
      const double margin_x = std::min(0.3, g.room_w * 0.1);
      const double margin_y = std::min(0.3, g.room_h * 0.1);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t room = i % rooms;
        const double rx0 = static_cast<double>(room % g.rx) * g.room_w;
        const double ry0 = static_cast<double>(room / g.rx) * g.room_h;
        const double x = rng.uniform_real(rx0 + margin_x, rx0 + g.room_w - margin_x);
        const double y = rng.uniform_real(ry0 + margin_y, ry0 + g.room_h - margin_y);
        p.positions.push_back(Point{x, y});
      }
      break;
    }
    case Generator::kNone:
      break;  // unreachable: guarded above
  }
  return p;
}

Placement generate_placement(const TopoSpec& spec, std::uint64_t seed) {
  std::vector<NodeId> ids;
  ids.reserve(spec.nodes);
  for (NodeId i = 1; i <= spec.nodes; ++i) ids.push_back(i);
  return generate_placement(spec, seed, ids);
}

}  // namespace mgap::topo
