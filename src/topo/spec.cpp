#include "topo/spec.hpp"

#include <cmath>
#include <iterator>
#include <stdexcept>

namespace mgap::topo {

namespace {

/// Indexed by Generator.
constexpr std::string_view kGeneratorNames[] = {"none", "grid", "jitter_grid", "rgg",
                                                "floorplan"};

}  // namespace

std::string TopoSpec::generator_name() const {
  return std::string(kGeneratorNames[static_cast<std::size_t>(generator)]);
}

double TopoSpec::side() const {
  if (area > 0.0) return area;
  // density is nodes per 100 m^2: side = sqrt(n * 100 / density).
  return std::sqrt(static_cast<double>(nodes) * 100.0 / density);
}

void TopoSpec::validate() const {
  if (!enabled()) return;
  if (area == 0.0 && !(density > 0.0)) {
    throw std::runtime_error{"topo: density must be > 0 when area is derived"};
  }
  if ((rooms_x == 0) != (rooms_y == 0)) {
    throw std::runtime_error{"topo: rooms must set both dimensions (e.g. 4x3)"};
  }
  if (max_degree == 1) {
    throw std::runtime_error{"topo: max_degree 1 cannot form a tree (use 0 or >= 2)"};
  }
}

std::optional<Generator> parse_generator(std::string_view name) {
  if (name == "off") return Generator::kNone;
  for (std::size_t i = 0; i < std::size(kGeneratorNames); ++i) {
    if (name == kGeneratorNames[i]) return static_cast<Generator>(i);
  }
  return std::nullopt;
}

}  // namespace mgap::topo
