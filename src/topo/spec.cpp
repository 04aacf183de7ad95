#include "topo/spec.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/number.hpp"

namespace mgap::topo {

namespace {

double parse_number(const std::string& value, const std::string& key) {
  const auto v = sim::parse_real(value);
  if (!v) throw std::runtime_error{"config: bad number for '" + key + "'"};
  return *v;
}

double parse_positive(const std::string& value, const std::string& key) {
  const double v = parse_number(value, key);
  if (!(v > 0.0)) throw std::runtime_error{"config: '" + key + "' must be > 0"};
  return v;
}

/// A non-negative count; a fraction truncates, a value past `unsigned` is bad.
unsigned to_count(double v, const std::string& key) {
  if (v > std::numeric_limits<unsigned>::max()) {
    throw std::runtime_error{"config: bad number for '" + key + "'"};
  }
  return static_cast<unsigned>(v);
}

}  // namespace

std::string TopoSpec::generator_name() const {
  switch (generator) {
    case Generator::kNone: return "none";
    case Generator::kGrid: return "grid";
    case Generator::kJitterGrid: return "jitter_grid";
    case Generator::kRgg: return "rgg";
    case Generator::kFloorplan: return "floorplan";
  }
  return "none";
}

double TopoSpec::side() const {
  if (area > 0.0) return area;
  // density is nodes per 100 m^2: side = sqrt(n * 100 / density).
  return std::sqrt(static_cast<double>(nodes) * 100.0 / density);
}

void TopoSpec::validate() const {
  if (!enabled()) return;
  if (nodes < 2) throw std::runtime_error{"topo: need at least 2 nodes"};
  if (nodes > 100'000) throw std::runtime_error{"topo: node count too large"};
  if (area < 0.0) throw std::runtime_error{"topo: area must be >= 0"};
  if (area == 0.0 && !(density > 0.0)) {
    throw std::runtime_error{"topo: density must be > 0 when area is derived"};
  }
  if (!(range > 0.0)) throw std::runtime_error{"topo: range must be > 0"};
  if (max_degree == 1) {
    throw std::runtime_error{"topo: max_degree 1 cannot form a tree (use 0 or >= 2)"};
  }
  if (grid_jitter < 0.0 || grid_jitter > 1.0) {
    throw std::runtime_error{"topo: grid_jitter must be in [0, 1]"};
  }
  if ((rooms_x == 0) != (rooms_y == 0)) {
    throw std::runtime_error{"topo: rooms must set both dimensions (e.g. 4x3)"};
  }
  if (!(fade_margin_db > 0.0)) {
    throw std::runtime_error{"topo: fade_margin_db must be > 0"};
  }
  if (wall_loss_db < 0.0) throw std::runtime_error{"topo: wall_loss_db must be >= 0"};
  if (!(path_loss_exp > 0.0)) throw std::runtime_error{"topo: path_loss_exp must be > 0"};
}

Generator parse_generator(const std::string& name) {
  if (name == "none" || name == "off") return Generator::kNone;
  if (name == "grid") return Generator::kGrid;
  if (name == "jitter_grid") return Generator::kJitterGrid;
  if (name == "rgg") return Generator::kRgg;
  if (name == "floorplan") return Generator::kFloorplan;
  throw std::runtime_error{"config: unknown topo.generator '" + name + "'"};
}

bool apply_topo_kv(TopoSpec& spec, const std::string& key, const std::string& value) {
  if (key.rfind("topo.", 0) != 0) return false;
  const std::string sub = key.substr(5);
  if (sub == "generator") {
    spec.generator = parse_generator(value);
  } else if (sub == "nodes") {
    spec.nodes = to_count(parse_positive(value, key), key);
  } else if (sub == "area") {
    const double v = parse_number(value, key);
    if (v < 0.0) throw std::runtime_error{"config: 'topo.area' must be >= 0"};
    spec.area = v;
  } else if (sub == "density") {
    spec.density = parse_positive(value, key);
  } else if (sub == "range") {
    spec.range = parse_positive(value, key);
  } else if (sub == "max_degree") {
    const double v = parse_number(value, key);
    if (v < 0.0) throw std::runtime_error{"config: 'topo.max_degree' must be >= 0"};
    spec.max_degree = to_count(v, key);
  } else if (sub == "grid_jitter") {
    spec.grid_jitter = parse_number(value, key);
  } else if (sub == "rooms") {
    // "4x3" -> rooms_x = 4, rooms_y = 3.
    const auto x = value.find('x');
    if (x == std::string::npos) {
      throw std::runtime_error{"config: 'topo.rooms' wants WxH, e.g. 4x3"};
    }
    spec.rooms_x = to_count(parse_positive(value.substr(0, x), key), key);
    spec.rooms_y = to_count(parse_positive(value.substr(x + 1), key), key);
  } else if (sub == "wall_loss_db") {
    spec.wall_loss_db = parse_number(value, key);
  } else if (sub == "tx_power_dbm") {
    spec.tx_power_dbm = parse_number(value, key);
  } else if (sub == "path_loss_exp") {
    spec.path_loss_exp = parse_positive(value, key);
  } else if (sub == "sensitivity_dbm") {
    spec.sensitivity_dbm = parse_number(value, key);
  } else if (sub == "fade_margin_db") {
    spec.fade_margin_db = parse_positive(value, key);
  } else if (sub == "seed") {
    const auto seed = sim::parse_uint(value);
    if (!seed) throw std::runtime_error{"config: bad number for '" + key + "'"};
    spec.seed = *seed;
  } else {
    throw std::runtime_error{"config: unknown key '" + key + "'"};
  }
  return true;
}

std::string render_topo_spec(const TopoSpec& spec) {
  if (!spec.enabled()) return {};
  std::ostringstream out;
  out << "topo.generator = " << spec.generator_name() << "\n";
  out << "topo.nodes = " << spec.nodes << "\n";
  if (spec.area > 0.0) {
    out << "topo.area = " << sim::format_real(spec.area) << "\n";
  } else {
    out << "topo.density = " << sim::format_real(spec.density) << "\n";
  }
  out << "topo.range = " << sim::format_real(spec.range) << "\n";
  // max_degree and the radio parameters render only off their defaults.
  const TopoSpec defaults;
  if (spec.max_degree != defaults.max_degree) {
    out << "topo.max_degree = " << spec.max_degree << "\n";
  }
  if (spec.generator == Generator::kJitterGrid) {
    out << "topo.grid_jitter = " << sim::format_real(spec.grid_jitter) << "\n";
  }
  if (spec.generator == Generator::kFloorplan) {
    if (spec.rooms_x > 0) {
      out << "topo.rooms = " << spec.rooms_x << "x" << spec.rooms_y << "\n";
    }
    out << "topo.wall_loss_db = " << sim::format_real(spec.wall_loss_db) << "\n";
  }
  if (spec.tx_power_dbm != defaults.tx_power_dbm) {
    out << "topo.tx_power_dbm = " << sim::format_real(spec.tx_power_dbm) << "\n";
  }
  if (spec.path_loss_exp != defaults.path_loss_exp) {
    out << "topo.path_loss_exp = " << sim::format_real(spec.path_loss_exp) << "\n";
  }
  if (spec.sensitivity_dbm != defaults.sensitivity_dbm) {
    out << "topo.sensitivity_dbm = " << sim::format_real(spec.sensitivity_dbm) << "\n";
  }
  if (spec.fade_margin_db != defaults.fade_margin_db) {
    out << "topo.fade_margin_db = " << sim::format_real(spec.fade_margin_db) << "\n";
  }
  if (spec.seed != 0) out << "topo.seed = " << spec.seed << "\n";
  return out.str();
}

}  // namespace mgap::topo
