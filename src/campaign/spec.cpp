#include "campaign/spec.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/number.hpp"

namespace mgap::campaign {

using sim::split;
using sim::trim;

std::size_t CampaignSpec::grid_size() const {
  std::size_t n = 1;
  for (const Axis& axis : axes) n *= axis.values.size();
  return n;
}

std::size_t CampaignSpec::cell_count() const {
  return grid_size() * effective_seeds().size();
}

std::vector<std::uint64_t> CampaignSpec::effective_seeds() const {
  return seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;
}

std::string CellConfig::label() const {
  std::string out;
  for (const auto& [key, value] : assignment) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::vector<CellConfig> expand_grid(const CampaignSpec& spec) {
  for (const CampaignSpec::Axis& axis : spec.axes) {
    for (const std::vector<std::string>& step : axis.values) {
      if (step.size() != axis.keys.size()) {
        throw std::runtime_error{"campaign: sweep step size differs from its key count"};
      }
    }
  }
  std::vector<CellConfig> out;
  const std::size_t n = spec.grid_size();
  out.reserve(n);
  for (std::size_t index = 0; index < n; ++index) {
    CellConfig cell;
    cell.config_index = index;
    cell.config = spec.base;
    // Row-major decode: the first axis varies slowest.
    std::size_t rest = index;
    std::size_t stride = n;
    for (const CampaignSpec::Axis& axis : spec.axes) {
      stride /= axis.values.size();
      const std::size_t pick = rest / stride;
      rest %= stride;
      const std::vector<std::string>& step = axis.values[pick];
      for (std::size_t k = 0; k < axis.keys.size(); ++k) {
        testbed::apply_experiment_kv(cell.config, axis.keys[k], step[k]);
        cell.assignment.emplace_back(axis.keys[k], step[k]);
      }
    }
    try {
      testbed::validate(cell.config);
    } catch (const std::exception& e) {
      const std::string label = cell.label();
      throw std::runtime_error{"campaign " + (label.empty() ? "base" : "cell " + label) + ": " +
                               e.what()};
    }
    out.push_back(std::move(cell));
  }
  return out;
}

std::vector<std::uint64_t> parse_seed_list(std::string_view text) {
  text = trim(text);
  if (text.empty()) throw std::runtime_error{"campaign: empty seed list"};
  const auto seed = [](std::string_view s) {
    const auto v = sim::parse_uint(s);
    if (!v) throw std::runtime_error{"campaign: bad seed '" + std::string(s) + "'"};
    return *v;
  };
  std::vector<std::uint64_t> seeds;
  const auto dots = text.find("..");
  if (dots != std::string_view::npos && text.find(',') == std::string_view::npos) {
    const std::uint64_t lo = seed(trim(text.substr(0, dots)));
    const std::uint64_t hi = seed(trim(text.substr(dots + 2)));
    if (hi < lo) throw std::runtime_error{"campaign: seed range hi < lo"};
    if (hi - lo >= 100'000) throw std::runtime_error{"campaign: seed range too large"};
    for (std::uint64_t s = lo; s <= hi; ++s) seeds.push_back(s);
    return seeds;
  }
  for (const std::string_view part : split(text, ',')) {
    seeds.push_back(seed(part));
  }
  return seeds;
}

CampaignSpec parse_campaign_spec(std::string_view text) {
  CampaignSpec spec;
  // Checks each sweep value at parse time, so a typo fails before any cell
  // runs. A value's syntax does not depend on the other keys.
  testbed::ExperimentConfig scratch;
  const auto apply_line = [&](std::string_view key, std::string_view value,
                              std::size_t line_no) {
    if (key == "campaign") {
      spec.name = value;
      return;
    }
    if (key == "seeds") {
      spec.seeds = parse_seed_list(value);
      return;
    }
    // A comma makes the key a sweep axis; a single value configures the base.
    // A '|' in the key always declares an axis: it zips the keys together,
    // each comma-separated step a '|'-separated tuple with one value per key.
    // (No ExperimentConfig value contains a comma or a '|': ranges use ':',
    // chaos kinds '+', names are bare words — so both are unambiguous.)
    if (key.find('|') == std::string_view::npos && value.find(',') == std::string_view::npos) {
      testbed::apply_experiment_kv(spec.base, key, value);
      return;
    }
    const std::string where = "campaign line " + std::to_string(line_no) + ": ";
    CampaignSpec::Axis axis;
    for (const std::string_view k : split(key, '|')) {
      const auto sweeps_k = [k](const CampaignSpec::Axis& a) {
        return std::find(a.keys.begin(), a.keys.end(), k) != a.keys.end();
      };
      if (sweeps_k(axis) || std::any_of(spec.axes.begin(), spec.axes.end(), sweeps_k)) {
        throw std::runtime_error{where + "duplicate sweep axis '" + std::string(k) + "'"};
      }
      axis.keys.emplace_back(k);
    }
    for (const std::string_view step : split(value, ',')) {
      std::vector<std::string> tuple;
      for (const std::string_view part : split(step, '|')) {
        if (part.empty()) {
          throw std::runtime_error{where + "empty sweep value for '" + std::string(key) + "'"};
        }
        tuple.emplace_back(part);
      }
      if (tuple.size() != axis.keys.size()) {
        throw std::runtime_error{where + "'" + std::string(key) + "' wants " +
                                 std::to_string(axis.keys.size()) +
                                 " value(s) per step, got '" + std::string(step) + "'"};
      }
      for (std::size_t k = 0; k < tuple.size(); ++k) {
        testbed::apply_experiment_kv(scratch, axis.keys[k], tuple[k]);
      }
      axis.values.push_back(std::move(tuple));
    }
    spec.axes.push_back(std::move(axis));
  };
  testbed::for_each_key_value(text, "campaign", apply_line);
  return spec;
}

CampaignSpec load_campaign_spec(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"campaign: cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_campaign_spec(buf.str());
}

}  // namespace mgap::campaign
