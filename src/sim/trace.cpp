#include "sim/trace.hpp"

#include <stdexcept>

#include "sim/number.hpp"

namespace mgap::sim {

std::string_view to_string(TraceCat cat) {
  switch (cat) {
    case TraceCat::kLinkLayer: return "ll";
    case TraceCat::kGap: return "gap";
    case TraceCat::kL2cap: return "l2cap";
    case TraceCat::kNet: return "net";
    case TraceCat::kApp: return "app";
    case TraceCat::kEnergy: return "energy";
    case TraceCat::kFault: return "fault";
    case TraceCat::kMesh: return "mesh";
  }
  return "?";
}

std::optional<TraceCat> trace_cat_from_string(std::string_view name) {
  for (std::size_t i = 0; i < kTraceCatCount; ++i) {
    const auto cat = static_cast<TraceCat>(i);
    if (name == to_string(cat)) return cat;
  }
  return std::nullopt;
}

std::uint32_t parse_trace_cat_mask(std::string_view list) {
  if (trim(list) == "all") return kAllTraceCats;
  std::uint32_t mask = 0;
  for (const std::string_view token : split(list, ',')) {
    if (token.empty()) continue;
    const auto cat = trace_cat_from_string(token);
    if (!cat) {
      throw std::runtime_error{"trace: unknown category '" + std::string(token) + "'"};
    }
    mask |= trace_cat_bit(*cat);
  }
  if (mask == 0) throw std::runtime_error{"trace: empty category list"};
  return mask;
}

std::string render_trace_cat_mask(std::uint32_t mask) {
  if ((mask & kAllTraceCats) == kAllTraceCats) return "all";
  std::string out;
  for (std::size_t i = 0; i < kTraceCatCount; ++i) {
    const auto cat = static_cast<TraceCat>(i);
    if ((mask & trace_cat_bit(cat)) == 0) continue;
    if (!out.empty()) out += ',';
    out += to_string(cat);
  }
  return out;
}

}  // namespace mgap::sim
