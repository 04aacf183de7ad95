#pragma once
// Trace categories, mirroring the paper's per-node STDIO event dump
// (section 4.2): sinks subscribe by category. The typed binary events of
// obs::Recorder (src/obs/) carry one of these categories, and the
// `trace.categories` config key selects them with the mask functions below.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mgap::sim {

enum class TraceCat : std::uint8_t {
  kLinkLayer,   // connection events, misses, drops
  kGap,         // advertising / scanning / connect
  kL2cap,       // channel open/close, credits
  kNet,         // IP forwarding, pktbuf drops
  kApp,         // CoAP request/response
  kEnergy,
  kFault,       // injected fault begin/end
  kMesh,        // mesh relay / cache / segmentation
};

inline constexpr std::size_t kTraceCatCount = 8;

/// Bit mask with every category subscribed.
inline constexpr std::uint32_t kAllTraceCats = (1u << kTraceCatCount) - 1;

[[nodiscard]] constexpr std::uint32_t trace_cat_bit(TraceCat cat) {
  return 1u << static_cast<std::uint32_t>(cat);
}

[[nodiscard]] std::string_view to_string(TraceCat cat);
[[nodiscard]] std::optional<TraceCat> trace_cat_from_string(std::string_view name);

/// Parses a comma-separated category list ("ll,net,app", or "all") into a
/// subscribe mask. Throws std::runtime_error naming the offending token.
[[nodiscard]] std::uint32_t parse_trace_cat_mask(std::string_view list);

/// Renders a mask back to the comma-separated list form ("all" when full).
[[nodiscard]] std::string render_trace_cat_mask(std::uint32_t mask);

}  // namespace mgap::sim
