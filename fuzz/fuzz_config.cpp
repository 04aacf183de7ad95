// Fuzz target: the experiment-description and campaign-spec parsers — the
// only components that consume user-authored files. Both must either return
// a config or throw their documented std::runtime_error; on success, the
// render must parse back to a config that renders identically
// (render(parse(render(c))) == render(c): a save/load cycle loses nothing).

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "campaign/spec.hpp"
#include "testbed/config_file.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text{reinterpret_cast<const char*>(data), size};

  std::optional<mgap::testbed::ExperimentConfig> cfg;
  try {
    cfg = mgap::testbed::parse_experiment_config(text);
  } catch (const std::runtime_error&) {
  }
  if (cfg.has_value()) {
    const std::string rendered = mgap::testbed::render_experiment_config(*cfg);
    std::string again;
    try {
      again = mgap::testbed::render_experiment_config(
          mgap::testbed::parse_experiment_config(rendered));
    } catch (const std::runtime_error&) {
      std::abort();  // the renderer emitted something the parser rejects
    }
    if (again != rendered) std::abort();  // the save/load cycle changed the config
  }

  try {
    (void)mgap::campaign::parse_campaign_spec(text);
  } catch (const std::runtime_error&) {
  }
  try {
    (void)mgap::campaign::parse_seed_list(text);
  } catch (const std::runtime_error&) {
  }
  return 0;
}
