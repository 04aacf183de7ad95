#pragma once
// Static experiment descriptions — the C++ twin of the paper's YML-based
// experimentation framework (Appendix A.3: "Each experiment is fully
// described in form of a static experiment description file. ... This static
// experiment description ensures repeatability.")
//
// Format: one `key = value` per line, `#` comments. Keys apply in file
// order, so a repeated key's last value wins. See examples/experiments/*.conf
// for the configurations used in the paper. Every key is one row of the key
// table in config_file.cpp, which drives parsing and rendering alike.

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "testbed/experiment.hpp"

namespace mgap::testbed {

/// The line reader shared by the `.conf` and `.campaign` parsers: calls
/// `fn(key, value, line_no)` for every `key = value` line in file order,
/// skipping blanks and `#` comments. Throws "<what> line N: expected key =
/// value" on any other line.
void for_each_key_value(
    std::string_view text, std::string_view what,
    const std::function<void(std::string_view, std::string_view, std::size_t)>& fn);

/// Applies one `key = value` assignment to `cfg`. Throws std::runtime_error on
/// a malformed value or an unknown key (typo guard). This is the single point
/// through which both whole-file parsing and campaign grid expansion mutate a
/// configuration, so sweep axes accept exactly the file syntax.
void apply_experiment_kv(ExperimentConfig& cfg, std::string_view key, std::string_view value);

/// Checks a configuration however it was built: each key's value against
/// its row's bounds (a `fault.N` against its kind's fields), then the rules
/// that span keys. Throws std::runtime_error with the text a parse of the
/// same value gives. Both parsers and the Experiment constructor run it.
void validate(const ExperimentConfig& cfg);

/// Every key the parser accepts, in render order; a name ending in '.' is a
/// prefix (e.g. every `fault.N`).
[[nodiscard]] std::vector<std::string_view> experiment_config_keys();

/// Parses a full experiment description; throws std::runtime_error naming
/// the offending key (not its line) on malformed input. Unknown keys are
/// rejected (typo guard).
[[nodiscard]] ExperimentConfig parse_experiment_config(std::string_view text);

/// Loads and parses a description file.
[[nodiscard]] ExperimentConfig load_experiment_config(const std::string& path);

/// Renders the effective configuration back into the file format (the
/// framework's artifact (i): the static experiment description). Parsing the
/// result gives back the same configuration.
[[nodiscard]] std::string render_experiment_config(const ExperimentConfig& config);

}  // namespace mgap::testbed
