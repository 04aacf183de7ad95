#pragma once
// Source-tree fingerprint baked in at build time (cmake/gen_build_info.cmake):
// "git:<short-hash>" with a "+dirty" suffix for uncommitted changes, or
// "unknown" outside a git checkout. Campaign JSON/CSV outputs embed it so
// result files are traceable to the code that produced them; writers that
// need byte-stable output across commits (perfbench's fingerprints) omit it;
// the golden tests drop its line before comparing.

namespace mgap::sim {

[[nodiscard]] const char* code_version();

}  // namespace mgap::sim
