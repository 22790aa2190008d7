#pragma once
// Environment metadata for the JSON artifacts the acceptance benches write
// (bench_fleet, bench_streaming, ablation_policy): each embeds this envelope
// so a reader can tell which machine and revision produced it.

#include <string>

#include "util/json.hpp"

namespace mvs::util {

struct MachineInfo {
  std::string os;        ///< kernel name + release (uname)
  std::string cpu;       ///< CPU model string (/proc/cpuinfo), if available
  unsigned hardware_threads = 0;
};

MachineInfo machine_info();

/// Current git revision (12 hex chars), resolved by walking up from `start_dir`
/// to the repository root and reading .git/HEAD (+ refs or packed-refs).
/// Empty string when no repository is found.
std::string git_revision(const std::string& start_dir = ".");

/// JSON object with os/cpu/threads/build_type/git_rev/generated_unix —
/// the common envelope of every bench artifact.
Json bench_env_json();

}  // namespace mvs::util
