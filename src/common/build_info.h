#ifndef MFGCP_COMMON_BUILD_INFO_H_
#define MFGCP_COMMON_BUILD_INFO_H_

// Build provenance baked in at configure time (src/CMakeLists.txt stamps
// the MFGCP_BUILD_* definitions on mfgcp_common). Surfaced as the
// `build.info` gauge family on the admin /metrics endpoint
// (obs/exporter.h) and stamped into the JSON context of the Google
// Benchmark binaries (bench::GoogleBenchmarkMain), so
// scripts/compare_bench.py can tell which build produced a baseline.

namespace mfg::common {

struct BuildInfo {
  const char* git_describe;  // `git describe --always --dirty`, or "unknown".
  const char* compiler;      // e.g. "GNU 13.2.0".
  const char* build_type;    // CMAKE_BUILD_TYPE, or "unspecified".
  bool obs_enabled;          // MFGCP_OBS
  bool faults_enabled;       // MFGCP_FAULTS
  bool simd_enabled;         // MFGCP_SIMD
};

// Static storage; the pointers stay valid for the process lifetime.
const BuildInfo& GetBuildInfo();

}  // namespace mfg::common

#endif  // MFGCP_COMMON_BUILD_INFO_H_
