// Shared helpers for the benchmark executables.
//
// 1. Hardware provenance: every BENCH_*.json records the host it ran on —
//    core count and detected SIMD ISA — plus the settings the
//    run was launched with, so numbers from different machines/configs are
//    never compared blind. Plain-main benches embed hardware_json_fields()
//    into their hand-written JSON; Google Benchmark targets get the same
//    facts via AddCustomContext (inside the JSON "context" object).
// 2. run_all(): shared main() body for the Google Benchmark targets — in
//    addition to the console report, write machine-readable JSON
//    (BENCH_<name>.json) by default so the perf trajectory can be tracked
//    across PRs. An explicit --benchmark_out on the command line wins.
//    Compiled only when the includer already included benchmark.h; the
//    plain-main benches include this header without it.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.hpp"
#include "obs/metrics.hpp"

namespace essns::benchmain {

/// Host facts every benchmark JSON should carry.
struct HardwareInfo {
  unsigned cores = 0;        ///< logical cpus the runtime reports
  simd::Isa simd_isa = simd::Isa::kScalar;  ///< best ISA this host supports
};

inline HardwareInfo detect_hardware() {
  HardwareInfo info;
  info.cores = std::max(1u, std::thread::hardware_concurrency());
  info.simd_isa = simd::detected_isa();
  return info;
}

/// The provenance facts as JSON object *fields* (no surrounding braces), so
/// plain-main benches can splice them into their hand-written documents:
///   "cores": 64, "simd_detected": "avx2"
inline std::string hardware_json_fields() {
  const HardwareInfo info = detect_hardware();
  std::string json;
  json += "\"cores\": " + std::to_string(info.cores);
  json += std::string(", \"simd_detected\": \"") +
          simd::to_string(info.simd_isa) + "\"";
  return json;
}

/// The currently installed metrics registry's scrape as one JSON object
/// field ("metrics": {...}) for splicing into a BENCH_*.json, so every
/// benchmark document carries the runtime counters (sweep, cache, pool)
/// behind its headline numbers. "metrics": null when no registry is
/// installed.
inline std::string metrics_json_field() {
  obs::MetricsRegistry* registry = obs::metrics_registry();
  if (registry == nullptr) return "\"metrics\": null";
  return "\"metrics\": " + registry->json();
}

}  // namespace essns::benchmain

// Compiled only when the includer pulled in Google Benchmark first (the
// gbench targets do; the plain-main benches must not — even including
// benchmark.h plants a static initializer that needs the library linked).
#ifdef BENCHMARK_BENCHMARK_H_

namespace essns::benchmain {

inline int run_all(int argc, char** argv, const char* default_out) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  std::string out_flag, format_flag;
  if (!has_out) {
    out_flag = std::string("--benchmark_out=") + default_out;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  const HardwareInfo info = detect_hardware();
  benchmark::AddCustomContext("cores", std::to_string(info.cores));
  benchmark::AddCustomContext("simd_detected",
                              simd::to_string(info.simd_isa));
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace essns::benchmain

#endif  // BENCHMARK_BENCHMARK_H_
