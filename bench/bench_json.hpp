// Shared helpers for the benchmark executables: hardware provenance (every
// BENCH_*.json records the host it ran on — core count and detected SIMD
// ISA — so numbers from different machines are never compared blind) and
// the metrics scrape behind each run's headline numbers.
#pragma once

#include <algorithm>
#include <string>
#include <thread>

#include "common/simd.hpp"
#include "obs/metrics.hpp"

namespace essns::benchmain {

/// The host's provenance — logical CPUs and the best SIMD ISA it supports —
/// as JSON object *fields* (no surrounding braces), so the benches can
/// splice them into their hand-written documents:
///   "cores": 64, "simd_detected": "avx2"
inline std::string hardware_json_fields() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return "\"cores\": " + std::to_string(cores) + ", \"simd_detected\": \"" +
         simd::to_string(simd::detected_isa()) + "\"";
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
