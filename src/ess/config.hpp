// Run configuration: a small key=value format so pipelines can be launched
// from files or command lines without recompiling — the library's front door
// for downstream users (see examples/essns_cli.cpp).
//
// Recognised keys (defaults in parentheses):
//   workload   plains | hills | wind_shift        (plains)
//   size       grid edge in cells                 (48)
//   method     ess-ga | essim-ea | essim-de | essim-de-tuned | ess-ns | ns-de
//              | essim-monitor                    (ess-ns)
//   seed       uint64                             (2022)
//   generations / fitness_threshold               (30 / 0.95)
//   population / offspring                        (24 / 24)
//   workers    OS worker threads                  (1)
//   novelty_k  Eq. (1) neighbourhood              (10)
//   islands    for the essim methods              (3)
//   cache      off | step | shared — scenario memoization policy (step)
//   cache_mem  shared-cache byte budget, MiB      (256)
//   simd       auto | avx2 | scalar — relax-kernel selection (auto)
//   trace      Chrome trace-event JSON output path, or none (none)
//   metrics_out  metrics JSON output path, or none   (none)
// Lines starting with '#' and blank lines are ignored.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "cache/scenario_cache.hpp"
#include "common/simd.hpp"
#include "ess/monitor.hpp"
#include "ess/optimizer.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {

struct RunSpec {
  std::string workload = "plains";
  int size = 48;
  std::string method = "ess-ns";
  std::uint64_t seed = 2022;
  int generations = 30;
  double fitness_threshold = 0.95;
  std::size_t population = 24;
  std::size_t offspring = 24;
  unsigned workers = 1;
  int novelty_k = 10;
  int islands = 3;
  /// Scenario memoization policy (results bit-identical either way).
  cache::CachePolicy cache_policy = cache::CachePolicy::kStep;
  std::size_t cache_mem_mb = 256;  ///< shared-cache byte budget (MiB)
  /// Relax-kernel selection (results bit-identical at any setting).
  simd::Mode simd_mode = simd::Mode::kAuto;
  /// Chrome trace-event JSON output path ("" or "none" = off). Results are
  /// bit-identical with tracing on or off (property-tested).
  std::string trace_out;
  /// Metrics JSON output path ("" or "none" = off).
  std::string metrics_out;

  /// All method names parse_run_spec accepts.
  static const std::vector<std::string>& known_methods();
};

/// Parse "key=value" lines. Unknown keys or malformed values throw
/// InvalidArgument naming the offending line.
RunSpec parse_run_spec(std::istream& in);
RunSpec parse_run_spec(const std::string& text);

/// Build the named workload at spec.size.
synth::Workload make_workload(const RunSpec& spec);

/// Build the OS strategy named by spec.method ("essim-monitor" is not an
/// Optimizer — use run_spec() which handles both layouts).
std::unique_ptr<Optimizer> make_optimizer(const RunSpec& spec);

/// End-to-end: generate the ground truth, run the configured system, return
/// the pipeline-style result (essim-monitor results are converted: one step
/// report per predicted instant with quality and Kign filled in).
PipelineResult run_spec(const RunSpec& spec);

}  // namespace essns::ess
