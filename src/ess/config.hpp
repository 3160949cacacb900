// Run configuration: a small key=value format so pipelines can be launched
// from files or command lines without recompiling — the library's front door
// for downstream users (see examples/essns_cli.cpp).
//
// Recognised keys (defaults in parentheses):
//   workload   plains | hills | wind_shift        (plains)
//   size       grid edge in cells                 (48)
//   seed       uint64                             (2022)
//   workers    OS worker threads                  (1)
//   cache      off | step | shared — scenario memoization policy (step)
//   cache_mem  shared-cache byte budget, MiB      (256)
//   trace      Chrome trace-event JSON output path, or none (none)
//   metrics_out  metrics JSON output path, or none   (none)
// plus the search keys of set_search_key, shared with campaigns and serve:
//   method     ess-ga | essim-ea | essim-de | essim-de-tuned | ess-ns | ns-de
//              | essim-monitor                    (ess-ns)
//   generations        integer >= 1               (30)
//   fitness_threshold  finite number              (0.95)
//   population         integer >= 2               (24)
//   offspring          integer >= 1               (24)
//   novelty_k  Eq. (1) neighbourhood, integer >= 0; 0 = all   (10)
//   islands    for the essim methods, integer >= 1            (3)
// Lines starting with '#' and blank lines are ignored.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>

#include "cache/scenario_cache.hpp"
#include "ess/monitor.hpp"
#include "ess/optimizer.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {

/// How one prediction searches: the inputs of the paper's Algorithm 1
/// (novelty_k is the neighbourhood of Eq. (1)) plus the SS map cap and the
/// scenario memoization policy. Single runs, campaign jobs and served
/// requests all carry this one value; the defaults are the job defaults.
struct SearchSpec {
  std::string method = "ess-ns";
  int generations = 15;
  double fitness_threshold = 0.95;
  std::size_t population = 16;
  std::size_t offspring = 16;
  int novelty_k = 10;
  int islands = 3;
  std::size_t max_solution_maps = 64;  ///< cap on maps aggregated by the SS
  /// Scenario memoization policy (results bit-identical under every policy).
  cache::CachePolicy cache_policy = cache::CachePolicy::kStep;

  /// All method names set_search_key accepts.
  static const std::vector<std::string>& known_methods();
};

/// Set the search key `key` (method, generations, fitness_threshold,
/// population, offspring, novelty_k or islands) from its text. Returns false
/// for any other key. A value out of bounds throws InvalidArgument
/// "<key> expects ..., got '<value>'". Every front door (run specs, the
/// campaign and serve CLIs, the serve protocol) parses search keys here, so
/// these are the only bounds written for them.
bool set_search_key(SearchSpec& spec, const std::string& key,
                    const std::string& value);

/// Throw InvalidArgument unless `spec` is within set_search_key's bounds
/// and names an Optimizer method (essim-monitor is not one): the admission
/// check of campaigns and the prediction engine.
void validate_job_search(const SearchSpec& spec);

struct RunSpec {
  std::string workload = "plains";
  int size = 48;
  std::uint64_t seed = 2022;
  SearchSpec search{.generations = 30, .population = 24, .offspring = 24};
  unsigned workers = 1;
  std::size_t cache_mem_mb = 256;  ///< shared-cache byte budget (MiB)
  /// Chrome trace-event JSON output path ("" or "none" = off). Results are
  /// bit-identical with tracing on or off (property-tested).
  std::string trace_out;
  /// Metrics JSON output path ("" or "none" = off).
  std::string metrics_out;
};

/// Parse "key=value" lines. Unknown keys or malformed values throw
/// InvalidArgument naming the offending line.
RunSpec parse_run_spec(std::istream& in);
RunSpec parse_run_spec(const std::string& text);

/// Build the named workload at spec.size.
synth::Workload make_workload(const RunSpec& spec);

/// Build the OS strategy named by spec.method ("essim-monitor" is not an
/// Optimizer — use run_spec() which handles both layouts).
std::unique_ptr<Optimizer> make_optimizer(const SearchSpec& spec);

/// End-to-end: generate the ground truth, run the configured system, return
/// the pipeline-style result (essim-monitor results are converted: one step
/// report per predicted instant with quality and Kign filled in).
PipelineResult run_spec(const RunSpec& spec);

}  // namespace essns::ess
