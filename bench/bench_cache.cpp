// EXP-B7 — scenario-cache benchmark: the same fixed-seed catalog campaign
// run with the cache off and with the campaign-wide shared cache, at
// job-concurrency 1 and 4, plus a forced-eviction run under a tiny byte
// budget and a warm re-run against the already-filled cache.
//
// Enforced invariants (any violation exits nonzero, which is how CI pins
// the acceptance criteria):
//   - every shared-cache run is bit-identical to the cache-off reference,
//     per job and per predicted step, at every concurrency and budget;
//   - the shared cache never exceeds its configured byte budget, and the
//     tiny-budget run actually evicts (the bound is exercised, not idle).
//
// Reported (BENCH_cache.json): hit-rates (per-job and cache-global), live
// bytes vs budget, evictions, and the campaign wall-clock speedup of
// shared over off on the GA-shaped duplicate-heavy workload.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "cache/scenario_cache.hpp"
#include "service/campaign.hpp"
#include "synth/catalog.hpp"

namespace {

using namespace essns;

struct RunResult {
  std::string name;
  unsigned job_concurrency = 1;
  double wall_seconds = 0.0;
  double job_hit_rate = 0.0;     ///< summed over jobs' step reports
  double global_hit_rate = 0.0;  ///< shared-cache view (incl. cross-job)
  std::size_t cache_bytes = 0;
  std::size_t cache_budget = 0;
  std::size_t evictions = 0;
  std::size_t insertions_rejected = 0;
  bool identical_to_reference = true;
  bool within_budget = true;
  std::vector<std::vector<double>> per_step;  ///< flattened step outcomes
};

std::vector<std::vector<double>> step_signature(
    const service::CampaignResult& result) {
  std::vector<std::vector<double>> signature;
  for (const auto& job : result.jobs) {
    std::vector<double> steps;
    steps.push_back(job.status == service::JobStatus::kSucceeded ? 1.0 : 0.0);
    for (const auto& step : job.result.steps) {
      steps.push_back(step.kign);
      steps.push_back(step.calibration_fitness);
      steps.push_back(step.best_os_fitness);
      steps.push_back(step.prediction_quality);
      steps.push_back(static_cast<double>(step.os_evaluations));
    }
    signature.push_back(std::move(steps));
  }
  return signature;
}

RunResult run_campaign(const std::string& name,
                       const std::vector<synth::Workload>& workloads,
                       cache::CachePolicy policy, unsigned job_concurrency,
                       std::size_t cache_mem_bytes, int generations,
                       std::size_t population,
                       std::shared_ptr<cache::SharedScenarioCache> cache) {
  service::CampaignConfig config;
  config.engine.job_slots = job_concurrency;
  config.engine.total_workers = job_concurrency;
  config.spec.generations = generations;
  config.spec.population = population;
  config.spec.offspring = population;
  config.spec.fitness_threshold = 1.1;  // fixed generation budget, no early exit
  config.spec.cache_policy = policy;
  if (cache_mem_bytes != 0) config.engine.cache_mem_bytes = cache_mem_bytes;
  config.engine.shared_cache = std::move(cache);

  const service::CampaignScheduler scheduler(config);
  const service::CampaignResult result = scheduler.run(workloads);

  RunResult run;
  run.name = name;
  run.job_concurrency = job_concurrency;
  run.wall_seconds = result.wall_seconds;
  run.job_hit_rate = result.cache_hit_rate();
  run.global_hit_rate = result.shared_cache_stats.hit_rate();
  run.cache_bytes = result.shared_cache_stats.bytes;
  run.cache_budget = result.cache_mem_bytes;
  run.evictions = result.shared_cache_stats.evictions;
  run.insertions_rejected = result.shared_cache_stats.insertions_rejected;
  run.within_budget = policy != cache::CachePolicy::kShared ||
                      run.cache_bytes <= run.cache_budget;
  run.per_step = step_signature(result);
  return run;
}

void print_run(const RunResult& run, const RunResult& reference) {
  std::printf(
      "  %-14s jobs=%u  %8.3fs  %5.2fx  hit %.3f (global %.3f)  "
      "%6.1f KiB / %.0f KiB  evict %zu%s%s\n",
      run.name.c_str(), run.job_concurrency, run.wall_seconds,
      run.wall_seconds > 0.0 ? reference.wall_seconds / run.wall_seconds : 0.0,
      run.job_hit_rate, run.global_hit_rate,
      static_cast<double>(run.cache_bytes) / 1024.0,
      static_cast<double>(run.cache_budget) / 1024.0, run.evictions,
      run.identical_to_reference ? "" : "  DIVERGED",
      run.within_budget ? "" : "  OVER-BUDGET");
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: smaller maps and budgets for CI smoke tracking.
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  // Bench-wide metrics registry: the scrape (cache hit/miss/eviction
  // counters among others) lands in the JSON below.
  obs::MetricsRegistry metrics;
  obs::install_metrics_registry(&metrics);

  synth::CatalogSpec spec;  // default catalog: 8 workloads
  spec.sizes = {quick ? 16 : 24};
  spec.steps = quick ? 3 : 4;
  const int generations = quick ? 4 : 8;
  const std::size_t population = quick ? 12 : 16;
  // Tiny enough that the catalog's working set cannot fit: forces eviction.
  const std::size_t tiny_budget = std::size_t{64} << 10;
  const std::vector<synth::Workload> workloads = synth::generate_catalog(spec);

  std::printf(
      "scenario-cache benchmark: %zu workloads (%s), off vs shared cache\n",
      workloads.size(), quick ? "quick" : "full");

  const RunResult off = run_campaign("off", workloads, cache::CachePolicy::kOff,
                                     1, 0, generations, population, nullptr);

  std::vector<RunResult> runs;
  runs.push_back(run_campaign("shared", workloads,
                              cache::CachePolicy::kShared, 1, 0, generations,
                              population, nullptr));
  runs.push_back(run_campaign("shared", workloads,
                              cache::CachePolicy::kShared, 4, 0, generations,
                              population, nullptr));
  runs.push_back(run_campaign("shared-tiny", workloads,
                              cache::CachePolicy::kShared, 4, tiny_budget,
                              generations, population, nullptr));
  // The duplicate-heavy steady-state workload: the same catalog predicted
  // twice against one cache — the production re-prediction pattern (each
  // new perimeter re-runs the fleet, duplicating most of the previous
  // pass's simulations). Both passes are timed; off pays full price twice.
  auto warm_cache = std::make_shared<cache::SharedScenarioCache>();
  runs.push_back(run_campaign("shared-pass1", workloads,
                              cache::CachePolicy::kShared, 1, 0, generations,
                              population, warm_cache));
  runs.push_back(run_campaign("shared-pass2", workloads,
                              cache::CachePolicy::kShared, 1, 0, generations,
                              population, warm_cache));

  bool all_identical = true;
  bool all_within_budget = true;
  bool tiny_evicted = false;
  for (RunResult& run : runs) {
    run.identical_to_reference = run.per_step == off.per_step;
    all_identical &= run.identical_to_reference;
    all_within_budget &= run.within_budget;
    if (run.name == "shared-tiny")
      tiny_evicted = run.evictions + run.insertions_rejected > 0;
  }

  std::printf("  %-14s jobs=%u  %8.3fs  (reference)\n", off.name.c_str(),
              off.job_concurrency, off.wall_seconds);
  for (const RunResult& run : runs) print_run(run, off);

  const RunResult& shared1 = runs.front();
  const double speedup_cold = shared1.wall_seconds > 0.0
                                  ? off.wall_seconds / shared1.wall_seconds
                                  : 0.0;
  const RunResult& pass1 = runs[runs.size() - 2];
  const RunResult& pass2 = runs.back();
  const double two_pass_shared = pass1.wall_seconds + pass2.wall_seconds;
  const double speedup_repredict =
      two_pass_shared > 0.0 ? 2.0 * off.wall_seconds / two_pass_shared : 0.0;
  std::printf("  shared vs off, single cold pass:           %.2fx\n",
              speedup_cold);
  std::printf("  shared vs off, re-prediction (two passes): %.2fx\n",
              speedup_repredict);
  std::printf("  bit-identical to off across all runs: %s\n",
              all_identical ? "true" : "false");
  std::printf("  within byte budget: %s (tiny-budget run evicted: %s)\n",
              all_within_budget ? "true" : "false",
              tiny_evicted ? "true" : "false");

  const char* json_path = "BENCH_cache.json";
  std::FILE* out = std::fopen(json_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"scenario_cache\",\n");
  std::fprintf(out, "  \"hardware\": {%s},\n",
               benchmain::hardware_json_fields().c_str());
  std::fprintf(out, "  %s,\n", benchmain::metrics_json_field().c_str());
  std::fprintf(out, "  \"quick\": %s,\n  \"workloads\": %zu,\n",
               quick ? "true" : "false", workloads.size());
  std::fprintf(out, "  \"grid\": %d,\n  \"generations\": %d,\n",
               spec.sizes.front(), generations);
  std::fprintf(out, "  \"off_wall_seconds\": %.6f,\n", off.wall_seconds);
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(
        out,
        "    {\"name\": \"%s\", \"job_concurrency\": %u, "
        "\"wall_seconds\": %.6f, \"speedup_vs_off\": %.4f, "
        "\"job_hit_rate\": %.4f, \"global_hit_rate\": %.4f, "
        "\"cache_bytes\": %zu, \"cache_budget_bytes\": %zu, "
        "\"evictions\": %zu, \"insertions_rejected\": %zu, "
        "\"identical_to_off\": %s, \"within_budget\": %s}%s\n",
        r.name.c_str(), r.job_concurrency, r.wall_seconds,
        r.wall_seconds > 0.0 ? off.wall_seconds / r.wall_seconds : 0.0,
        r.job_hit_rate, r.global_hit_rate, r.cache_bytes, r.cache_budget,
        r.evictions, r.insertions_rejected,
        r.identical_to_reference ? "true" : "false",
        r.within_budget ? "true" : "false",
        i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"speedup_cold_vs_off\": %.4f,\n", speedup_cold);
  std::fprintf(out, "  \"speedup_repredict_vs_off\": %.4f,\n",
               speedup_repredict);
  std::fprintf(out, "  \"bit_identical\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(out, "  \"within_budget\": %s,\n",
               all_within_budget ? "true" : "false");
  std::fprintf(out, "  \"tiny_budget_evicted\": %s\n}\n",
               tiny_evicted ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", json_path);
  return all_identical && all_within_budget && tiny_evicted ? 0 : 1;
}
