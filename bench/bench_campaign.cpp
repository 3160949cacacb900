// EXP-B4 — campaign throughput: the same fixed-seed catalog campaign run at
// job-concurrency 1/2/4, reporting wall-clock, jobs/sec and scaling, plus a
// cross-concurrency bit-determinism check (every job's mean quality must be
// identical at every concurrency level).
// Writes BENCH_campaign.json with hardware provenance (cores, detected SIMD
// ISA) and the active settings.
//
// Plain main on purpose: unlike bench_simulator/bench_stages this does not
// need Google Benchmark, so the target always builds and CI always tracks
// campaign throughput.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "service/campaign.hpp"
#include "service/report.hpp"
#include "synth/catalog.hpp"

namespace {

using namespace essns;

struct CampaignTiming {
  unsigned job_concurrency = 1;
  unsigned workers_per_job = 1;
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  std::size_t succeeded = 0;
  std::vector<double> per_job_quality;
};

CampaignTiming run_once(const std::vector<synth::Workload>& workloads,
                        unsigned job_concurrency, unsigned total_workers,
                        int generations, std::size_t population) {
  service::CampaignConfig config;
  config.engine.job_slots = job_concurrency;
  config.engine.total_workers = total_workers;
  config.spec.generations = generations;
  config.spec.population = population;
  config.spec.offspring = population;
  config.spec.fitness_threshold = 1.1;  // fixed generation budget, no early exit

  const service::CampaignScheduler scheduler(config);
  const service::CampaignResult result = scheduler.run(workloads);

  CampaignTiming timing;
  timing.job_concurrency = job_concurrency;
  timing.workers_per_job = result.workers_per_job;
  timing.wall_seconds = result.wall_seconds;
  timing.jobs_per_second = result.jobs_per_second();
  timing.succeeded = result.succeeded();
  for (const auto& job : result.jobs)
    timing.per_job_quality.push_back(
        job.status == service::JobStatus::kSucceeded
            ? job.result.mean_quality()
            : -1.0);
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: smaller maps and budgets for CI smoke tracking.
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  // Bench-wide metrics registry: the scrape (sweep/cache/pool counters and
  // latency histograms behind the headline numbers) lands in the JSON below.
  obs::MetricsRegistry metrics;
  obs::install_metrics_registry(&metrics);

  synth::CatalogSpec spec;  // default catalog: 8 workloads
  spec.sizes = {quick ? 16 : 32};
  spec.steps = quick ? 3 : 4;
  const int generations = quick ? 4 : 8;
  const std::size_t population = quick ? 12 : 16;
  const unsigned total_workers = 4;
  const std::vector<synth::Workload> workloads = synth::generate_catalog(spec);

  std::printf("campaign throughput: %zu workloads (%s), %u total workers\n",
              workloads.size(), quick ? "quick" : "full", total_workers);

  const unsigned concurrency_levels[] = {1, 2, 4};
  std::vector<CampaignTiming> timings;
  for (unsigned jobs : concurrency_levels)
    timings.push_back(run_once(workloads, jobs, total_workers, generations,
                               population));
  const CampaignTiming& serial = timings.front();

  std::printf("%8s %12s %12s %12s %10s\n", "jobs", "workers/job", "wall[s]",
              "jobs/sec", "scaling");
  for (const auto& t : timings) {
    std::printf("%8u %12u %12.3f %12.3f %9.2fx\n", t.job_concurrency,
                t.workers_per_job, t.wall_seconds, t.jobs_per_second,
                serial.wall_seconds / t.wall_seconds);
  }

  // Bit-determinism across job concurrency: same per-job qualities
  // exactly.
  bool identical = true;
  bool all_succeeded = true;
  for (const auto& t : timings) {
    if (t.per_job_quality != serial.per_job_quality) identical = false;
    if (t.succeeded != workloads.size()) all_succeeded = false;
  }

  const char* json_path = "BENCH_campaign.json";
  std::FILE* out = std::fopen(json_path, "w");
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"campaign_throughput\",\n");
  std::fprintf(out, "  \"hardware\": {%s},\n",
               benchmain::hardware_json_fields().c_str());
  std::fprintf(out, "  %s,\n", benchmain::metrics_json_field().c_str());
  std::fprintf(out, "  \"workloads\": %zu,\n  \"grid\": %d,\n",
               workloads.size(), spec.sizes.front());
  std::fprintf(out, "  \"generations\": %d,\n  \"total_workers\": %u,\n",
               generations, total_workers);
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    std::fprintf(out,
                 "    {\"job_concurrency\": %u, \"workers_per_job\": %u, "
                 "\"wall_seconds\": %.6f, "
                 "\"jobs_per_second\": %.4f, \"scaling\": %.4f, "
                 "\"succeeded\": %zu}%s\n",
                 t.job_concurrency, t.workers_per_job, t.wall_seconds,
                 t.jobs_per_second, serial.wall_seconds / t.wall_seconds,
                 t.succeeded, i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"deterministic_across_job_concurrency\": %s,\n"
               "  \"all_jobs_succeeded\": %s\n}\n",
               identical ? "true" : "false", all_succeeded ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s (deterministic=%s)\n", json_path,
              identical ? "true" : "false");
  return identical && all_succeeded ? 0 : 1;
}
