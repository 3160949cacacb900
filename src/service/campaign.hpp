// CampaignScheduler: concurrent multi-fire prediction jobs — the service
// layer above the per-pipeline SimulationService.
//
// The paper parallelizes one prediction pipeline; a production service runs
// *fleets* of them (one fire per job, GPU-calibration style throughput:
// Denham & Laneri, arXiv:1701.03549; Cell2Fire, arXiv:1905.09317). A
// campaign is one PredictionJob per synth::Workload — the full OS->SS->CS->PS
// pipeline with its own ground truth, optimizer and rng stream — executed
// with bounded job-level concurrency on top of parallel::ThreadPool.
//
// Two-level parallelism: `job_concurrency` pipelines run at once, and the
// campaign's `total_workers` simulation budget is split evenly across the
// concurrent jobs, each slice driving that job's pool-backed
// SimulationService. Because the simulation stack is bit-deterministic
// across worker counts (PR 1) and every job derives its seeds from
// (campaign seed, workload seed, job index) alone, per-job results are
// bit-identical at any job-concurrency level — the contract the tests and
// bench_campaign verify.
//
// Error isolation: a job whose pipeline throws is recorded as kFailed with
// the exception text; the rest of the campaign completes normally.
//
// Since the PredictionEngine extraction, run() is a thin client: it stands
// up an engine sized for the batch, submits every workload through the
// admission-controlled queue, and collects the futures in submission order.
// The pre-engine scheduling loop is retained verbatim as run_reference() —
// the oracle twin the property tests byte-compare run() against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/scenario_cache.hpp"
#include "ess/pipeline.hpp"
#include "service/engine.hpp"
#include "synth/workloads.hpp"

namespace essns::service {

struct CampaignConfig {
  unsigned job_concurrency = 1;  ///< pipelines in flight at once
  unsigned total_workers = 1;    ///< simulation-worker budget, split per job
  std::uint64_t seed = 2022;     ///< campaign stream; mixed per job

  /// The spec every job runs under (validated at construction; essim-monitor
  /// is not an Optimizer and is rejected). Under a kShared cache_policy the
  /// scheduler installs ONE byte-bounded cache shared by all concurrent
  /// jobs, so duplicate work is amortized across the whole campaign, not
  /// just within a prediction step. keep_final_maps retains each job's final
  /// probability matrix / predicted fire line (two grids per job).
  JobSpec spec;
  /// Byte budget of the campaign-wide cache (kShared only).
  std::size_t cache_mem_bytes = cache::kDefaultCacheBytes;
  /// Pre-warmed cross-campaign cache (kShared only); null makes run()
  /// create a fresh one per campaign.
  std::shared_ptr<cache::SharedScenarioCache> shared_cache;

  /// Chrome trace-event JSON output path ("" or "none" = tracing off).
  /// When set, run() records spans campaign-wide — jobs x pipeline stages x
  /// pool/sim workers — and writes the timeline before returning.
  std::string trace_out;
  /// Metrics JSON output path ("" or "none" = metrics off). When set, run()
  /// installs a campaign-wide registry (sweep/cache/pool counters,
  /// latency histograms) and writes the scrape before returning.
  std::string metrics_out;

  /// Invoked once per finished job (success or failure), serialized by the
  /// scheduler. Completion order is nondeterministic under concurrency.
  std::function<void(const JobRecord&)> on_job_done;
};

struct CampaignResult {
  std::vector<JobRecord> jobs;   ///< in submission order
  double wall_seconds = 0.0;
  unsigned job_concurrency = 1;  ///< concurrency the campaign ran at
  unsigned workers_per_job = 1;  ///< simulation workers granted to each job
  cache::CachePolicy cache_policy = cache::CachePolicy::kStep;
  std::size_t cache_mem_bytes = 0;  ///< shared-cache budget (kShared only)
  /// End-of-campaign snapshot of the campaign-wide shared cache (kShared
  /// only; zero-initialized otherwise). Hits/misses here are cache-global
  /// and include cross-job traffic.
  cache::CacheStats shared_cache_stats;

  std::size_t succeeded() const;
  std::size_t failed() const;
  /// ALL jobs (including failed ones) over campaign wall-clock. A throwing
  /// or cancelled pipeline inflates this — it measures how fast jobs
  /// were disposed of, not how fast predictions were produced.
  double jobs_per_second() const;
  /// Succeeded jobs over campaign wall-clock: the throughput that actually
  /// delivered predictions. Equal to jobs_per_second() when nothing failed.
  double succeeded_per_second() const;
  double mean_quality() const;     ///< over succeeded jobs

  // Scenario-cache activity summed over succeeded jobs.
  std::size_t cache_hits() const;
  std::size_t cache_misses() const;
  std::size_t cache_evictions() const;
  std::size_t cache_insertions_rejected() const;
  /// In-batch duplicate scenarios collapsed before the sweep engine,
  /// summed over succeeded jobs (a subset of cache_hits()).
  std::size_t batch_dedup_hits() const;
  /// Campaign cache footprint: the shared cache's live bytes under kShared,
  /// otherwise the sum of each job's peak step-cache bytes.
  std::size_t cache_bytes() const;
  double cache_hit_rate() const;  ///< hits / (hits + misses); 0 when idle
};

class CampaignScheduler {
 public:
  explicit CampaignScheduler(CampaignConfig config);

  /// Run one PredictionJob per workload by submitting the whole batch
  /// through a campaign-lifetime PredictionEngine (job_slots =
  /// job_concurrency, queue sized to hold every job). Never throws for
  /// job-level failures; configuration errors (e.g. an unknown method)
  /// throw before any job starts. Byte-identical to run_reference() at the
  /// same seeds — the property the service tests enforce.
  CampaignResult run(const std::vector<synth::Workload>& workloads) const;

  /// The pre-engine scheduling loop, retained verbatim as the oracle twin:
  /// its own ObsSession, its own ThreadPool per run, its own job runner.
  /// Kept for the byte-identity property tests; production callers use
  /// run().
  CampaignResult run_reference(
      const std::vector<synth::Workload>& workloads) const;

  /// Even split of total_workers over the jobs actually in flight
  /// (>= 1 per job).
  unsigned workers_per_job(std::size_t job_count) const;

  const CampaignConfig& config() const { return config_; }

 private:
  JobRecord run_job(const synth::Workload& workload, std::size_t index,
                    unsigned workers,
                    const std::shared_ptr<cache::SharedScenarioCache>&
                        shared_cache) const;

  CampaignConfig config_;
};

}  // namespace essns::service
