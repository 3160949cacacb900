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
// Two-level parallelism: engine.job_slots pipelines run at once, and the
// campaign's engine.total_workers simulation budget is split evenly across
// the concurrent jobs, each slice driving that job's pool-backed
// SimulationService. Because the simulation stack is bit-deterministic
// across worker counts and every job derives its seeds from
// (campaign seed, workload seed, job index) alone, per-job results are
// bit-identical at any job-concurrency level — the contract the tests and
// bench_campaign verify.
//
// Error isolation: a job whose pipeline throws is recorded as kFailed with
// the exception text; the rest of the campaign completes normally.
//
// run() is a thin client: it stands up a PredictionEngine sized for the
// batch, submits every workload through the admission-controlled queue,
// and collects the futures in submission order. run_reference() is a
// scheduler twin that runs the same job body (run_prediction_job) on its
// own ThreadPool and ObsSession, without the engine's queue — the oracle
// the property tests byte-compare run() against.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/scenario_cache.hpp"
#include "ess/pipeline.hpp"
#include "service/engine.hpp"
#include "synth/workloads.hpp"

namespace essns::service {

struct CampaignConfig {
  /// The run knobs. run() overwrites two fields: job_slots is clamped to
  /// the batch size and queue_capacity is sized to hold the whole batch.
  /// shared_cache (a pre-warmed cross-campaign cache; null makes a fresh
  /// one per campaign) and cache_mem_bytes matter only under a kShared
  /// spec. trace_out / metrics_out are written before run() returns;
  /// on_job_done fires once per finished job, serialized, in a
  /// nondeterministic order under concurrency.
  EngineConfig engine;
  std::uint64_t seed = 2022;     ///< campaign stream; mixed per job

  /// The spec every job runs under (validated at construction; essim-monitor
  /// is not an Optimizer and is rejected). Under a kShared cache_policy the
  /// scheduler installs ONE byte-bounded cache shared by all concurrent
  /// jobs, so duplicate work is amortized across the whole campaign, not
  /// just within a prediction step. keep_final_maps retains each job's final
  /// probability matrix / predicted fire line (two grids per job).
  JobSpec spec;
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
  /// through a campaign-lifetime PredictionEngine (queue sized to hold
  /// every job). Never throws for job-level failures; configuration errors
  /// (e.g. an unknown method) throw before any job starts. Byte-identical
  /// to run_reference() at the same seeds — the property the service tests
  /// enforce.
  CampaignResult run(const std::vector<synth::Workload>& workloads) const;

  /// The scheduler twin: the same job body on its own ThreadPool per run
  /// (inline when one job runs at a time) and its own ObsSession, without
  /// the engine's queue. Kept for the byte-identity property tests;
  /// production callers use run().
  CampaignResult run_reference(
      const std::vector<synth::Workload>& workloads) const;

  /// Even split of total_workers over the jobs actually in flight
  /// (>= 1 per job).
  unsigned workers_per_job(std::size_t job_count) const;

  const CampaignConfig& config() const { return config_; }

 private:
  CampaignConfig config_;
};

}  // namespace essns::service
