// Test-only oracle for CampaignScheduler::run(): a scheduler twin that runs
// the same job body (run_prediction_job) on its own ThreadPool (inline when
// one job runs at a time) and its own ObsSession, without the engine's
// queue, slots or slot-lifetime lanes. Every job builds job-local lanes, so
// run() — which submits through a PredictionEngine — must render
// byte-identical reports to this loop at the same seeds.
#pragma once

#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/scenario_cache.hpp"
#include "obs/session.hpp"
#include "parallel/thread_pool.hpp"
#include "service/campaign.hpp"
#include "service/engine.hpp"
#include "synth/workloads.hpp"

namespace essns::service::oracle {

inline CampaignResult run_reference(
    const CampaignScheduler& scheduler,
    const std::vector<synth::Workload>& workloads) {
  const CampaignConfig& config = scheduler.config();
  const EngineConfig& knobs = config.engine;
  // Installs the recorder/registry before any job starts; uninstalls and
  // writes the output files on the way out.
  obs::ObsSession obs_session(knobs.trace_out, knobs.metrics_out,
                              knobs.collect_metrics);

  CampaignResult result;
  result.job_concurrency = config.job_concurrency(workloads.size());
  result.workers_per_job = scheduler.workers_per_job(workloads.size());
  result.cache_policy = config.spec.cache_policy;
  result.jobs.resize(workloads.size());
  if (workloads.empty()) return result;

  std::shared_ptr<cache::SharedScenarioCache> shared_cache;
  if (config.spec.cache_policy == cache::CachePolicy::kShared) {
    shared_cache = knobs.shared_cache
                       ? knobs.shared_cache
                       : std::make_shared<cache::SharedScenarioCache>(
                             knobs.cache_mem_bytes);
    result.cache_mem_bytes = shared_cache->max_bytes();
  }

  obs::SpanTimer wall("campaign");

  std::mutex done_mutex;
  const auto run_one = [&](std::size_t i) {
    result.jobs[i] = run_prediction_job(
        workloads[i], i, config.seed, result.workers_per_job, config.spec,
        simd::Mode::kAuto, parallel::NumaMode::kAuto,
        firelib::SweepBackend::kScalar, shared_cache);
    if (knobs.on_job_done) {
      std::lock_guard lock(done_mutex);
      knobs.on_job_done(result.jobs[i]);
    }
  };
  if (result.job_concurrency <= 1) {
    for (std::size_t i = 0; i < workloads.size(); ++i) run_one(i);
  } else {
    parallel::ThreadPool pool(result.job_concurrency);
    std::vector<std::future<void>> pending;
    pending.reserve(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i)
      pending.push_back(pool.submit([&run_one, i] { run_one(i); }));
    for (auto& f : pending) f.get();
  }

  result.wall_seconds = wall.stop();
  if (shared_cache) result.shared_cache_stats = shared_cache->stats();
  // Export with every job finished and the job pool joined.
  obs_session.finish();
  return result;
}

}  // namespace essns::service::oracle
