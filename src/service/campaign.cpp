#include "service/campaign.hpp"

#include <algorithm>
#include <future>
#include <mutex>

#include "common/error.hpp"
#include "ess/config.hpp"
#include "obs/session.hpp"
#include "parallel/thread_pool.hpp"

namespace essns::service {
std::size_t CampaignResult::succeeded() const {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(), [](const JobRecord& j) {
        return j.status == JobStatus::kSucceeded;
      }));
}

std::size_t CampaignResult::failed() const { return jobs.size() - succeeded(); }

double CampaignResult::jobs_per_second() const {
  if (jobs.empty() || wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(jobs.size()) / wall_seconds;
}

double CampaignResult::succeeded_per_second() const {
  if (wall_seconds <= 0.0) return 0.0;
  return static_cast<double>(succeeded()) / wall_seconds;
}

std::size_t CampaignResult::cache_hits() const {
  std::size_t sum = 0;
  for (const auto& job : jobs)
    if (job.status == JobStatus::kSucceeded)
      sum += job.result.total_cache_hits();
  return sum;
}

std::size_t CampaignResult::cache_misses() const {
  std::size_t sum = 0;
  for (const auto& job : jobs)
    if (job.status == JobStatus::kSucceeded)
      sum += job.result.total_cache_misses();
  return sum;
}

std::size_t CampaignResult::cache_evictions() const {
  std::size_t sum = 0;
  for (const auto& job : jobs)
    if (job.status == JobStatus::kSucceeded)
      sum += job.result.total_cache_evictions();
  return sum;
}

std::size_t CampaignResult::cache_insertions_rejected() const {
  std::size_t sum = 0;
  for (const auto& job : jobs)
    if (job.status == JobStatus::kSucceeded)
      sum += job.result.total_cache_insertions_rejected();
  return sum;
}

std::size_t CampaignResult::batch_dedup_hits() const {
  std::size_t sum = 0;
  for (const auto& job : jobs)
    if (job.status == JobStatus::kSucceeded)
      sum += job.result.total_batch_dedup_hits();
  return sum;
}

std::size_t CampaignResult::cache_bytes() const {
  if (cache_policy == cache::CachePolicy::kShared)
    return shared_cache_stats.bytes;
  std::size_t sum = 0;
  for (const auto& job : jobs)
    if (job.status == JobStatus::kSucceeded)
      sum += job.result.max_cache_bytes();
  return sum;
}

double CampaignResult::cache_hit_rate() const {
  const std::size_t hits = cache_hits();
  const std::size_t total = hits + cache_misses();
  return total == 0 ? 0.0 : static_cast<double>(hits) /
                                static_cast<double>(total);
}

double CampaignResult::mean_quality() const {
  double sum = 0.0;
  std::size_t count = 0;
  for (const auto& job : jobs) {
    if (job.status != JobStatus::kSucceeded) continue;
    sum += job.result.mean_quality();
    ++count;
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

CampaignScheduler::CampaignScheduler(CampaignConfig config)
    : config_(std::move(config)) {
  ESSNS_REQUIRE(config_.engine.job_slots >= 1, "job_slots >= 1");
  ESSNS_REQUIRE(config_.engine.total_workers >= 1, "total_workers >= 1");
  ess::validate_job_search(config_.spec);
}

unsigned CampaignScheduler::workers_per_job(std::size_t job_count) const {
  const unsigned in_flight = static_cast<unsigned>(
      std::min<std::size_t>(config_.engine.job_slots,
                            std::max<std::size_t>(job_count, 1)));
  return std::max(1u, config_.engine.total_workers / in_flight);
}

CampaignResult CampaignScheduler::run(
    const std::vector<synth::Workload>& workloads) const {
  CampaignResult result;
  result.job_concurrency = config_.engine.job_slots;
  result.workers_per_job = workers_per_job(workloads.size());
  result.cache_policy = config_.spec.cache_policy;
  result.jobs.resize(workloads.size());
  const bool shared = config_.spec.cache_policy == cache::CachePolicy::kShared;

  // One engine for the batch: job_slots = the effective concurrency, queue
  // sized to admit every job up front. Its destructor (end of scope) writes
  // trace/metrics after the slots join, which also covers the
  // empty-workloads early return.
  EngineConfig engine_config = config_.engine;
  const std::size_t batch = std::max<std::size_t>(workloads.size(), 1);
  engine_config.job_slots = static_cast<unsigned>(
      std::min<std::size_t>(engine_config.job_slots, batch));
  engine_config.queue_capacity = batch;
  PredictionEngine engine(std::move(engine_config));

  if (workloads.empty()) return result;
  if (shared) result.cache_mem_bytes = engine.shared_cache()->max_bytes();

  obs::SpanTimer wall("campaign");

  std::vector<std::future<JobRecord>> records;
  records.reserve(workloads.size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    JobRequest request;
    // Alias into the caller's vector — run() outlives every future.
    request.workload = std::shared_ptr<const synth::Workload>(
        std::shared_ptr<const synth::Workload>{}, &workloads[i]);
    request.index = i;
    request.campaign_seed = config_.seed;
    request.workers = result.workers_per_job;
    request.spec = config_.spec;
    Submission submission = engine.submit(std::move(request));
    // The queue was sized for the whole batch; anything but acceptance is a
    // scheduler bug, not a runtime condition.
    ESSNS_REQUIRE(submission.admission == Admission::kAccepted,
                  "campaign submission rejected: " +
                      std::string(to_string(submission.admission)));
    records.push_back(std::move(submission.record));
  }
  for (std::size_t i = 0; i < workloads.size(); ++i)
    result.jobs[i] = records[i].get();

  result.wall_seconds = wall.stop();
  if (shared) result.shared_cache_stats = engine.shared_cache()->stats();
  return result;
}

CampaignResult CampaignScheduler::run_reference(
    const std::vector<synth::Workload>& workloads) const {
  const EngineConfig& knobs = config_.engine;
  // Campaign-wide observability session: installs the recorder/registry
  // before any job starts, uninstalls + writes the output files on the way
  // out (the destructor covers the empty-workloads early return).
  obs::ObsSession obs_session(knobs.trace_out, knobs.metrics_out,
                              knobs.collect_metrics);

  CampaignResult result;
  result.job_concurrency = knobs.job_slots;
  result.workers_per_job = workers_per_job(workloads.size());
  result.cache_policy = config_.spec.cache_policy;
  result.jobs.resize(workloads.size());
  if (workloads.empty()) return result;

  // One byte-bounded cache for the whole campaign: every concurrent job's
  // SimulationService probes and fills the same shards, so duplicate
  // simulations are amortized across jobs, not just within one pipeline.
  std::shared_ptr<cache::SharedScenarioCache> shared_cache;
  if (config_.spec.cache_policy == cache::CachePolicy::kShared) {
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
        workloads[i], i, config_.seed, result.workers_per_job, config_.spec,
        simd::Mode::kAuto, parallel::NumaMode::kAuto,
        firelib::SweepBackend::kScalar, shared_cache);
    if (knobs.on_job_done) {
      std::lock_guard lock(done_mutex);
      knobs.on_job_done(result.jobs[i]);
    }
  };
  const unsigned concurrency = static_cast<unsigned>(
      std::min<std::size_t>(knobs.job_slots, workloads.size()));
  if (concurrency <= 1) {
    for (std::size_t i = 0; i < workloads.size(); ++i) run_one(i);
  } else {
    parallel::ThreadPool pool(concurrency);
    std::vector<std::future<void>> pending;
    pending.reserve(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i)
      pending.push_back(pool.submit([&run_one, i] { run_one(i); }));
    for (auto& f : pending) f.get();
  }

  result.wall_seconds = wall.stop();
  if (shared_cache) result.shared_cache_stats = shared_cache->stats();
  // Export with job pipelines finished and the job pool joined (the pool,
  // if any, was destroyed above); pipeline-internal sim pools joined when
  // their jobs completed.
  obs_session.finish();
  return result;
}

}  // namespace essns::service
