#include "service/campaign.hpp"

#include <algorithm>
#include <future>
#include <mutex>

#include "common/error.hpp"
#include "ess/config.hpp"
#include "obs/session.hpp"
#include "parallel/thread_pool.hpp"

namespace essns::service {
namespace {

ess::RunSpec to_run_spec(const CampaignConfig& config) {
  ess::RunSpec spec;
  spec.method = config.method;
  spec.generations = config.generations;
  spec.fitness_threshold = config.fitness_threshold;
  spec.population = config.population;
  spec.offspring = config.offspring;
  spec.novelty_k = config.novelty_k;
  spec.islands = config.islands;
  return spec;
}

}  // namespace

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
  ESSNS_REQUIRE(config_.job_concurrency >= 1, "job_concurrency >= 1");
  ESSNS_REQUIRE(config_.total_workers >= 1, "total_workers >= 1");
  ESSNS_REQUIRE(config_.generations >= 1, "generations >= 1");
  // Fail fast on methods the job runner cannot build (e.g. essim-monitor).
  (void)ess::make_optimizer(to_run_spec(config_));
}

JobSpec CampaignScheduler::job_spec() const {
  JobSpec spec;
  spec.method = config_.method;
  spec.generations = config_.generations;
  spec.fitness_threshold = config_.fitness_threshold;
  spec.population = config_.population;
  spec.offspring = config_.offspring;
  spec.novelty_k = config_.novelty_k;
  spec.islands = config_.islands;
  spec.max_solution_maps = config_.max_solution_maps;
  spec.cache_policy = config_.cache_policy;
  spec.keep_final_maps = config_.keep_final_maps;
  return spec;
}

unsigned CampaignScheduler::workers_per_job(std::size_t job_count) const {
  const unsigned in_flight = static_cast<unsigned>(
      std::min<std::size_t>(config_.job_concurrency,
                            std::max<std::size_t>(job_count, 1)));
  return std::max(1u, config_.total_workers / in_flight);
}

JobRecord CampaignScheduler::run_job(
    const synth::Workload& workload, std::size_t index, unsigned workers,
    const std::shared_ptr<cache::SharedScenarioCache>& shared_cache) const {
  JobRecord record;
  record.index = index;
  record.workload = workload.name;
  record.rows = workload.environment.rows();
  record.cols = workload.environment.cols();
  record.seed = campaign_job_seed(config_.seed, workload.seed, index);
  record.workers = workers;

  // Declared before the timer: the span name must outlive the SpanTimer
  // that holds a pointer into it.
  const std::string span_name = "job:" + workload.name;
  obs::SpanTimer job_timer(span_name.c_str());
  try {
    Rng truth_rng(record.seed);
    const synth::GroundTruth truth = synth::generate_truth(workload, truth_rng);

    ess::PipelineConfig pipeline_config;
    pipeline_config.stop = {config_.generations, config_.fitness_threshold};
    pipeline_config.workers = workers;
    pipeline_config.max_solution_maps = config_.max_solution_maps;
    pipeline_config.cache_policy = config_.cache_policy;
    pipeline_config.cache_mem_bytes = config_.cache_mem_bytes;
    pipeline_config.shared_cache = shared_cache;
    pipeline_config.simd_mode = config_.simd_mode;
    pipeline_config.numa_mode = config_.numa_mode;
    pipeline_config.backend = config_.backend;
    ess::PredictionPipeline pipeline(workload.environment, truth,
                                     pipeline_config);

    auto optimizer = ess::make_optimizer(to_run_spec(config_));
    Rng rng(record.seed ^ 0x5eedULL);
    record.result = pipeline.run(*optimizer, rng);
    record.status = JobStatus::kSucceeded;
    if (config_.keep_final_maps) {
      record.final_probability = pipeline.last_probability();
      record.final_prediction = pipeline.last_prediction();
    }
  } catch (const std::exception& e) {
    record.status = JobStatus::kFailed;
    record.error = e.what();
  } catch (...) {
    record.status = JobStatus::kFailed;
    record.error = "unknown exception";
  }
  record.elapsed_seconds = job_timer.stop();
  if (obs::metrics_enabled()) {
    obs::add_counter("campaign.jobs", 1);
    obs::record_histogram("campaign.job_seconds", record.elapsed_seconds);
  }
  return record;
}

CampaignResult CampaignScheduler::run(
    const std::vector<synth::Workload>& workloads) const {
  CampaignResult result;
  result.job_concurrency = config_.job_concurrency;
  result.workers_per_job = workers_per_job(workloads.size());
  result.cache_policy = config_.cache_policy;
  result.jobs.resize(workloads.size());

  // One engine for the batch: job_slots = the effective concurrency, queue
  // sized to admit every job up front. The engine owns the obs session and
  // the shared cache for exactly the span the old scheduler did — its
  // destructor (end of scope) writes trace/metrics after the slots join,
  // which also covers the empty-workloads early return.
  EngineConfig engine_config;
  engine_config.job_slots = static_cast<unsigned>(std::min<std::size_t>(
      config_.job_concurrency, std::max<std::size_t>(workloads.size(), 1)));
  engine_config.total_workers = config_.total_workers;
  engine_config.queue_capacity = std::max<std::size_t>(workloads.size(), 1);
  engine_config.cache_mem_bytes = config_.cache_mem_bytes;
  if (config_.cache_policy == cache::CachePolicy::kShared)
    engine_config.shared_cache = config_.shared_cache;
  engine_config.simd_mode = config_.simd_mode;
  engine_config.numa_mode = config_.numa_mode;
  engine_config.backend = config_.backend;
  engine_config.trace_out = config_.trace_out;
  engine_config.metrics_out = config_.metrics_out;
  engine_config.on_job_done = config_.on_job_done;
  PredictionEngine engine(engine_config);

  if (workloads.empty()) return result;
  if (config_.cache_policy == cache::CachePolicy::kShared)
    result.cache_mem_bytes = engine.shared_cache()->max_bytes();

  obs::SpanTimer wall("campaign");

  const JobSpec spec = job_spec();
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
    request.spec = spec;
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
  if (config_.cache_policy == cache::CachePolicy::kShared)
    result.shared_cache_stats = engine.shared_cache()->stats();
  return result;
}

CampaignResult CampaignScheduler::run_reference(
    const std::vector<synth::Workload>& workloads) const {
  // Campaign-wide observability session: installs the recorder/registry
  // before any job starts, uninstalls + writes the output files on the way
  // out (the destructor covers the empty-workloads early return).
  obs::ObsSession obs_session(config_.trace_out, config_.metrics_out);

  CampaignResult result;
  result.job_concurrency = config_.job_concurrency;
  result.workers_per_job = workers_per_job(workloads.size());
  result.cache_policy = config_.cache_policy;
  result.jobs.resize(workloads.size());
  if (workloads.empty()) return result;

  // One byte-bounded cache for the whole campaign: every concurrent job's
  // SimulationService probes and fills the same shards, so duplicate
  // simulations are amortized across jobs, not just within one pipeline.
  std::shared_ptr<cache::SharedScenarioCache> shared_cache;
  if (config_.cache_policy == cache::CachePolicy::kShared) {
    shared_cache = config_.shared_cache
                       ? config_.shared_cache
                       : std::make_shared<cache::SharedScenarioCache>(
                             config_.cache_mem_bytes);
    result.cache_mem_bytes = shared_cache->max_bytes();
  }

  const unsigned per_job = result.workers_per_job;
  obs::SpanTimer wall("campaign");

  const unsigned concurrency = static_cast<unsigned>(
      std::min<std::size_t>(config_.job_concurrency, workloads.size()));
  if (concurrency <= 1) {
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      result.jobs[i] =
          run_job(workloads[i], i, per_job, shared_cache);
      if (config_.on_job_done) config_.on_job_done(result.jobs[i]);
    }
  } else {
    parallel::ThreadPool pool(concurrency);
    std::mutex done_mutex;
    std::vector<std::future<void>> pending;
    pending.reserve(workloads.size());
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      pending.push_back(pool.submit([this, &workloads, &result, &done_mutex,
                                     &shared_cache, per_job, i] {
        result.jobs[i] =
            run_job(workloads[i], i, per_job, shared_cache);
        if (config_.on_job_done) {
          std::lock_guard lock(done_mutex);
          config_.on_job_done(result.jobs[i]);
        }
      }));
    }
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
