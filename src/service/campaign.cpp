#include "service/campaign.hpp"

#include <algorithm>
#include <future>

#include "common/error.hpp"
#include "ess/config.hpp"

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

unsigned CampaignConfig::job_concurrency(std::size_t job_count) const {
  return static_cast<unsigned>(std::min<std::size_t>(
      engine.job_slots, std::max<std::size_t>(job_count, 1)));
}

CampaignScheduler::CampaignScheduler(CampaignConfig config)
    : config_(std::move(config)) {
  ESSNS_REQUIRE(config_.engine.job_slots >= 1, "job_slots >= 1");
  ESSNS_REQUIRE(config_.engine.total_workers >= 1, "total_workers >= 1");
  ess::validate_job_search(config_.spec);
}

unsigned CampaignScheduler::workers_per_job(std::size_t job_count) const {
  return std::max(1u, config_.engine.total_workers /
                          config_.job_concurrency(job_count));
}

CampaignResult CampaignScheduler::run(
    const std::vector<synth::Workload>& workloads) const {
  CampaignResult result;
  result.job_concurrency = config_.job_concurrency(workloads.size());
  result.workers_per_job = workers_per_job(workloads.size());
  result.cache_policy = config_.spec.cache_policy;
  result.jobs.resize(workloads.size());
  const bool shared = config_.spec.cache_policy == cache::CachePolicy::kShared;

  // One engine for the batch: job_slots = the effective concurrency, queue
  // sized to admit every job up front. Its destructor (end of scope) writes
  // trace/metrics after the slots join, which also covers the
  // empty-workloads early return.
  EngineConfig engine_config = config_.engine;
  engine_config.job_slots = result.job_concurrency;
  engine_config.queue_capacity = std::max<std::size_t>(workloads.size(), 1);
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

}  // namespace essns::service
