#include "service/engine.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "cache/scenario_cache.hpp"
#include "common/error.hpp"
#include "ess/config.hpp"
#include "service/signals.hpp"

namespace essns::service {

// Chained combine_seed (not a one-shot XOR) keeps coincidental cancellation
// between the inputs from colliding two jobs onto one stream.
std::uint64_t campaign_job_seed(std::uint64_t campaign_seed,
                                std::uint64_t workload_seed,
                                std::size_t index) {
  return combine_seed(combine_seed(campaign_seed, workload_seed),
                      static_cast<std::uint64_t>(index + 1));
}

namespace {

// Max-heap order: higher priority wins; among equals the smaller sequence
// (earlier submission) wins — "less" is therefore lower priority or, at the
// same priority, a LATER sequence.
struct PendingLess {
  template <typename P>
  bool operator()(const P& a, const P& b) const {
    if (a.request.priority != b.request.priority)
      return a.request.priority < b.request.priority;
    return a.sequence > b.sequence;
  }
};

// Validated before any member (notably the ThreadPool) is constructed.
EngineConfig validate_config(EngineConfig config) {
  ESSNS_REQUIRE(config.job_slots >= 1, "job_slots >= 1");
  ESSNS_REQUIRE(config.total_workers >= 1, "total_workers >= 1");
  ESSNS_REQUIRE(config.queue_capacity >= 1, "queue_capacity >= 1");
  return config;
}

}  // namespace

const char* to_string(JobStatus status) {
  return status == JobStatus::kSucceeded ? "succeeded" : "failed";
}

const char* to_string(Admission admission) {
  switch (admission) {
    case Admission::kAccepted: return "accepted";
    case Admission::kQueueFull: return "queue_full";
    case Admission::kShuttingDown: return "shutting_down";
  }
  return "?";
}

JobRecord run_prediction_job(
    const synth::Workload& workload, std::size_t index,
    std::uint64_t campaign_seed, unsigned workers, const JobSpec& spec,
    simd::Mode, parallel::NumaMode, firelib::SweepBackend,
    const std::shared_ptr<cache::SharedScenarioCache>& shared_cache,
    parallel::MasterWorker* lanes, const JobRecord* resume) {
  JobRecord record;
  record.index = index;
  record.workload = workload.name;
  record.rows = workload.environment.rows();
  record.cols = workload.environment.cols();
  record.seed = campaign_job_seed(campaign_seed, workload.seed, index);
  record.workers = workers;

  // Declared before the timer: the span name must outlive the SpanTimer
  // that holds a pointer into it.
  const std::string span_name = "job:" + workload.name;
  obs::SpanTimer job_timer(span_name.c_str());
  try {
    const synth::GroundTruth truth =
        ess::materialize_truth(workload, record.seed);
    ess::PipelineConfig pipeline_config;
    pipeline_config.stop = {spec.generations, spec.fitness_threshold};
    pipeline_config.workers = workers;
    pipeline_config.lanes = lanes;
    pipeline_config.max_solution_maps = spec.max_solution_maps;
    pipeline_config.cache_policy = spec.cache_policy;
    // Read only under kShared; a null cache makes the job its own.
    pipeline_config.shared_cache = shared_cache;
    ess::PredictionPipeline pipeline(workload.environment, truth,
                                     pipeline_config);

    auto optimizer = ess::make_optimizer(spec);
    // A record one step short of this horizon lends its reports and the
    // search stream they left behind; one that does not fit is ignored.
    const bool resumes =
        resume && resume->status == JobStatus::kSucceeded &&
        resume->seed == record.seed && resume->workload == workload.name &&
        resume->result.steps.size() + 2 ==
            static_cast<std::size_t>(workload.truth_config.steps);
    const std::size_t done = resumes ? resume->result.steps.size() : 0;
    Rng rng = resumes ? resume->search_rng : Rng(record.seed ^ 0x5eedULL);
    record.result = pipeline.run(*optimizer, rng, static_cast<int>(done) + 1);
    if (resumes)
      record.result.steps.insert(record.result.steps.begin(),
                                 resume->result.steps.begin(),
                                 resume->result.steps.end());
    record.resumed_steps = done;
    record.search_rng = rng;
    record.status = JobStatus::kSucceeded;
    if (spec.keep_final_maps) {
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

PredictionEngine::PredictionEngine(EngineConfig config)
    : config_(validate_config(std::move(config))),
      obs_(config_.trace_out, config_.metrics_out, config_.collect_metrics),
      cache_(config_.shared_cache
                 ? config_.shared_cache
                 : std::make_shared<cache::SharedScenarioCache>(
                       config_.cache_mem_bytes)),
      pool_(config_.job_slots) {
  const unsigned lanes = default_workers_per_job();
  lanes_.resize(config_.job_slots);
  if (lanes > 1) {
    lane_cpus_ =
        parallel::CpuAllocator::process().acquire(config_.job_slots, lanes);
    for (unsigned slot = 0; slot < config_.job_slots; ++slot)
      lanes_[slot] = std::make_unique<parallel::MasterWorker>(
          lanes, lane_cpus_.slot_cpus(slot),
          "engine-slot-" + std::to_string(slot) + "/sim-worker");
  }
  slots_.reserve(config_.job_slots);
  for (unsigned slot = 0; slot < config_.job_slots; ++slot)
    slots_.push_back(pool_.submit([this, slot] { slot_loop(slot); }));
}

PredictionEngine::~PredictionEngine() {
  cancel_pending("cancelled: engine shut down before the job started");
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  // Join the slot loops BEFORE the pool member's destructor: the pool
  // joins its threads, and a slot blocked on work_cv_ would deadlock it.
  for (auto& slot : slots_) slot.get();
  // Members now unwind in reverse order: pool_ (threads already idle),
  // cache_, then obs_ — whose destructor uninstalls the recorder/registry
  // and writes trace_out/metrics_out with every recording thread quiesced.
}

unsigned PredictionEngine::default_workers_per_job() const {
  return std::max(1u, config_.total_workers / config_.job_slots);
}

const parallel::MasterWorker* PredictionEngine::slot_lanes(
    unsigned slot) const {
  ESSNS_REQUIRE(slot < config_.job_slots, "slot out of range");
  return lanes_[slot].get();
}

Submission PredictionEngine::submit(JobRequest request) {
  ESSNS_REQUIRE(request.workload != nullptr, "job request needs a workload");
  // Fail fast at admission instead of queueing a guaranteed failure.
  ess::validate_job_search(request.spec);

  Submission submission;
  std::unique_lock lock(mutex_);
  if (stopping_) {
    submission.admission = Admission::kShuttingDown;
    return submission;
  }
  if (queue_.size() >= config_.queue_capacity) {
    submission.admission = Admission::kQueueFull;
    return submission;
  }
  Pending pending;
  pending.request = std::move(request);
  pending.sequence = next_sequence_++;
  submission.record = pending.promise.get_future();
  submission.admission = Admission::kAccepted;
  queue_.push_back(std::move(pending));
  std::push_heap(queue_.begin(), queue_.end(), PendingLess{});
  lock.unlock();
  work_cv_.notify_one();
  return submission;
}

JobRecord PredictionEngine::cancelled_record(const JobRequest& request,
                                             const std::string& reason) const {
  JobRecord record;
  record.index = request.index;
  record.workload = request.workload->name;
  record.rows = request.workload->environment.rows();
  record.cols = request.workload->environment.cols();
  record.seed = campaign_job_seed(request.campaign_seed,
                                  request.workload->seed, request.index);
  record.workers = default_workers_per_job();
  record.status = JobStatus::kFailed;
  record.error = reason;
  return record;
}

std::size_t PredictionEngine::cancel_pending(const std::string& reason) {
  std::vector<Pending> cancelled;
  {
    std::lock_guard lock(mutex_);
    cancelled = std::move(queue_);
    queue_.clear();
  }
  // Heap order is not submission order; cancel in sequence order so
  // callbacks (e.g. the campaign progress printer) fire deterministically.
  std::sort(cancelled.begin(), cancelled.end(),
            [](const Pending& a, const Pending& b) {
              return a.sequence < b.sequence;
            });
  for (auto& pending : cancelled)
    finish_job(pending, cancelled_record(pending.request, reason));
  idle_cv_.notify_all();
  return cancelled.size();
}

void PredictionEngine::drain() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

std::size_t PredictionEngine::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::size_t PredictionEngine::in_flight() const {
  std::lock_guard lock(mutex_);
  return running_;
}

std::string PredictionEngine::metrics_json() const {
  const obs::MetricsRegistry* registry = obs_.registry();
  return registry ? registry->json() : std::string("{}");
}

void PredictionEngine::finish_job(Pending& pending, JobRecord record) {
  {
    std::lock_guard lock(done_mutex_);
    if (config_.on_job_done) config_.on_job_done(record);
    if (pending.request.on_done) pending.request.on_done(record);
  }
  pending.promise.set_value(std::move(record));
}

void PredictionEngine::slot_loop(unsigned slot) {
  obs::set_thread_name("engine-slot-" + std::to_string(slot));
  for (;;) {
    Pending pending;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with nothing left to run
      std::pop_heap(queue_.begin(), queue_.end(), PendingLess{});
      pending = std::move(queue_.back());
      queue_.pop_back();
      ++running_;
    }
    JobRecord record;
    if (drain_requested()) {
      // A drain was signalled after this job was queued: dispose of it as a
      // failed record (reports still account for it) without running.
      record = cancelled_record(pending.request,
                                "cancelled: drain requested (signal)");
    } else {
      if (pending.request.debug_before_run) pending.request.debug_before_run();
      record = run_prediction_job(
          *pending.request.workload, pending.request.index,
          pending.request.campaign_seed, default_workers_per_job(),
          pending.request.spec, simd::Mode::kAuto, parallel::NumaMode::kAuto,
          firelib::SweepBackend::kScalar, cache_, lanes_[slot].get(),
          pending.request.resume.get());
    }
    finish_job(pending, std::move(record));
    {
      std::lock_guard lock(mutex_);
      --running_;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace essns::service
