// PredictionEngine: the long-lived heart of the service layer.
//
// Before this layer, every campaign run constructed and destroyed its own
// ThreadPool, SharedScenarioCache and observability session — fine for a
// batch process, wrong for the steady-state workload the paper implies
// (re-prediction of tracked fires at successive intervals), where the warm
// cache does most of the work. The engine owns exactly ONE of each for its
// lifetime:
//
//   - ONE parallel::ThreadPool of `job_slots` job executors, and per slot
//     ONE parallel::MasterWorker lane pool of default_workers_per_job()
//     simulation lanes (none when that is 1), lent to every job the slot
//     runs — no job spawns or joins threads. While job_slots x lanes fit in
//     the CPUs the process may use, each lane is pinned to a CPU of its own
//     (parallel::CpuAllocator), so a job's batches fan out instead of
//     time-slicing one CPU; beyond that no lane is pinned. Slot threads
//     float.
//   - ONE cache::SharedScenarioCache shared by every job that asks for the
//     kShared policy (pre-loadable from disk via cache::load_cache),
//   - ONE obs session (TraceRecorder + MetricsRegistry) installed for the
//     engine's whole life, so `serve.*`/`campaign.*` metrics from any number
//     of submissions accumulate into a single scrape.
//
// Submission is admission-controlled: a bounded pending queue (kQueueFull
// is a normal, non-throwing answer — the backpressure signal a server turns
// into a reject response), per-request integer priority (higher runs
// sooner; FIFO within a level), and a worker-budget split (total_workers /
// job_slots simulation lanes per slot, the only per-job worker count).
// Every accepted request resolves to exactly one JobRecord through its
// future — job-level failures are recorded, never thrown.
//
// Determinism: a job's result is a pure function of (workload, campaign
// seed, index, spec) — see run_prediction_job() — so records are
// bit-identical no matter which slot (or lane placement) ran the job, at
// what priority, or how full the queue was. CampaignScheduler::run() is a
// thin client of this class; the service tests byte-compare it against a
// test-side scheduler twin that runs the same job body on its own pool (and
// job-local lanes). The same purity lets a client answer a
// repeated request from the record of the first one: serve::Server keeps
// each tracked fire's last record and submits a job only for a horizon it
// has not completed. It also lets a job one step past a record resume from
// it (JobRequest::resume): a prediction step reads nothing of the steps
// before it but the search stream, which the record keeps, so the resumed
// job runs only its new step and its record equals the full job's, timings
// and cache counters aside. Beyond that record, a job carries nothing from
// earlier jobs but what the shared cache holds (which changes only speed);
// the lanes it borrows keep no job state.
//
// Graceful drain: slot loops check service::drain_requested() between jobs;
// once a drain is signalled, queued jobs complete as kFailed "cancelled"
// records (their futures and callbacks still fire) while in-flight jobs
// finish normally — the reason an interrupted campaign still writes full
// reports.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cache/scenario_cache.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "ess/config.hpp"
#include "ess/pipeline.hpp"
#include "obs/session.hpp"
#include "parallel/master_worker.hpp"
#include "parallel/placement.hpp"
#include "parallel/thread_pool.hpp"
#include "synth/workloads.hpp"

// perfbench/tool.cpp still passes these (and a simd::Mode) to
// run_prediction_job; they select nothing.
namespace essns::parallel { enum class NumaMode { kAuto }; }
namespace essns::firelib { enum class SweepBackend { kScalar }; }

namespace essns::service {

enum class JobStatus { kSucceeded, kFailed };

const char* to_string(JobStatus status);

/// The effective seed of job `index` in a campaign: a pure function of
/// (campaign seed, workload seed, job index), independent of scheduling and
/// job concurrency — the reason per-job results are reproducible at any
/// parallelism level. Exposed so serve oracles can recompute a request's
/// seed from its parameters alone.
std::uint64_t campaign_job_seed(std::uint64_t campaign_seed,
                                std::uint64_t workload_seed,
                                std::size_t index);

/// Status, timings and results of one PredictionJob.
struct JobRecord {
  std::size_t index = 0;      ///< position in the submitted workload list
  std::string workload;
  int rows = 0;
  int cols = 0;
  std::uint64_t seed = 0;     ///< effective job seed (truth + search streams)
  unsigned workers = 1;       ///< simulation workers this job ran with
  JobStatus status = JobStatus::kFailed;
  std::string error;          ///< exception text when status == kFailed
  ess::PipelineResult result; ///< empty when the job failed
  /// The search stream after the job's last step: where a one-step
  /// extension of this job resumes (run_prediction_job's `resume`).
  Rng search_rng;
  /// Leading result.steps taken from the resume record instead of run
  /// (0 for a full job).
  std::size_t resumed_steps = 0;
  double elapsed_seconds = 0.0;
  Grid<double> final_probability;        ///< set when keep_final_maps
  Grid<std::uint8_t> final_prediction;   ///< set when keep_final_maps
};

/// Everything about HOW one job searches, as opposed to WHAT fire it
/// predicts (the workload) and WHERE it runs (the engine). Campaigns stamp
/// one spec on every job; a server derives one per request from its
/// defaults plus overrides. A kShared cache_policy uses the ENGINE's cache.
struct JobSpec : ess::SearchSpec {
  /// Retain the job's final probability matrix / predicted fire line.
  bool keep_final_maps = false;
};

/// One unit of admission: which fire, under which seeds, how urgently.
struct JobRequest {
  /// Non-null. Shared (not copied) because campaign submissions alias into
  /// the caller's workload vector; the caller keeps it alive until the
  /// job's future resolves.
  std::shared_ptr<const synth::Workload> workload;
  std::size_t index = 0;          ///< job index (seed + report field)
  std::uint64_t campaign_seed = 2022;
  /// Higher runs sooner; FIFO among equal priorities. Purely a scheduling
  /// hint — results are bit-identical at any priority.
  int priority = 0;
  JobSpec spec;
  /// A succeeded record of the same fire and spec one step short of this
  /// workload's horizon, to resume from (see run_prediction_job); null
  /// runs every step.
  std::shared_ptr<const JobRecord> resume;
  /// Invoked with the finished record (after the engine-wide on_job_done,
  /// both serialized on one lock) just before the future resolves — the
  /// server's completion path.
  std::function<void(const JobRecord&)> on_done;
  /// Test hook: runs in the executing slot immediately before the pipeline
  /// starts. Lets tests hold a slot busy deterministically (admission /
  /// priority / cancellation tests). Never set in production paths.
  std::function<void()> debug_before_run;
};

/// Run one prediction job synchronously on the calling thread: the pure
/// function of (workload, campaign_seed, index, workers-independent spec)
/// that every scheduled execution reproduces bit-for-bit. This is the
/// oracle the engine and serve tests (and perfbench) compare scheduled
/// results against. Job-level failures are recorded, not thrown. The relax
/// kernel is the one the CPU supports (simd::Mode::kAuto). The job simulates on
/// `lanes` when given (an engine slot's pool of `workers` lanes), else on a
/// job-local pool of `workers` lanes; the record is the same either way.
///
/// `resume`, when given, is the record of this job at one step less: the
/// same workload name and job seed, run under the same spec, with
/// horizon − 2 step reports. The job then still generates the whole truth,
/// but runs only its last step, from resume->search_rng, and prepends
/// resume's reports (resumed_steps counts them). Steps share nothing but
/// that stream (the optimizers keep no state between optimize() calls, and
/// caches change only speed), so the record equals the full job's, timings
/// and cache counters aside. A record that does not fit (another seed or
/// workload, another step count, a failed job) is ignored: the job runs in
/// full.
JobRecord run_prediction_job(
    const synth::Workload& workload, std::size_t index,
    std::uint64_t campaign_seed, unsigned workers, const JobSpec& spec,
    simd::Mode, parallel::NumaMode, firelib::SweepBackend,
    const std::shared_ptr<cache::SharedScenarioCache>& shared_cache,
    parallel::MasterWorker* lanes = nullptr,
    const JobRecord* resume = nullptr);

/// The run knobs of one engine: the only place they are declared. Campaigns
/// (CampaignConfig::engine) and servers (ServeConfig::engine) embed one and
/// document the fields they overwrite. Every field has an initializer, so
/// a designated initializer (`{.queue_capacity = 16}`) names only the
/// fields it changes without a -Wmissing-field-initializers warning.
struct EngineConfig {
  unsigned job_slots = 1;     ///< prediction jobs in flight at once
  unsigned total_workers = 1; ///< simulation-worker budget, split per slot
  /// Pending jobs the queue holds beyond the ones already running; a
  /// submission past this bound is answered kQueueFull, not blocked.
  std::size_t queue_capacity = 64;
  /// Byte budget of the engine's shared cache (ignored when `shared_cache`
  /// is provided).
  std::size_t cache_mem_bytes = cache::kDefaultCacheBytes;
  /// Pre-warmed cache to adopt (e.g. restored via cache::load_cache); null
  /// makes the engine create a fresh one.
  std::shared_ptr<cache::SharedScenarioCache> shared_cache{};
  /// Chrome trace-event JSON output path ("" or "none" = tracing off);
  /// written when the engine is destroyed.
  std::string trace_out{};
  /// Metrics JSON output path ("" or "none" = no file). Written on
  /// destruction.
  std::string metrics_out{};
  /// Install a MetricsRegistry even without a metrics_out path — servers
  /// scrape it live over the wire instead of reading a file.
  bool collect_metrics = false;
  /// Invoked once per finished job (success, failure or cancellation),
  /// serialized by the engine, before any per-request on_done.
  std::function<void(const JobRecord&)> on_job_done{};
};

/// How submit() answered.
enum class Admission {
  kAccepted,      ///< queued; the future will resolve to one JobRecord
  kQueueFull,     ///< bounded queue at capacity — back off and retry
  kShuttingDown,  ///< the engine is being destroyed
};

const char* to_string(Admission admission);

struct Submission {
  Admission admission = Admission::kShuttingDown;
  /// Valid iff admission == kAccepted.
  std::future<JobRecord> record;
};

class PredictionEngine {
 public:
  explicit PredictionEngine(EngineConfig config);
  /// Cancels still-pending jobs (their futures resolve to kFailed
  /// "cancelled" records), waits for in-flight jobs, joins the slots, then
  /// writes trace/metrics outputs.
  ~PredictionEngine();

  PredictionEngine(const PredictionEngine&) = delete;
  PredictionEngine& operator=(const PredictionEngine&) = delete;

  /// Admission-controlled, non-blocking. Throws InvalidArgument only for
  /// malformed requests (null workload, or a spec ess::validate_job_search
  /// refuses) — a full queue is a return value, not an exception.
  Submission submit(JobRequest request);

  /// Resolve every still-pending job as a kFailed record with `reason`
  /// (callbacks and futures fire as usual). In-flight jobs are not touched.
  /// Returns how many were cancelled.
  std::size_t cancel_pending(const std::string& reason);

  /// Block until the queue is empty and no job is in flight.
  void drain();

  std::size_t queue_depth() const;
  std::size_t in_flight() const;

  unsigned job_slots() const { return config_.job_slots; }
  /// Simulation lanes every job runs on: total_workers / job_slots, min 1.
  unsigned default_workers_per_job() const;
  /// Slot `slot`'s lane pool, null when jobs run on one worker (inline).
  const parallel::MasterWorker* slot_lanes(unsigned slot) const;
  /// The engine-lifetime shared cache (never null).
  const std::shared_ptr<cache::SharedScenarioCache>& shared_cache() const {
    return cache_;
  }
  /// Live scrape of the engine's metrics registry ("{}" when metrics are
  /// off). Pretty-printed (MetricsRegistry::json()); a wire frontend
  /// flattens it (serve::compact_json) before shipping it as one line.
  std::string metrics_json() const;
  bool metrics_enabled() const { return obs_.metrics(); }

  const EngineConfig& config() const { return config_; }

 private:
  struct Pending {
    JobRequest request;
    std::promise<JobRecord> promise;
    std::uint64_t sequence = 0;
  };

  void slot_loop(unsigned slot);
  void finish_job(Pending& pending, JobRecord record);
  JobRecord cancelled_record(const JobRequest& request,
                             const std::string& reason) const;

  EngineConfig config_;
  // Installed before and torn down after the pool: destruction order
  // (reverse of declaration) joins the slots first, then writes outputs.
  obs::ObsSession obs_;
  std::shared_ptr<cache::SharedScenarioCache> cache_;

  mutable std::mutex mutex_;             ///< guards the four fields below
  std::condition_variable work_cv_;      ///< queue became non-empty / stopping
  std::condition_variable idle_cv_;      ///< a job finished / queue emptied
  std::vector<Pending> queue_;           ///< binary max-heap (priority, FIFO)
  std::uint64_t next_sequence_ = 0;
  std::size_t running_ = 0;
  bool stopping_ = false;

  std::mutex done_mutex_;  ///< serializes completion callbacks
  // Lanes before the slot pool: the slots (joined in the destructor body)
  // are done with them before they are joined, and the CPUs go back to the
  // allocator last.
  parallel::CpuLease lane_cpus_;
  /// One per slot; null entries when jobs run on one worker.
  std::vector<std::unique_ptr<parallel::MasterWorker>> lanes_;
  parallel::ThreadPool pool_;
  std::vector<std::future<void>> slots_;
};

}  // namespace essns::service
