#include "service/engine.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <algorithm>
#include <csignal>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "reference_scheduler.hpp"
#include "service/campaign.hpp"
#include "service/report.hpp"
#include "service/signals.hpp"
#include "synth/catalog.hpp"

namespace essns::service {
namespace {

// Same tiny-but-real fixture as test_campaign.cpp: 4 distinct fires on
// 16x16 maps, 3 truth steps, small search budget.
std::vector<synth::Workload> tiny_workloads() {
  synth::CatalogSpec spec;
  spec.terrains = {synth::TerrainFamily::kPlains,
                   synth::TerrainFamily::kHills};
  spec.sizes = {16};
  spec.weather = {synth::WeatherRegime::kSteady};
  spec.ignitions = {synth::IgnitionPattern::kCenter,
                    synth::IgnitionPattern::kOffset};
  spec.steps = 3;
  spec.base_seed = 11;
  return synth::generate_catalog(spec);
}

CampaignConfig tiny_config() {
  CampaignConfig config;
  config.spec.generations = 3;
  config.spec.population = 8;
  config.spec.offspring = 8;
  config.seed = 77;
  return config;
}

JobSpec tiny_spec() {
  JobSpec spec;
  spec.generations = 3;
  spec.population = 8;
  spec.offspring = 8;
  return spec;
}

std::shared_ptr<const synth::Workload> share(const synth::Workload& w) {
  return std::make_shared<synth::Workload>(w);
}

/// Canonical (timings=zero) report rendering — the byte string the
/// engine-vs-reference property compares.
std::string canonical_reports(const CampaignResult& result) {
  ReportOptions options;
  options.zero_timings = true;
  std::ostringstream out;
  write_campaign_jsonl(result, out, options);
  out << "\n--csv--\n";
  write_campaign_csv(result, out, options);
  out << "\n--summary--\n" << campaign_summary_json(result, options);
  return out.str();
}

/// Holds an engine slot busy until release() — makes admission, priority
/// and cancellation deterministic to observe.
class SlotGate {
 public:
  std::function<void()> blocker() {
    return [this] {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return open_; });
    };
  }
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// ---------------------------------------------------------------------------
// The tentpole property: CampaignScheduler::run() (thin client of the
// engine) is byte-identical to oracle::run_reference() (the scheduler twin
// in reference_scheduler.hpp) across worker counts x job concurrency x cache
// policy.
// ---------------------------------------------------------------------------

TEST(PredictionEngine, CampaignViaEngineMatchesReferenceByteForByte) {
  const auto workloads = tiny_workloads();

  struct Combo {
    unsigned workers;
    unsigned jobs;
    cache::CachePolicy policy;
  };
  // Per-job (off/step) cache counters are deterministic at any concurrency,
  // and serial shared-cache runs replay one hit/miss sequence — so every
  // combo here renders byte-identical canonical reports.
  const Combo combos[] = {
      {1, 1, cache::CachePolicy::kStep},
      {2, 3, cache::CachePolicy::kStep},
      {4, 2, cache::CachePolicy::kStep},
      {1, 1, cache::CachePolicy::kShared},
  };
  for (const Combo& combo : combos) {
    CampaignConfig config = tiny_config();
    config.engine.total_workers = combo.workers;
    config.engine.job_slots = combo.jobs;
    config.spec.cache_policy = combo.policy;
    const CampaignScheduler scheduler(config);

    const std::string via_engine = canonical_reports(scheduler.run(workloads));
    const std::string reference =
        canonical_reports(oracle::run_reference(scheduler, workloads));
    EXPECT_EQ(via_engine, reference)
        << "engine-backed campaign diverged at workers=" << combo.workers
        << " jobs=" << combo.jobs
        << " cache=" << cache::to_string(combo.policy);
  }
}

TEST(PredictionEngine, ConcurrentSharedCacheCampaignMatchesReferenceResults) {
  // Under a CONCURRENTLY shared cache the hit/miss pattern is scheduling-
  // dependent (so reports are not byte-comparable), but every result field
  // must still be bit-identical to the reference scheduler's.
  const auto workloads = tiny_workloads();
  CampaignConfig config = tiny_config();
  config.engine.total_workers = 2;
  config.engine.job_slots = 2;
  config.spec.cache_policy = cache::CachePolicy::kShared;
  const CampaignScheduler scheduler(config);

  const CampaignResult via_engine = scheduler.run(workloads);
  const CampaignResult reference =
      oracle::run_reference(scheduler, workloads);
  ASSERT_EQ(via_engine.jobs.size(), reference.jobs.size());
  for (std::size_t i = 0; i < reference.jobs.size(); ++i) {
    const JobRecord& a = via_engine.jobs[i];
    const JobRecord& b = reference.jobs[i];
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.workers, b.workers);
    EXPECT_EQ(a.status, b.status);
    ASSERT_EQ(a.result.steps.size(), b.result.steps.size());
    for (std::size_t s = 0; s < a.result.steps.size(); ++s) {
      EXPECT_EQ(a.result.steps[s].kign, b.result.steps[s].kign);
      EXPECT_EQ(a.result.steps[s].calibration_fitness,
                b.result.steps[s].calibration_fitness);
      EXPECT_EQ(a.result.steps[s].prediction_quality,
                b.result.steps[s].prediction_quality);
      EXPECT_EQ(a.result.steps[s].os_evaluations,
                b.result.steps[s].os_evaluations);
    }
  }
}

TEST(PredictionEngine, SubmittedJobMatchesPureOracle) {
  const auto workloads = tiny_workloads();

  EngineConfig config;
  config.job_slots = 2;
  config.total_workers = 2;
  PredictionEngine engine(config);

  JobRequest request;
  request.workload = share(workloads[0]);
  request.index = 3;
  request.campaign_seed = 77;
  request.spec = tiny_spec();
  Submission submission = engine.submit(std::move(request));
  ASSERT_EQ(submission.admission, Admission::kAccepted);
  const JobRecord scheduled = submission.record.get();

  const JobRecord oracle = run_prediction_job(
      workloads[0], 3, 77, engine.default_workers_per_job(), tiny_spec(),
      simd::Mode::kAuto, parallel::NumaMode::kAuto,
      firelib::SweepBackend::kScalar, nullptr);

  EXPECT_EQ(scheduled.status, JobStatus::kSucceeded);
  EXPECT_EQ(scheduled.seed, oracle.seed);
  EXPECT_EQ(scheduled.seed, campaign_job_seed(77, workloads[0].seed, 3));
  ASSERT_EQ(scheduled.result.steps.size(), oracle.result.steps.size());
  for (std::size_t i = 0; i < oracle.result.steps.size(); ++i) {
    EXPECT_EQ(scheduled.result.steps[i].kign, oracle.result.steps[i].kign);
    EXPECT_EQ(scheduled.result.steps[i].prediction_quality,
              oracle.result.steps[i].prediction_quality);
  }
}

TEST(PredictionEngine, HigherPriorityRunsFirstFifoWithinLevel) {
  const auto workloads = tiny_workloads();

  EngineConfig config;
  config.job_slots = 1;
  config.queue_capacity = 8;
  PredictionEngine engine(config);

  SlotGate gate;
  std::mutex order_mutex;
  std::vector<std::size_t> order;

  auto submit = [&](std::size_t index, int priority, bool blocks) {
    JobRequest request;
    request.workload = share(workloads[index % workloads.size()]);
    request.index = index;
    request.campaign_seed = 77;
    request.priority = priority;
    request.spec = tiny_spec();
    if (blocks) request.debug_before_run = gate.blocker();
    request.on_done = [&, index](const JobRecord&) {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(index);
    };
    Submission submission = engine.submit(std::move(request));
    EXPECT_EQ(submission.admission, Admission::kAccepted);
    return std::move(submission.record);
  };

  // Job 0 occupies the only slot; 1..3 queue up behind it. Wait for the
  // slot to claim job 0 so the queue order below is the whole story.
  auto f0 = submit(0, 0, true);
  while (engine.in_flight() == 0) std::this_thread::yield();
  auto f1 = submit(1, 0, false);   // low priority, submitted first
  auto f2 = submit(2, 5, false);   // high priority
  auto f3 = submit(3, 5, false);   // same high priority, later -> after 2
  gate.release();
  f0.get();
  f1.get();
  f2.get();
  f3.get();

  const std::vector<std::size_t> expected = {0, 2, 3, 1};
  EXPECT_EQ(order, expected);
}

TEST(PredictionEngine, BoundedQueueAnswersQueueFull) {
  const auto workloads = tiny_workloads();

  EngineConfig config;
  config.job_slots = 1;
  config.queue_capacity = 1;
  PredictionEngine engine(config);

  SlotGate gate;
  JobRequest blocker;
  blocker.workload = share(workloads[0]);
  blocker.spec = tiny_spec();
  blocker.debug_before_run = gate.blocker();
  auto running = engine.submit(std::move(blocker));
  ASSERT_EQ(running.admission, Admission::kAccepted);
  // Wait until the blocker leaves the queue for its slot so capacity frees.
  while (engine.in_flight() == 0) std::this_thread::yield();

  JobRequest queued;
  queued.workload = share(workloads[1]);
  queued.spec = tiny_spec();
  auto waiting = engine.submit(std::move(queued));
  EXPECT_EQ(waiting.admission, Admission::kAccepted);

  JobRequest overflow;
  overflow.workload = share(workloads[2]);
  overflow.spec = tiny_spec();
  auto rejected = engine.submit(std::move(overflow));
  EXPECT_EQ(rejected.admission, Admission::kQueueFull);

  gate.release();
  EXPECT_EQ(running.record.get().status, JobStatus::kSucceeded);
  EXPECT_EQ(waiting.record.get().status, JobStatus::kSucceeded);
}

TEST(PredictionEngine, CancelPendingResolvesFuturesAsFailedRecords) {
  const auto workloads = tiny_workloads();

  EngineConfig config;
  config.job_slots = 1;
  config.queue_capacity = 8;
  PredictionEngine engine(config);

  SlotGate gate;
  JobRequest blocker;
  blocker.workload = share(workloads[0]);
  blocker.spec = tiny_spec();
  blocker.debug_before_run = gate.blocker();
  auto running = engine.submit(std::move(blocker));
  ASSERT_EQ(running.admission, Admission::kAccepted);
  while (engine.in_flight() == 0) std::this_thread::yield();

  JobRequest queued;
  queued.workload = share(workloads[1]);
  queued.index = 1;
  queued.spec = tiny_spec();
  auto waiting = engine.submit(std::move(queued));
  ASSERT_EQ(waiting.admission, Admission::kAccepted);

  EXPECT_EQ(engine.cancel_pending("cancelled: test"), 1u);
  const JobRecord record = waiting.record.get();
  EXPECT_EQ(record.status, JobStatus::kFailed);
  EXPECT_EQ(record.error, "cancelled: test");
  EXPECT_EQ(record.index, 1u);
  EXPECT_EQ(record.seed, campaign_job_seed(2022, workloads[1].seed, 1));

  gate.release();
  EXPECT_EQ(running.record.get().status, JobStatus::kSucceeded);
}

TEST(PredictionEngine, DestructionCancelsQueuedJobs) {
  const auto workloads = tiny_workloads();

  SlotGate gate;
  std::future<JobRecord> queued_future;
  {
    EngineConfig config;
    config.job_slots = 1;
    config.queue_capacity = 8;
    PredictionEngine engine(config);

    JobRequest blocker;
    blocker.workload = share(workloads[0]);
    blocker.spec = tiny_spec();
    blocker.debug_before_run = gate.blocker();
    ASSERT_EQ(engine.submit(std::move(blocker)).admission,
              Admission::kAccepted);
    while (engine.in_flight() == 0) std::this_thread::yield();

    JobRequest queued;
    queued.workload = share(workloads[1]);
    queued.spec = tiny_spec();
    // The slot stays held until the destructor cancels this job; released
    // any earlier, the slot could finish the blocker and start this job
    // before the destructor reaches it.
    queued.on_done = [&gate](const JobRecord&) { gate.release(); };
    auto submission = engine.submit(std::move(queued));
    ASSERT_EQ(submission.admission, Admission::kAccepted);
    queued_future = std::move(submission.record);
  }  // the dtor cancels the queued job, then joins the in-flight one
  const JobRecord record = queued_future.get();
  EXPECT_EQ(record.status, JobStatus::kFailed);
  EXPECT_NE(record.error.find("cancelled"), std::string::npos);
}

TEST(PredictionEngine, RejectsMalformedRequests) {
  EngineConfig config;
  PredictionEngine engine(config);

  JobRequest null_workload;
  EXPECT_THROW(engine.submit(std::move(null_workload)), InvalidArgument);

  JobRequest bad_method;
  bad_method.workload = share(tiny_workloads()[0]);
  bad_method.spec = tiny_spec();
  bad_method.spec.method = "no-such-method";
  EXPECT_THROW(engine.submit(std::move(bad_method)), InvalidArgument);

  // Out of the front doors' bounds: refused at admission, not run to fail.
  JobRequest bad_population;
  bad_population.workload = share(tiny_workloads()[0]);
  bad_population.spec = tiny_spec();
  bad_population.spec.population = 1;
  EXPECT_THROW(engine.submit(std::move(bad_population)), InvalidArgument);
}

TEST(PredictionEngine, SplitsWorkerBudgetOverSlots) {
  EngineConfig config;
  config.job_slots = 2;
  config.total_workers = 4;
  PredictionEngine engine(config);
  EXPECT_EQ(engine.default_workers_per_job(), 2u);
}

// ---------------------------------------------------------------------------
// Satellite: SIGINT/SIGTERM drain. A self-raised SIGINT mid-campaign must
// not kill the process; in-flight work finishes, queued jobs resolve as
// cancelled records, and reports still render.
// ---------------------------------------------------------------------------

TEST(PredictionEngine, SignalDrainCancelsQueuedJobsButFinishesInFlight) {
  const auto workloads = tiny_workloads();
  ScopedSignalDrain handler;
  reset_drain();

  EngineConfig config;
  config.job_slots = 1;
  config.queue_capacity = 8;
  std::vector<std::future<JobRecord>> futures;
  {
    PredictionEngine engine(config);
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      JobRequest request;
      request.workload = share(workloads[i]);
      request.index = i;
      request.spec = tiny_spec();
      if (i == 0)
        // The signal lands while job 0 occupies the slot: job 0 must still
        // complete, everything queued behind it must cancel.
        request.debug_before_run = [] { std::raise(SIGINT); };
      auto submission = engine.submit(std::move(request));
      ASSERT_EQ(submission.admission, Admission::kAccepted);
      futures.push_back(std::move(submission.record));
    }
    engine.drain();
    EXPECT_TRUE(drain_requested());
  }

  const JobRecord first = futures[0].get();
  EXPECT_EQ(first.status, JobStatus::kSucceeded);
  for (std::size_t i = 1; i < futures.size(); ++i) {
    const JobRecord record = futures[i].get();
    EXPECT_EQ(record.status, JobStatus::kFailed);
    EXPECT_NE(record.error.find("drain requested"), std::string::npos);
  }
  reset_drain();
}

TEST(CampaignScheduler, SignalDrainStillProducesFullReports) {
  const auto workloads = tiny_workloads();
  ScopedSignalDrain handler;
  reset_drain();

  CampaignConfig config = tiny_config();
  config.engine.on_job_done = [](const JobRecord& job) {
    if (job.index == 0) std::raise(SIGINT);
  };
  const CampaignScheduler scheduler(config);
  const CampaignResult result = scheduler.run(workloads);

  // Every submitted job has a record — finished ones as successes, drained
  // ones as cancelled failures — so the reports cover the whole catalog.
  ASSERT_EQ(result.jobs.size(), workloads.size());
  EXPECT_GE(result.succeeded(), 1u);
  EXPECT_GE(result.failed(), 1u);
  for (const JobRecord& job : result.jobs) {
    if (job.status == JobStatus::kFailed) {
      EXPECT_NE(job.error.find("drain"), std::string::npos);
    }
  }
  const std::string reports = canonical_reports(result);
  EXPECT_NE(reports.find("\"jobs\""), std::string::npos);
  reset_drain();
}

// ---------------------------------------------------------------------------
// Slot-lifetime lanes: every job of a slot simulates on the same lane pool.
// ---------------------------------------------------------------------------

/// Submit one tiny job and wait for its record.
JobRecord run_job(PredictionEngine& engine, const synth::Workload& workload,
                  std::size_t index) {
  JobRequest request;
  request.workload = share(workload);
  request.index = index;
  request.campaign_seed = 77;
  request.spec = tiny_spec();
  Submission submission = engine.submit(std::move(request));
  EXPECT_EQ(submission.admission, Admission::kAccepted);
  return submission.record.get();
}

/// The job's record as the pure oracle computes it (job-local lanes).
void expect_matches_oracle(const JobRecord& scheduled,
                           const synth::Workload& workload, std::size_t index,
                           unsigned workers) {
  const JobRecord oracle = run_prediction_job(
      workload, index, 77, workers, tiny_spec(), simd::Mode::kAuto,
      parallel::NumaMode::kAuto, firelib::SweepBackend::kScalar, nullptr);
  ASSERT_EQ(scheduled.status, JobStatus::kSucceeded) << scheduled.error;
  EXPECT_EQ(scheduled.workers, workers);
  ASSERT_EQ(scheduled.result.steps.size(), oracle.result.steps.size());
  for (std::size_t i = 0; i < oracle.result.steps.size(); ++i) {
    EXPECT_EQ(scheduled.result.steps[i].kign, oracle.result.steps[i].kign);
    EXPECT_EQ(scheduled.result.steps[i].prediction_quality,
              oracle.result.steps[i].prediction_quality);
    EXPECT_EQ(scheduled.result.steps[i].os_evaluations,
              oracle.result.steps[i].os_evaluations);
  }
}

std::size_t tasks_run(const parallel::MasterWorker& lanes) {
  std::size_t total = 0;
  for (unsigned lane = 0; lane < lanes.lanes(); ++lane)
    total += lanes.processed_by(lane);
  return total;
}

TEST(PredictionEngine, SlotLanesPersistAcrossJobs) {
  const auto workloads = tiny_workloads();
  EngineConfig config;
  config.job_slots = 1;
  config.total_workers = 3;
  PredictionEngine engine(config);

  const parallel::MasterWorker* lanes = engine.slot_lanes(0);
  ASSERT_NE(lanes, nullptr);
  ASSERT_EQ(lanes->lanes(), 3u);
  const std::vector<std::thread::id> ids = lanes->thread_ids();
  std::size_t tasks = tasks_run(*lanes);
  for (std::size_t job = 0; job < workloads.size(); ++job) {
    const JobRecord record = run_job(engine, workloads[job], job);
    expect_matches_oracle(record, workloads[job], job, 3);
    // The job simulated on the slot's lanes, and they are the same threads.
    EXPECT_GT(tasks_run(*lanes), tasks);
    tasks = tasks_run(*lanes);
    EXPECT_EQ(engine.slot_lanes(0), lanes);
    EXPECT_EQ(lanes->thread_ids(), ids);
  }
}

TEST(PredictionEngine, OneWorkerPerJobRunsInlineWithoutLanes) {
  EngineConfig config;
  config.job_slots = 3;
  config.total_workers = 3;
  const PredictionEngine engine(config);
  EXPECT_EQ(engine.default_workers_per_job(), 1u);
  for (unsigned slot = 0; slot < 3; ++slot)
    EXPECT_EQ(engine.slot_lanes(slot), nullptr);
  EXPECT_THROW(engine.slot_lanes(3), InvalidArgument);
}

TEST(PredictionEngine, SlotsNeverShareALaneCpu) {
  EngineConfig config;
  config.job_slots = 2;
  config.total_workers = 4;
  const std::vector<int> free_before =
      parallel::CpuAllocator::process().free_cpus();
  {
    const PredictionEngine engine(config);
    const parallel::MasterWorker* first = engine.slot_lanes(0);
    const parallel::MasterWorker* second = engine.slot_lanes(1);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    if (free_before.size() >= 4) {
      // Placed: every lane has its own CPU, taken from the free ones.
      std::set<int> cpus;
      for (const auto* lanes : {first, second}) {
        ASSERT_EQ(lanes->cpus().size(), 2u);
        for (const int cpu : lanes->cpus()) {
          EXPECT_TRUE(cpus.insert(cpu).second) << "cpu " << cpu << " twice";
          EXPECT_NE(std::find(free_before.begin(), free_before.end(), cpu),
                    free_before.end());
        }
      }
      // A second engine finds too few free CPUs and pins nothing.
      const PredictionEngine other(config);
      EXPECT_TRUE(other.slot_lanes(0)->cpus().empty());
      EXPECT_TRUE(other.slot_lanes(1)->cpus().empty());
    } else {
      // Too few CPUs for 2 x 2 lanes: nothing is pinned.
      EXPECT_TRUE(first->cpus().empty());
      EXPECT_TRUE(second->cpus().empty());
    }
  }
  // The engine gave its CPUs back.
  EXPECT_EQ(parallel::CpuAllocator::process().free_cpus(), free_before);
}

/// A plains fire ringed by cells of negative slope: the hidden fire is too
/// damp to reach the ring, but a fast-spreading candidate scenario does,
/// and its simulation throws on a lane ("slope ratio must be
/// non-negative").
synth::Workload poisoned_ring_workload() {
  synth::Workload workload = synth::make_plains(24, 5);
  workload.name = "poisoned";
  Grid<double> slope(24, 24, 0.0);
  for (int i = 0; i < 24; ++i) {
    slope(0, i) = slope(23, i) = slope(i, 0) = slope(i, 23) = -5.0;
  }
  workload.environment.set_topography(std::move(slope),
                                      Grid<double>(24, 24, 0.0));
  workload.truth_config.hidden.wind_speed = 0.0;
  workload.truth_config.hidden.m1 = 20.0;
  workload.truth_config.steps = 3;
  workload.truth_config.observation_noise = 0.0;
  return workload;
}

TEST(PredictionEngine, FailedJobLeavesSlotLanesUsable) {
  const auto workloads = tiny_workloads();
  EngineConfig config;
  config.job_slots = 1;
  config.total_workers = 2;
  PredictionEngine engine(config);
  const parallel::MasterWorker* lanes = engine.slot_lanes(0);
  ASSERT_NE(lanes, nullptr);
  const std::vector<std::thread::id> ids = lanes->thread_ids();

  for (int round = 0; round < 2; ++round) {
    const std::size_t tasks_before = tasks_run(*lanes);
    const JobRecord failed = run_job(engine, poisoned_ring_workload(), 0);
    ASSERT_EQ(failed.status, JobStatus::kFailed);
    EXPECT_NE(failed.error.find("slope"), std::string::npos) << failed.error;
    EXPECT_GT(tasks_run(*lanes), tasks_before);  // it failed on the lanes

    const JobRecord next = run_job(engine, workloads[1], 1);
    expect_matches_oracle(next, workloads[1], 1, 2);
    EXPECT_EQ(lanes->thread_ids(), ids);
  }
}

}  // namespace
}  // namespace essns::service
