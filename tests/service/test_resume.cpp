// A job resumed from the record of the same fire one step short of its
// horizon runs only its last step, and its record equals the full job's:
// every StepReport field but timings and cache counters, and the search
// stream after the last step. A record that does not fit runs the full job.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>

#include "cache/scenario_cache.hpp"
#include "service/engine.hpp"
#include "synth/catalog.hpp"

namespace essns::service {
namespace {

constexpr std::uint64_t kCampaignSeed = 2022;

synth::Workload fire_at(int steps, std::uint64_t seed = 2022) {
  synth::WorkloadRequest request;
  request.size = 16;
  request.steps = steps;
  request.seed = seed;
  return synth::make_workload(request);
}

JobSpec spec_for(const std::string& method, cache::CachePolicy policy) {
  JobSpec spec;
  spec.method = method;
  spec.generations = 3;
  spec.fitness_threshold = 2.0;  // never met: every generation runs
  spec.population = 8;
  spec.offspring = 8;
  spec.islands = 2;
  spec.cache_policy = policy;
  return spec;
}

JobRecord run(const synth::Workload& workload, const JobSpec& spec,
              const std::shared_ptr<cache::SharedScenarioCache>& cache,
              const JobRecord* resume = nullptr) {
  return run_prediction_job(workload, 0, kCampaignSeed, 1, spec,
                            simd::Mode::kAuto, parallel::NumaMode::kAuto,
                            firelib::SweepBackend::kScalar, cache, nullptr,
                            resume);
}

/// The record fields a resumed job must reproduce (timings and cache
/// counters differ by design: the resumed prefix ran in another job).
void expect_same_result(const JobRecord& got, const JobRecord& want) {
  ASSERT_EQ(got.status, JobStatus::kSucceeded) << got.error;
  ASSERT_EQ(want.status, JobStatus::kSucceeded) << want.error;
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.workload, want.workload);
  EXPECT_EQ(got.result.optimizer_name, want.result.optimizer_name);
  EXPECT_TRUE(got.search_rng == want.search_rng);
  ASSERT_EQ(got.result.steps.size(), want.result.steps.size());
  for (std::size_t i = 0; i < got.result.steps.size(); ++i) {
    SCOPED_TRACE("report " + std::to_string(i));
    const ess::StepReport& a = got.result.steps[i];
    const ess::StepReport& b = want.result.steps[i];
    EXPECT_EQ(a.step, b.step);
    EXPECT_EQ(a.kign, b.kign);
    EXPECT_EQ(a.calibration_fitness, b.calibration_fitness);
    EXPECT_EQ(a.best_os_fitness, b.best_os_fitness);
    EXPECT_EQ(a.prediction_quality, b.prediction_quality);
    EXPECT_EQ(a.os_evaluations, b.os_evaluations);
    EXPECT_EQ(a.os_generations, b.os_generations);
    EXPECT_EQ(a.solution_count, b.solution_count);
  }
}

class ResumeMethods : public ::testing::TestWithParam<std::string> {};

TEST_P(ResumeMethods, OneStepExtensionEqualsTheFullJob) {
  for (int horizon = 2; horizon <= 5; ++horizon) {
    SCOPED_TRACE("horizon " + std::to_string(horizon));
    // The full job with the cache off is the oracle; the record and its
    // extension share one cache, as a server's jobs do.
    const JobRecord full =
        run(fire_at(horizon + 1),
            spec_for(GetParam(), cache::CachePolicy::kOff), nullptr);
    const JobSpec shared = spec_for(GetParam(), cache::CachePolicy::kShared);
    const auto cache = std::make_shared<cache::SharedScenarioCache>();
    const JobRecord record = run(fire_at(horizon), shared, cache);
    ASSERT_EQ(record.status, JobStatus::kSucceeded) << record.error;
    EXPECT_EQ(record.resumed_steps, 0u);

    const JobRecord resumed = run(fire_at(horizon + 1), shared, cache, &record);
    EXPECT_EQ(resumed.resumed_steps, static_cast<std::size_t>(horizon - 1));
    expect_same_result(resumed, full);
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, ResumeMethods,
                         ::testing::Values("ess-ns", "ess-ga", "essim-ea",
                                           "essim-de", "essim-de-tuned"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Resume, ARecordThatDoesNotFitRunsTheFullJob) {
  const JobSpec spec = spec_for("ess-ns", cache::CachePolicy::kOff);
  const JobRecord full = run(fire_at(4), spec, nullptr);
  const JobRecord record = run(fire_at(3), spec, nullptr);

  // Another fire seed: another job seed.
  const JobRecord other_seed = run(fire_at(3, 7), spec, nullptr);
  // Another workload name (the seed field forged to match).
  synth::WorkloadRequest hills;
  hills.terrain = synth::TerrainFamily::kHills;
  hills.size = 16;
  hills.steps = 3;
  JobRecord other_name = run(synth::make_workload(hills), spec, nullptr);
  other_name.seed = record.seed;
  // Two steps short, and at the same horizon.
  const JobRecord two_short = run(fire_at(2), spec, nullptr);
  const JobRecord same_horizon = full;
  // A failed job.
  JobRecord failed = record;
  failed.status = JobStatus::kFailed;

  for (const JobRecord* misfit : std::initializer_list<const JobRecord*>{
           &other_seed, &other_name, &two_short, &same_horizon, &failed}) {
    const JobRecord got = run(fire_at(4), spec, nullptr, misfit);
    EXPECT_EQ(got.resumed_steps, 0u);
    expect_same_result(got, full);
  }
  const JobRecord resumed = run(fire_at(4), spec, nullptr, &record);
  EXPECT_EQ(resumed.resumed_steps, 2u);
  expect_same_result(resumed, full);
}

}  // namespace
}  // namespace essns::service
