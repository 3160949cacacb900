#include "ess/simulation_service.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ess/fitness.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

class SimulationServiceTest : public ::testing::Test {
 protected:
  SimulationServiceTest() : workload_(synth::make_plains(32)) {
    Rng rng(5);
    truth_ = synth::generate_ground_truth(workload_.environment,
                                          workload_.truth_config, rng);
    Rng sample_rng(17);
    const auto& space = firelib::ScenarioSpace::table1();
    for (int i = 0; i < 12; ++i)
      scenarios_.push_back(space.sample(sample_rng));
  }

  synth::Workload workload_;
  synth::GroundTruth truth_;
  std::vector<firelib::Scenario> scenarios_;
};

TEST_F(SimulationServiceTest, BatchEqualsSerialAcrossWorkerCounts) {
  // The reproducibility contract: simulate_batch must be bit-identical to
  // N independent simulate() calls at every worker count.
  SimulationService reference(workload_.environment, 1);
  std::vector<firelib::IgnitionMap> expected;
  for (const auto& scenario : scenarios_)
    expected.push_back(reference.simulate(scenario, truth_.fire_lines[0],
                                          truth_.step_minutes));

  for (unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    SimulationService service(workload_.environment, workers);
    const auto maps = service.simulate_batch(scenarios_, truth_.fire_lines[0],
                                             truth_.step_minutes);
    ASSERT_EQ(maps.size(), expected.size());
    for (std::size_t i = 0; i < maps.size(); ++i) EXPECT_EQ(maps[i], expected[i]);
  }
}

TEST_F(SimulationServiceTest, FitnessBatchMatchesScalarJaccard) {
  SimulationService reference(workload_.environment, 1);
  std::vector<double> expected;
  for (const auto& scenario : scenarios_) {
    const auto map = reference.simulate(scenario, truth_.fire_lines[0],
                                        truth_.step_minutes);
    expected.push_back(
        jaccard_at(truth_.fire_lines[1], map, truth_.step_minutes, 0.0));
  }

  for (unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    SimulationService service(workload_.environment, workers);
    const auto fitness = service.fitness_batch(
        scenarios_, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
        truth_.step_minutes);
    ASSERT_EQ(fitness.size(), expected.size());
    for (std::size_t i = 0; i < fitness.size(); ++i)
      EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
  }
}

TEST_F(SimulationServiceTest, RunBatchScoresAndKeepsMapsPerRequest) {
  SimulationService service(workload_.environment, 2);
  std::vector<SimulationRequest> requests(2);
  requests[0].scenario = &scenarios_[0];
  requests[0].start = &truth_.fire_lines[0];
  requests[0].end_time = truth_.step_minutes;
  requests[0].target = &truth_.fire_lines[1];
  requests[0].keep_map = false;
  requests[1].scenario = &scenarios_[1];
  requests[1].start = &truth_.fire_lines[0];
  requests[1].end_time = truth_.step_minutes;

  const auto results = service.run_batch(requests);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].map.empty());  // fitness-only request drops the map
  EXPECT_GE(results[0].fitness, 0.0);
  EXPECT_LE(results[0].fitness, 1.0);
  EXPECT_FALSE(results[1].map.empty());
  EXPECT_EQ(results[1].fitness, 0.0);  // no target -> unscored
}

TEST_F(SimulationServiceTest, CountsEverySimulation) {
  SimulationService service(workload_.environment, 2);
  EXPECT_EQ(service.simulations_run(), 0u);
  service.simulate_batch(scenarios_, truth_.fire_lines[0],
                         truth_.step_minutes);
  EXPECT_EQ(service.simulations_run(), scenarios_.size());
  service.simulate(scenarios_[0], truth_.fire_lines[0], truth_.step_minutes);
  EXPECT_EQ(service.simulations_run(), scenarios_.size() + 1);
}

TEST_F(SimulationServiceTest, CachedFitnessBatchMatchesUncachedBitwise) {
  // Duplicate-heavy batch: cached vs uncached results must agree bitwise at
  // every worker count, and the cache decisions (made on the master thread)
  // must be deterministic across worker counts.
  std::vector<firelib::Scenario> batch;
  for (int repeat = 0; repeat < 3; ++repeat)
    for (const auto& scenario : scenarios_) batch.push_back(scenario);

  SimulationService uncached(workload_.environment, 1);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const auto expected = uncached.fitness_batch(
      batch, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);
  EXPECT_EQ(uncached.cache_hits(), 0u);
  EXPECT_EQ(uncached.cache_misses(), 0u);
  EXPECT_EQ(uncached.simulations_run(), batch.size());

  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    SimulationService service(workload_.environment, workers);
    ASSERT_EQ(service.cache_policy(), cache::CachePolicy::kStep);
    const auto fitness = service.fitness_batch(
        batch, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
        truth_.step_minutes);
    ASSERT_EQ(fitness.size(), expected.size());
    for (std::size_t i = 0; i < fitness.size(); ++i)
      EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
    // 12 unique scenarios simulated once; the other 24 requests hit.
    EXPECT_EQ(service.cache_misses(), scenarios_.size());
    EXPECT_EQ(service.cache_hits(), batch.size() - scenarios_.size());
    EXPECT_EQ(service.simulations_run(), scenarios_.size());
  }
}

TEST_F(SimulationServiceTest, CacheHitsAcrossBatchesInSameContext) {
  SimulationService service(workload_.environment, 1);
  service.fitness_batch(scenarios_, truth_.fire_lines[0], truth_.fire_lines[1],
                        0.0, truth_.step_minutes);
  EXPECT_EQ(service.cache_misses(), scenarios_.size());
  EXPECT_EQ(service.cache_hits(), 0u);
  // Second batch over the same interval: pure hits, no new simulations.
  const auto again = service.fitness_batch(
      scenarios_, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);
  EXPECT_EQ(service.cache_hits(), scenarios_.size());
  EXPECT_EQ(service.simulations_run(), scenarios_.size());
  // A different interval is a new context: cache cleared, all misses again.
  service.fitness_batch(scenarios_, truth_.fire_lines[1], truth_.fire_lines[2],
                        truth_.step_minutes, 2 * truth_.step_minutes);
  EXPECT_EQ(service.cache_misses(), 2 * scenarios_.size());
  (void)again;
}

TEST_F(SimulationServiceTest, CachedSimulateBatchKeepsMapsBitwise) {
  std::vector<firelib::Scenario> batch = scenarios_;
  batch.push_back(scenarios_[0]);  // duplicate
  batch.push_back(scenarios_[3]);

  SimulationService uncached(workload_.environment, 1);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const auto expected = uncached.simulate_batch(batch, truth_.fire_lines[0],
                                                truth_.step_minutes);
  SimulationService service(workload_.environment, 1);
  const auto maps =
      service.simulate_batch(batch, truth_.fire_lines[0], truth_.step_minutes);
  ASSERT_EQ(maps.size(), expected.size());
  for (std::size_t i = 0; i < maps.size(); ++i) EXPECT_EQ(maps[i], expected[i]);
  EXPECT_EQ(service.cache_hits(), 2u);
  EXPECT_EQ(service.simulations_run(), scenarios_.size());
}

TEST_F(SimulationServiceTest, SharedPolicyMatchesOffBitwise) {
  // Duplicate-heavy batch under the shared policy: results bit-identical to
  // no caching at every worker count, with the duplicates served as hits.
  std::vector<firelib::Scenario> batch;
  for (int repeat = 0; repeat < 3; ++repeat)
    for (const auto& scenario : scenarios_) batch.push_back(scenario);

  SimulationService uncached(workload_.environment, 1);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const auto expected = uncached.fitness_batch(
      batch, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);

  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    SimulationService service(workload_.environment, workers);
    service.set_cache_policy(cache::CachePolicy::kShared);
    const auto fitness = service.fitness_batch(
        batch, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
        truth_.step_minutes);
    ASSERT_EQ(fitness.size(), expected.size());
    for (std::size_t i = 0; i < fitness.size(); ++i)
      EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
    EXPECT_EQ(service.cache_misses(), scenarios_.size());
    EXPECT_EQ(service.cache_hits(), batch.size() - scenarios_.size());
    EXPECT_EQ(service.simulations_run(), scenarios_.size());
    EXPECT_EQ(service.cache_entries(), scenarios_.size());
    EXPECT_GT(service.cache_bytes(), 0u);
  }
}

TEST_F(SimulationServiceTest, SharedPolicySurvivesContextChanges) {
  // The step cache is wiped on a context change; the shared cache is
  // context-qualified instead, so returning to an earlier interval hits.
  SimulationService service(workload_.environment, 1);
  service.set_cache_policy(cache::CachePolicy::kShared);
  service.fitness_batch(scenarios_, truth_.fire_lines[0], truth_.fire_lines[1],
                        0.0, truth_.step_minutes);
  EXPECT_EQ(service.cache_misses(), scenarios_.size());
  // Different interval: new context, new keys — misses again.
  service.fitness_batch(scenarios_, truth_.fire_lines[1], truth_.fire_lines[2],
                        truth_.step_minutes, 2 * truth_.step_minutes);
  EXPECT_EQ(service.cache_misses(), 2 * scenarios_.size());
  // Back to the first interval: pure hits, no new simulations.
  service.fitness_batch(scenarios_, truth_.fire_lines[0], truth_.fire_lines[1],
                        0.0, truth_.step_minutes);
  EXPECT_EQ(service.cache_hits(), scenarios_.size());
  EXPECT_EQ(service.simulations_run(), 2 * scenarios_.size());
  EXPECT_EQ(service.cache_entries(), 2 * scenarios_.size());
}

TEST_F(SimulationServiceTest, SharedCacheIsSharedAcrossServices) {
  // Two services (think: two concurrent campaign jobs over the same fire)
  // installing one SharedScenarioCache reuse each other's simulations.
  auto shared = std::make_shared<cache::SharedScenarioCache>();
  SimulationService first(workload_.environment, 1);
  first.set_cache_policy(cache::CachePolicy::kShared);
  first.set_shared_cache(shared);
  SimulationService second(workload_.environment, 1);
  second.set_cache_policy(cache::CachePolicy::kShared);
  second.set_shared_cache(shared);

  const auto expected = first.fitness_batch(
      scenarios_, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);
  const auto fitness = second.fitness_batch(
      scenarios_, truth_.fire_lines[0], truth_.fire_lines[1], 0.0,
      truth_.step_minutes);
  ASSERT_EQ(fitness.size(), expected.size());
  for (std::size_t i = 0; i < fitness.size(); ++i)
    EXPECT_EQ(fitness[i], expected[i]);
  EXPECT_EQ(second.cache_hits(), scenarios_.size());
  EXPECT_EQ(second.simulations_run(), 0u);
  EXPECT_EQ(shared->stats().entries, scenarios_.size());
}

TEST_F(SimulationServiceTest, SharedCacheIsolatesDifferentEnvironments) {
  // Regression: the simulation-identity context must fingerprint the
  // terrain, not just the start map. Two jobs over different environments
  // can share a byte-identical single-cell start map and identical
  // scenarios; serving one job's map to the other would silently simulate
  // on the wrong terrain.
  firelib::IgnitionMap start(32, 32, firelib::kNeverIgnited);
  start(16, 16) = 0.0;
  const synth::Workload hills = synth::make_hills(32);

  auto shared = std::make_shared<cache::SharedScenarioCache>();
  SimulationService on_plains(workload_.environment, 1);
  on_plains.set_cache_policy(cache::CachePolicy::kShared);
  on_plains.set_shared_cache(shared);
  SimulationService on_hills(hills.environment, 1);
  on_hills.set_cache_policy(cache::CachePolicy::kShared);
  on_hills.set_shared_cache(shared);
  SimulationService on_hills_uncached(hills.environment, 1);
  on_hills_uncached.set_cache_policy(cache::CachePolicy::kOff);

  const auto plains_maps = on_plains.simulate_batch(scenarios_, start, 90.0);
  const auto hills_maps = on_hills.simulate_batch(scenarios_, start, 90.0);
  const auto expected = on_hills_uncached.simulate_batch(scenarios_, start,
                                                         90.0);
  ASSERT_EQ(hills_maps.size(), expected.size());
  std::size_t spreads_differ = 0;
  for (std::size_t i = 0; i < hills_maps.size(); ++i) {
    EXPECT_EQ(hills_maps[i], expected[i]);
    if (!(hills_maps[i] == plains_maps[i])) ++spreads_differ;
  }
  // Slow scenarios may not spread at all on either terrain, but the batch
  // must contain fires whose plains and hills footprints disagree — the
  // case a terrain-blind cache would corrupt.
  EXPECT_GT(spreads_differ, 0u);
  EXPECT_EQ(on_hills.cache_hits(), 0u)
      << "another environment's entries must not hit";
}

TEST_F(SimulationServiceTest, StepCacheSaturationIsObservable) {
  // The step cache stops inserting at its capacity backstop; that used to
  // be silent — now entries/bytes/insertions_rejected surface it.
  SimulationService service(workload_.environment, 1);
  service.set_step_cache_capacity(4);
  service.fitness_batch(scenarios_, truth_.fire_lines[0], truth_.fire_lines[1],
                        0.0, truth_.step_minutes);
  EXPECT_EQ(service.cache_entries(), 4u);
  EXPECT_GT(service.cache_bytes(), 0u);
  EXPECT_EQ(service.cache_insertions_rejected(), scenarios_.size() - 4);
  // Hit/miss accounting is unchanged by saturation (bit-for-bit contract).
  EXPECT_EQ(service.cache_misses(), scenarios_.size());
  EXPECT_EQ(service.cache_evictions(), 0u);  // step mode never evicts
}

TEST_F(SimulationServiceTest, ReferenceKernelsMatchFastKernels) {
  SimulationService fast(workload_.environment, 1);
  fast.set_cache_policy(cache::CachePolicy::kOff);
  SimulationService reference(workload_.environment, 1);
  reference.set_cache_policy(cache::CachePolicy::kOff);
  reference.set_reference_kernels(true);
  const auto got = fast.fitness_batch(scenarios_, truth_.fire_lines[0],
                                      truth_.fire_lines[1], 0.0,
                                      truth_.step_minutes);
  const auto want = reference.fitness_batch(scenarios_, truth_.fire_lines[0],
                                            truth_.fire_lines[1], 0.0,
                                            truth_.step_minutes);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST_F(SimulationServiceTest, EmptyBatchIsANoOp) {
  SimulationService service(workload_.environment, 2);
  EXPECT_TRUE(service.simulate_batch({}, truth_.fire_lines[0],
                                     truth_.step_minutes)
                  .empty());
  EXPECT_EQ(service.simulations_run(), 0u);
}

TEST_F(SimulationServiceTest, ReportsWorkerCount) {
  EXPECT_EQ(SimulationService(workload_.environment, 1).workers(), 1u);
  EXPECT_EQ(SimulationService(workload_.environment, 3).workers(), 3u);
}

TEST_F(SimulationServiceTest, RejectsZeroWorkers) {
  EXPECT_THROW(SimulationService(workload_.environment, 0), InvalidArgument);
}

TEST_F(SimulationServiceTest, RejectsUnsetRequestPointers) {
  SimulationService service(workload_.environment, 1);
  std::vector<SimulationRequest> requests(1);  // scenario/start left null
  EXPECT_THROW(service.run_batch(requests), InvalidArgument);
}

}  // namespace
}  // namespace essns::ess
