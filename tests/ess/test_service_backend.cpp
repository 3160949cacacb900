// Service-level contracts for the sweep-backend knob: routing a batch
// through firelib::BatchSweep must never change a result bit — at any
// worker count, queue discipline, or cache policy — in-batch duplicates
// must collapse before the batched launch, the batch counters must reach
// the metrics registry, and the `backend=` RunSpec key must parse.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ess/config.hpp"
#include "ess/simulation_service.hpp"
#include "obs/metrics.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

class ServiceBackendTest : public ::testing::Test {
 protected:
  // Plains: uniform terrain, so batches actually take the batched engine
  // (DEM workloads route through its per-scenario fallback instead — see
  // TopographyWorkloadsStillBitIdentical).
  ServiceBackendTest() : workload_(synth::make_plains(32)) {
    Rng rng(5);
    truth_ = synth::generate_ground_truth(workload_.environment,
                                          workload_.truth_config, rng);
    Rng sample_rng(23);
    const auto& space = firelib::ScenarioSpace::table1();
    for (int i = 0; i < 10; ++i)
      scenarios_.push_back(space.sample(sample_rng));
  }

  std::vector<double> fitness_with(SimulationService& service) {
    return service.fitness_batch(scenarios_, truth_.fire_lines[0],
                                 truth_.fire_lines[1], 0.0,
                                 truth_.step_minutes);
  }

  synth::Workload workload_;
  synth::GroundTruth truth_;
  std::vector<firelib::Scenario> scenarios_;
};

TEST_F(ServiceBackendTest, BackendKnobDefaultsToScalar) {
  SimulationService service(workload_.environment, 1);
  EXPECT_EQ(service.backend(), firelib::SweepBackend::kScalar);
  service.set_backend(firelib::SweepBackend::kBatched);
  EXPECT_EQ(service.backend(), firelib::SweepBackend::kBatched);
  EXPECT_EQ(service.batch_dedup_hits(), 0u);
}

TEST_F(ServiceBackendTest, FitnessBitIdenticalAcrossBackendKnobMatrix) {
  // The scalar backend at one worker is the oracle; the batched backend
  // must reproduce it bitwise across worker counts, queue disciplines and
  // cache policies (the three seams a batch can reach the engine through).
  SimulationService oracle(workload_.environment, 1);
  oracle.set_cache_policy(cache::CachePolicy::kOff);
  const std::vector<double> expected = fitness_with(oracle);

  for (const cache::CachePolicy policy :
       {cache::CachePolicy::kOff, cache::CachePolicy::kStep,
        cache::CachePolicy::kShared}) {
    for (const firelib::SweepQueue queue :
         {firelib::SweepQueue::kHeap, firelib::SweepQueue::kDial}) {
      for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(std::string("cache=") + cache::to_string(policy) +
                     " queue=" +
                     (queue == firelib::SweepQueue::kHeap ? "heap" : "dial") +
                     " workers=" + std::to_string(workers));
        SimulationService service(workload_.environment, workers);
        service.set_backend(firelib::SweepBackend::kBatched);
        service.set_cache_policy(policy);
        service.set_sweep_queue(queue);
        const std::vector<double> fitness = fitness_with(service);
        ASSERT_EQ(fitness.size(), expected.size());
        for (std::size_t i = 0; i < fitness.size(); ++i)
          EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
      }
    }
  }
}

TEST_F(ServiceBackendTest, SimulateBatchMapsBitIdentical) {
  SimulationService oracle(workload_.environment, 1);
  const std::vector<BurnedCells> expected = oracle.simulate_batch(
      scenarios_, truth_.fire_lines[0], truth_.step_minutes);

  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    SimulationService service(workload_.environment, workers);
    service.set_backend(firelib::SweepBackend::kBatched);
    const std::vector<BurnedCells> maps = service.simulate_batch(
        scenarios_, truth_.fire_lines[0], truth_.step_minutes);
    ASSERT_EQ(maps.size(), expected.size());
    for (std::size_t i = 0; i < maps.size(); ++i)
      EXPECT_EQ(maps[i], expected[i]);
  }
}

TEST_F(ServiceBackendTest, ReferenceKernelsKeepThePerScenarioPath) {
  // The reference sweep exists to cross-check the fast path; the batched
  // engine must step aside for it, and results must still match the
  // scalar-backend reference run bit for bit.
  SimulationService oracle(workload_.environment, 1);
  oracle.set_reference_kernels(true);
  const std::vector<double> expected = fitness_with(oracle);

  SimulationService service(workload_.environment, 1);
  service.set_reference_kernels(true);
  service.set_backend(firelib::SweepBackend::kBatched);
  const std::vector<double> fitness = fitness_with(service);
  ASSERT_EQ(fitness.size(), expected.size());
  for (std::size_t i = 0; i < fitness.size(); ++i)
    EXPECT_EQ(fitness[i], expected[i]);
}

TEST_F(ServiceBackendTest, InBatchDuplicatesCollapseBeforeTheLaunch) {
  // GA crossover/elitism makes duplicate genomes routine; the cache paths
  // dedup them before the batch engine runs, so the launch shrinks and the
  // duplicates are answered from their sibling's result.
  std::vector<firelib::Scenario> dup_heavy = scenarios_;
  dup_heavy.insert(dup_heavy.end(), scenarios_.begin(), scenarios_.end());

  SimulationService oracle(workload_.environment, 1);
  oracle.set_cache_policy(cache::CachePolicy::kOff);
  const std::vector<double> expected =
      oracle.fitness_batch(dup_heavy, truth_.fire_lines[0],
                           truth_.fire_lines[1], 0.0, truth_.step_minutes);

  SimulationService service(workload_.environment, 1);
  service.set_backend(firelib::SweepBackend::kBatched);
  service.set_cache_policy(cache::CachePolicy::kStep);
  const std::vector<double> fitness =
      service.fitness_batch(dup_heavy, truth_.fire_lines[0],
                            truth_.fire_lines[1], 0.0, truth_.step_minutes);
  EXPECT_EQ(service.batch_dedup_hits(), scenarios_.size());
  ASSERT_EQ(fitness.size(), expected.size());
  for (std::size_t i = 0; i < fitness.size(); ++i)
    EXPECT_EQ(fitness[i], expected[i]);
}

TEST_F(ServiceBackendTest, BatchCountersReachTheMetricsRegistry) {
  obs::MetricsRegistry* const previous = obs::metrics_registry();
  obs::MetricsRegistry registry;
  obs::install_metrics_registry(&registry);

  std::vector<firelib::Scenario> dup_heavy = scenarios_;
  dup_heavy.push_back(scenarios_.front());
  SimulationService service(workload_.environment, 1);
  service.set_backend(firelib::SweepBackend::kBatched);
  service.fitness_batch(dup_heavy, truth_.fire_lines[0], truth_.fire_lines[1],
                        0.0, truth_.step_minutes);
  obs::install_metrics_registry(previous);

  const obs::MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_TRUE(snapshot.histograms.count("sweep.batch_size"));
  // One uncached launch of the 10 distinct scenarios (the duplicate deduped
  // away before the engine saw the batch).
  EXPECT_EQ(snapshot.histograms.at("sweep.batch_size").count, 1u);
  EXPECT_EQ(snapshot.histograms.at("sweep.batch_size").sum,
            static_cast<double>(scenarios_.size()));
  ASSERT_TRUE(snapshot.counters.count("sweep.batch_dedup_hits"));
  EXPECT_EQ(snapshot.counters.at("sweep.batch_dedup_hits"), 1u);
  // The batched engine builds each travel-time row once per batch group.
  ASSERT_TRUE(snapshot.counters.count("sweep.tt_table_rebuilds"));
  EXPECT_GT(snapshot.counters.at("sweep.tt_table_rebuilds"), 0u);
}

TEST_F(ServiceBackendTest, TopographyWorkloadsStillBitIdentical) {
  // DEM terrains have no shared travel-time table; the batch engine reruns
  // them per scenario through the scalar propagator — same bits, always.
  synth::Workload hills = synth::make_hills(24);
  Rng rng(11);
  const synth::GroundTruth truth = synth::generate_ground_truth(
      hills.environment, hills.truth_config, rng);

  SimulationService oracle(hills.environment, 1);
  const std::vector<double> expected =
      oracle.fitness_batch(scenarios_, truth.fire_lines[0],
                           truth.fire_lines[1], 0.0, truth.step_minutes);

  SimulationService service(hills.environment, 1);
  service.set_backend(firelib::SweepBackend::kBatched);
  const std::vector<double> fitness =
      service.fitness_batch(scenarios_, truth.fire_lines[0],
                            truth.fire_lines[1], 0.0, truth.step_minutes);
  ASSERT_EQ(fitness.size(), expected.size());
  for (std::size_t i = 0; i < fitness.size(); ++i)
    EXPECT_EQ(fitness[i], expected[i]);
}

TEST_F(ServiceBackendTest, RunSpecParsesBackendKey) {
  EXPECT_EQ(parse_run_spec("").backend, firelib::SweepBackend::kScalar);
  EXPECT_EQ(parse_run_spec("backend=scalar\n").backend,
            firelib::SweepBackend::kScalar);
  EXPECT_EQ(parse_run_spec("backend=batched\n").backend,
            firelib::SweepBackend::kBatched);
  EXPECT_THROW(parse_run_spec("backend=gpu\n"), InvalidArgument);
}

}  // namespace
}  // namespace essns::ess
