#include "ess/simulation_service.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "ess/fitness.hpp"
#include "firelib/reference_propagator.hpp"
#include "obs/metrics.hpp"
#include "stage_oracles.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

synth::GroundTruth truth_of(const synth::Workload& workload) {
  Rng rng(5);
  return synth::generate_ground_truth(workload.environment,
                                      workload.truth_config, rng);
}

class SimulationServiceTest : public ::testing::Test {
 protected:
  /// Where a simulation from line 0 starts: its burned cells at t_0.
  firelib::IgnitionMap start_line() const {
    return oracle::flat_line(truth_.fire_lines[0], truth_.time_of(0));
  }

  SimulationServiceTest()
      : workload_(synth::make_plains(32)),
        truth_(truth_of(workload_)),
        observations_(truth_, true) {
    Rng sample_rng(17);
    const auto& space = firelib::ScenarioSpace::table1();
    for (int i = 0; i < 12; ++i)
      scenarios_.push_back(space.sample(sample_rng));
  }

  synth::Workload workload_;
  synth::GroundTruth truth_;
  /// Fingerprinted, so every cache policy can read them.
  Observations observations_;
  std::vector<firelib::Scenario> scenarios_;
};

TEST_F(SimulationServiceTest, BatchEqualsSerialAcrossWorkerCounts) {
  // The reproducibility contract: simulate_batch must be bit-identical to
  // packing N independent reference sweeps, at every worker count.
  std::vector<BurnedCells> expected;
  for (const auto& map :
       oracle::reference_maps(workload_.environment, scenarios_, start_line(),
                              truth_.step_minutes))
    expected.push_back(oracle::pack_burned(map, truth_.step_minutes));

  for (unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    const auto lanes = parallel::make_job_lanes(workers);
    SimulationService service(workload_.environment, lanes.get());
    const auto maps = service.simulate_batch(scenarios_, observations_, 0,
                                             truth_.step_minutes);
    ASSERT_EQ(maps.size(), expected.size());
    for (std::size_t i = 0; i < maps.size(); ++i) EXPECT_EQ(maps[i], expected[i]);
  }
}

TEST_F(SimulationServiceTest, FitnessBatchMatchesScalarJaccard) {
  std::vector<double> expected;
  for (const auto& map :
       oracle::reference_maps(workload_.environment, scenarios_, start_line(),
                              truth_.step_minutes))
    expected.push_back(oracle::jaccard_at(truth_.fire_lines[1], map,
                                          truth_.step_minutes, 0.0));

  for (unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(workers);
    const auto lanes = parallel::make_job_lanes(workers);
    SimulationService service(workload_.environment, lanes.get());
    const auto fitness = service.fitness_batch(scenarios_, observations_, 1);
    ASSERT_EQ(fitness.size(), expected.size());
    for (std::size_t i = 0; i < fitness.size(); ++i)
      EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
  }
}

TEST_F(SimulationServiceTest, FitnessBatchScoresAndRecordsBurnedCells) {
  // A scored batch answers with each scenario's score and keeps the burned
  // cells its sweep recorded for the step's Statistical Stage; an unscored
  // batch answers with the burned cells.
  const auto lanes = parallel::make_job_lanes(2);
  SimulationService service(workload_.environment, lanes.get());
  service.set_cache_policy(cache::CachePolicy::kOff);
  const double end = truth_.step_minutes;
  const std::vector<firelib::Scenario> two(scenarios_.begin(),
                                           scenarios_.begin() + 2);

  const std::vector<firelib::IgnitionMap> maps =
      oracle::reference_maps(workload_.environment, two, start_line(), end);

  const auto scores = service.fitness_batch(two, observations_, 1);
  const auto records = service.step_records(two, observations_, 0, end);
  ASSERT_EQ(scores.size(), 2u);
  ASSERT_EQ(records.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(scores[i],
              oracle::jaccard_at(truth_.fire_lines[1], maps[i], end, 0.0));
    ASSERT_NE(records[i], nullptr);
    EXPECT_EQ(*records[i], oracle::pack_burned(maps[i], end));
  }
  const auto burned = service.simulate_batch(two, observations_, 0, end);
  ASSERT_EQ(burned.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_EQ(burned[i], oracle::pack_burned(maps[i], end));
}

TEST_F(SimulationServiceTest, CountsEverySimulation) {
  const auto lanes = parallel::make_job_lanes(2);
  SimulationService service(workload_.environment, lanes.get());
  EXPECT_EQ(service.simulations_run(), 0u);
  service.simulate_batch(scenarios_, observations_, 0, truth_.step_minutes);
  EXPECT_EQ(service.simulations_run(), scenarios_.size());
  service.score(scenarios_[0], observations_, 1);
  EXPECT_EQ(service.simulations_run(), scenarios_.size() + 1);
}

TEST_F(SimulationServiceTest, CachedFitnessBatchMatchesUncachedBitwise) {
  // Duplicate-heavy batch: cached vs uncached results must agree bitwise at
  // every worker count, and the cache decisions (made on the master thread)
  // must be deterministic across worker counts.
  std::vector<firelib::Scenario> batch;
  for (int repeat = 0; repeat < 3; ++repeat)
    for (const auto& scenario : scenarios_) batch.push_back(scenario);

  SimulationService uncached(workload_.environment);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const auto expected = uncached.fitness_batch(batch, observations_, 1);
  EXPECT_EQ(uncached.cache_hits(), 0u);
  EXPECT_EQ(uncached.cache_misses(), 0u);
  EXPECT_EQ(uncached.simulations_run(), batch.size());

  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    const auto lanes = parallel::make_job_lanes(workers);
    SimulationService service(workload_.environment, lanes.get());
    ASSERT_EQ(service.cache_policy(), cache::CachePolicy::kStep);
    obs::MetricsRegistry registry;
    obs::MetricsRegistry* const previous = obs::metrics_registry();
    obs::install_metrics_registry(&registry);
    const auto fitness = service.fitness_batch(batch, observations_, 1);
    obs::install_metrics_registry(previous);
    ASSERT_EQ(fitness.size(), expected.size());
    for (std::size_t i = 0; i < fitness.size(); ++i)
      EXPECT_EQ(fitness[i], expected[i]);  // bitwise, not approximate
    // 12 unique scenarios simulated once; the other 24 requests hit.
    EXPECT_EQ(service.cache_misses(), scenarios_.size());
    EXPECT_EQ(service.cache_hits(), batch.size() - scenarios_.size());
    EXPECT_EQ(service.simulations_run(), scenarios_.size());
    // All 24 hits are in-batch duplicates, collapsed before the launch:
    // one uncached launch of the 12 distinct scenarios reaches the sweep,
    // and the counters say so in the metrics registry too.
    EXPECT_EQ(service.batch_dedup_hits(), batch.size() - scenarios_.size());
    const obs::MetricsSnapshot snapshot = registry.snapshot();
    ASSERT_TRUE(snapshot.histograms.count("sweep.batch_size"));
    EXPECT_EQ(snapshot.histograms.at("sweep.batch_size").count, 1u);
    EXPECT_EQ(snapshot.histograms.at("sweep.batch_size").sum,
              static_cast<double>(scenarios_.size()));
    ASSERT_TRUE(snapshot.counters.count("sweep.batch_dedup_hits"));
    EXPECT_EQ(snapshot.counters.at("sweep.batch_dedup_hits"),
              batch.size() - scenarios_.size());
  }
}

TEST_F(SimulationServiceTest, CacheHitsAcrossBatchesInSameContext) {
  SimulationService service(workload_.environment);
  service.fitness_batch(scenarios_, observations_, 1);
  EXPECT_EQ(service.cache_misses(), scenarios_.size());
  EXPECT_EQ(service.cache_hits(), 0u);
  // Second batch over the same interval: pure hits, no new simulations.
  const auto again = service.fitness_batch(scenarios_, observations_, 1);
  EXPECT_EQ(service.cache_hits(), scenarios_.size());
  EXPECT_EQ(service.simulations_run(), scenarios_.size());
  // A different interval is a new context: cache cleared, all misses again.
  service.fitness_batch(scenarios_, observations_, 2);
  EXPECT_EQ(service.cache_misses(), 2 * scenarios_.size());
  (void)again;
}

TEST_F(SimulationServiceTest, CachedSimulateBatchKeepsMapsBitwise) {
  std::vector<firelib::Scenario> batch = scenarios_;
  batch.push_back(scenarios_[0]);  // duplicate
  batch.push_back(scenarios_[3]);

  SimulationService uncached(workload_.environment);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const auto expected =
      uncached.simulate_batch(batch, observations_, 0, truth_.step_minutes);
  SimulationService service(workload_.environment);
  const auto maps =
      service.simulate_batch(batch, observations_, 0, truth_.step_minutes);
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

  SimulationService uncached(workload_.environment);
  uncached.set_cache_policy(cache::CachePolicy::kOff);
  const auto expected = uncached.fitness_batch(batch, observations_, 1);

  for (unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    const auto lanes = parallel::make_job_lanes(workers);
    SimulationService service(workload_.environment, lanes.get());
    service.set_cache_policy(cache::CachePolicy::kShared);
    const auto fitness = service.fitness_batch(batch, observations_, 1);
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
  SimulationService service(workload_.environment);
  service.set_cache_policy(cache::CachePolicy::kShared);
  service.fitness_batch(scenarios_, observations_, 1);
  EXPECT_EQ(service.cache_misses(), scenarios_.size());
  // Different interval: new context, new keys — misses again.
  service.fitness_batch(scenarios_, observations_, 2);
  EXPECT_EQ(service.cache_misses(), 2 * scenarios_.size());
  // Back to the first interval: pure hits, no new simulations.
  service.fitness_batch(scenarios_, observations_, 1);
  EXPECT_EQ(service.cache_hits(), scenarios_.size());
  EXPECT_EQ(service.simulations_run(), 2 * scenarios_.size());
  EXPECT_EQ(service.cache_entries(), 2 * scenarios_.size());
}

TEST_F(SimulationServiceTest, SharedCacheIsSharedAcrossServices) {
  // Two services (think: two concurrent campaign jobs over the same fire)
  // installing one SharedScenarioCache reuse each other's simulations.
  auto shared = std::make_shared<cache::SharedScenarioCache>();
  SimulationService first(workload_.environment);
  first.set_cache_policy(cache::CachePolicy::kShared);
  first.set_shared_cache(shared);
  SimulationService second(workload_.environment);
  second.set_cache_policy(cache::CachePolicy::kShared);
  second.set_shared_cache(shared);

  const auto expected = first.fitness_batch(scenarios_, observations_, 1);
  const auto fitness = second.fitness_batch(scenarios_, observations_, 1);
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
  synth::GroundTruth outbreak;
  outbreak.fire_lines.emplace_back(32, 32, firelib::kNeverIgnited);
  outbreak.fire_lines[0](16, 16) = 0.0;
  Observations start(outbreak, true);
  const synth::Workload hills = synth::make_hills(32);

  auto shared = std::make_shared<cache::SharedScenarioCache>();
  SimulationService on_plains(workload_.environment);
  on_plains.set_cache_policy(cache::CachePolicy::kShared);
  on_plains.set_shared_cache(shared);
  SimulationService on_hills(hills.environment);
  on_hills.set_cache_policy(cache::CachePolicy::kShared);
  on_hills.set_shared_cache(shared);
  SimulationService on_hills_uncached(hills.environment);
  on_hills_uncached.set_cache_policy(cache::CachePolicy::kOff);

  const auto plains_maps = on_plains.simulate_batch(scenarios_, start, 0, 90.0);
  const auto hills_maps = on_hills.simulate_batch(scenarios_, start, 0, 90.0);
  const auto expected =
      on_hills_uncached.simulate_batch(scenarios_, start, 0, 90.0);
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
  SimulationService service(workload_.environment);
  service.set_step_cache_capacity(4);
  service.fitness_batch(scenarios_, observations_, 1);
  EXPECT_EQ(service.cache_entries(), 4u);
  EXPECT_GT(service.cache_bytes(), 0u);
  EXPECT_EQ(service.cache_insertions_rejected(), scenarios_.size() - 4);
  // Hit/miss accounting is unchanged by saturation (bit-for-bit contract).
  EXPECT_EQ(service.cache_misses(), scenarios_.size());
  EXPECT_EQ(service.cache_evictions(), 0u);  // step mode never evicts
}

TEST_F(SimulationServiceTest, ReferenceKernelsMatchFastKernels) {
  // The service's fast sweep and word-wise Eq. (3) against the reference
  // propagator (per-pop behavior + trig, binary heap) scored map by map.
  SimulationService fast(workload_.environment);
  fast.set_cache_policy(cache::CachePolicy::kOff);
  const firelib::FireSpreadModel spread_model;
  const firelib::oracle::ReferencePropagator reference(spread_model);
  const double end = truth_.step_minutes;
  const auto got = fast.fitness_batch(scenarios_, observations_, 1);
  ASSERT_EQ(got.size(), scenarios_.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const firelib::IgnitionMap map = reference.propagate(
        workload_.environment, scenarios_[i], start_line(), end);
    EXPECT_EQ(got[i], oracle::jaccard_at(truth_.fire_lines[1], map, end, 0.0));
  }
}

TEST(SimulationServiceStartCells, BatchEqualsPerScenarioPropagateOnDem) {
  // Each context lists its start cells once and every lane's sweep seeds
  // from that list. Continuing from every fire line of a DEM truth, to the
  // next instant and to one before the line's own instant (every start
  // cell late), a batch must equal one reference propagate per scenario
  // from the line's flat start, at every lane count; a new end time over
  // the same line is a new list.
  const synth::Workload workload = synth::make_hills(32);
  const synth::GroundTruth truth = truth_of(workload);
  Observations observations(truth, false);
  const firelib::FireSpreadModel spread_model;
  const firelib::oracle::ReferencePropagator reference(spread_model);
  Rng sample_rng(23);
  std::vector<firelib::Scenario> scenarios;
  for (int i = 0; i < 6; ++i)
    scenarios.push_back(firelib::ScenarioSpace::table1().sample(sample_rng));

  for (unsigned workers : {1u, 3u}) {
    const auto lanes = parallel::make_job_lanes(workers);
    SimulationService service(workload.environment, lanes.get());
    service.set_cache_policy(cache::CachePolicy::kOff);
    for (int line = 0; line < truth.steps(); ++line) {
      const double next = truth.time_of(line + 1);
      const double cut = truth.time_of(line) - truth.step_minutes / 2;
      for (const double end_time : {next, cut}) {
        if (end_time < 0.0) continue;
        SCOPED_TRACE(testing::Message() << workers << " lanes, line " << line
                                        << ", end " << end_time);
        const auto got =
            service.simulate_batch(scenarios, observations, line, end_time);
        ASSERT_EQ(got.size(), scenarios.size());
        for (std::size_t i = 0; i < got.size(); ++i)
          EXPECT_EQ(got[i], firelib::burned_cells(
                                reference.propagate(
                                    workload.environment, scenarios[i],
                                    oracle::flat_line(truth.fire_lines[line],
                                                      truth.time_of(line)),
                                    end_time),
                                end_time));
      }
    }
  }
}

TEST(SimulationServiceStartMap, HoldsTheLinesBurnedCellsAtItsInstant) {
  // A context's start map is line k's burned set, every cell at times[k]:
  // any scenario burns exactly that set by t_k and nothing one ulp before
  // it, whatever its spread. The burned region built from the digest equals
  // the dense line with every finite cell set to t_k, noise included.
  for (const synth::Workload& workload :
       {synth::make_plains(32), synth::make_hills(32)}) {
    SCOPED_TRACE(workload.name);
    const synth::GroundTruth truth = truth_of(workload);
    Observations observations(truth, false);
    const ObservationDigest& digest = observations.digest();
    Rng sample_rng(29);
    std::vector<firelib::Scenario> scenarios;
    for (int i = 0; i < 4; ++i)
      scenarios.push_back(firelib::ScenarioSpace::table1().sample(sample_rng));
    SimulationService service(workload.environment);
    service.set_cache_policy(cache::CachePolicy::kOff);
    for (int k = 0; k <= truth.steps(); ++k) {
      SCOPED_TRACE(k);
      const auto uk = static_cast<std::size_t>(k);
      const double t_k = digest.times[uk];
      const BurnedCells& line = digest.lines[uk].scoring.real;
      EXPECT_EQ(firelib::burned_region(line, t_k),
                oracle::flat_line(truth.fire_lines[uk], t_k));
      for (const BurnedCells& burned :
           service.simulate_batch(scenarios, observations, k, t_k))
        EXPECT_EQ(burned, line);
      if (k == 0) continue;  // t_0 = 0: no earlier horizon
      const BurnedCells none{line.rows, line.cols,
                             std::vector<std::uint64_t>(line.words.size(), 0)};
      for (const BurnedCells& burned : service.simulate_batch(
               scenarios, observations, k,
               std::nextafter(t_k, 0.0)))
        EXPECT_EQ(burned, none);
    }
  }
}

TEST(SimulationServiceStartMap, ScoredStepsContinueFromTheFlatLine) {
  // The Optimization Stage's context starts at t_{k-1} from line k - 1's
  // burned region, not from the truth's arrival times: every later step
  // scores and records the burned cells of a reference sweep from the flat
  // line, and for some scenario not those of a sweep from the dense line.
  const synth::Workload workload = synth::make_plains(32);
  const synth::GroundTruth truth = truth_of(workload);
  Observations observations(truth, false);
  // Most of the Table I space does not spread on plains; these do, at
  // about the hidden fire's pace.
  std::vector<firelib::Scenario> scenarios;
  for (const double wind : {0.5, 0.8, 1.0, 1.25}) {
    firelib::Scenario scenario = truth.scenario_at[1];
    scenario.wind_speed *= wind;
    scenarios.push_back(scenario);
  }
  SimulationService service(workload.environment);
  std::size_t unlike_dense = 0;
  for (int target = 2; target <= truth.steps(); ++target) {
    SCOPED_TRACE(target);
    const auto start = static_cast<std::size_t>(target - 1);
    const double t_start = truth.time_of(target - 1);
    const double t_end = truth.time_of(target);
    const auto flat = oracle::reference_maps(
        workload.environment, scenarios,
        oracle::flat_line(truth.fire_lines[start], t_start), t_end);
    const auto dense = oracle::reference_maps(
        workload.environment, scenarios, truth.fire_lines[start], t_end);
    const auto got = service.fitness_batch(scenarios, observations, target);
    const auto records =
        service.step_records(scenarios, observations, target - 1, t_end);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      EXPECT_EQ(got[i], oracle::jaccard_at(truth.fire_lines[start + 1],
                                           flat[i], t_end, t_start));
      ASSERT_NE(records[i], nullptr);
      EXPECT_EQ(*records[i], oracle::pack_burned(flat[i], t_end));
      unlike_dense += !(*records[i] == oracle::pack_burned(dense[i], t_end));
    }
  }
  EXPECT_GT(unlike_dense, 0u);
}

TEST_F(SimulationServiceTest, EmptyBatchIsANoOp) {
  const auto lanes = parallel::make_job_lanes(2);
  SimulationService service(workload_.environment, lanes.get());
  EXPECT_TRUE(service.simulate_batch({}, observations_, 0, truth_.step_minutes)
                  .empty());
  EXPECT_EQ(service.simulations_run(), 0u);
}

TEST_F(SimulationServiceTest, ReportsWorkerCount) {
  EXPECT_EQ(SimulationService(workload_.environment).workers(), 1u);
  const auto lanes = parallel::make_job_lanes(3);
  EXPECT_EQ(SimulationService(workload_.environment, lanes.get()).workers(),
            3u);
}

TEST_F(SimulationServiceTest, RejectsZeroWorkers) {
  // The service borrows its lanes; a pool of zero lanes cannot be made.
  EXPECT_THROW(SimulationService(workload_.environment,
                                 parallel::make_job_lanes(0).get()),
               InvalidArgument);
}

}  // namespace
}  // namespace essns::ess
