// The Statistical Stage counts the burned cells the OS's fitness
// simulations recorded instead of re-simulating the solution set:
// ScenarioEvaluator::burn_probability must run no simulation for scenarios
// the current step evaluated, simulate everything else, and stay bit for bit
// equal to aggregating reference sweeps from the observed line's flat start
// (stage_oracles.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ostream>
#include <unordered_set>

#include "ess/evaluator.hpp"
#include "ess/optimizer.hpp"
#include "ess/pipeline.hpp"
#include "stage_oracles.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

using cache::CachePolicy;

void expect_bitwise_equal(const Grid<double>& got, const Grid<double>& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.data()[i]),
              std::bit_cast<std::uint64_t>(want.data()[i]))
        << "cell " << i;
}

synth::GroundTruth truth_of(const synth::Workload& workload) {
  Rng rng(5);
  return synth::generate_ground_truth(workload.environment,
                                      workload.truth_config, rng);
}

class BurnProbabilityTest : public ::testing::Test {
 protected:
  BurnProbabilityTest()
      : workload_(synth::make_hills(32)),
        truth_(truth_of(workload_)),
        observations_(truth_, true) {}

  /// Where a simulation from line i starts: its burned cells at t_i.
  firelib::IgnitionMap line(int i) const {
    return oracle::flat_line(truth_.fire_lines[static_cast<std::size_t>(i)],
                             truth_.time_of(i));
  }

  /// The pre-reuse Statistical Stage: one reference sweep per scenario,
  /// aggregated.
  Grid<double> oracle_probability(const std::vector<firelib::Scenario>& set,
                                  const firelib::IgnitionMap& start,
                                  double end_time) const {
    return oracle::aggregate_probability(
        oracle::reference_maps(workload_.environment, set, start, end_time),
        end_time);
  }

  std::vector<firelib::Scenario> sample(int count, Rng& rng) const {
    const auto& space = firelib::ScenarioSpace::table1();
    std::vector<firelib::Scenario> set;
    for (int i = 0; i < count; ++i) set.push_back(space.sample(rng));
    return set;
  }

  static std::vector<ea::Genome> encode(
      const std::vector<firelib::Scenario>& set) {
    std::vector<ea::Genome> genomes;
    for (const auto& s : set)
      genomes.push_back(firelib::ScenarioSpace::table1().encode(s));
    return genomes;
  }

  synth::Workload workload_;
  synth::GroundTruth truth_;
  /// Fingerprinted, so every cache policy can read them.
  Observations observations_;
};

TEST_F(BurnProbabilityTest, MatchesMapOracleWithAllSomeOrNoneRecorded) {
  Rng rng(17);
  const std::vector<firelib::Scenario> evaluated = sample(6, rng);
  const std::vector<firelib::Scenario> fresh = sample(4, rng);
  // Decoding an encoded scenario is what the OS evaluates; record those.
  std::vector<firelib::Scenario> recorded;
  for (const auto& g : encode(evaluated))
    recorded.push_back(firelib::ScenarioSpace::table1().decode(g));
  std::vector<firelib::Scenario> some(recorded.begin(), recorded.begin() + 3);
  some.insert(some.end(), fresh.begin(), fresh.end());
  some.push_back(recorded.front());  // a duplicate of a recorded member

  for (const CachePolicy policy :
       {CachePolicy::kOff, CachePolicy::kStep, CachePolicy::kShared}) {
    SCOPED_TRACE(cache::to_string(policy));
    ScenarioEvaluator evaluator(workload_.environment);
    evaluator.set_cache_policy(policy);
    evaluator.set_step(observations_, 1);
    evaluator.batch_evaluator()(encode(evaluated));
    const double t1 = truth_.time_of(1);

    std::size_t before = evaluator.simulations_run();
    expect_bitwise_equal(
        evaluator.burn_probability(recorded, observations_, 0, t1),
        oracle_probability(recorded, line(0), t1));
    EXPECT_EQ(evaluator.simulations_run(), before) << "all recorded";

    before = evaluator.simulations_run();
    expect_bitwise_equal(evaluator.burn_probability(some, observations_, 0, t1),
                         oracle_probability(some, line(0), t1));
    EXPECT_EQ(evaluator.simulations_run() - before, fresh.size())
        << "only the unrecorded scenarios simulate";

    const std::vector<firelib::Scenario> none = sample(5, rng);
    before = evaluator.simulations_run();
    expect_bitwise_equal(evaluator.burn_probability(none, observations_, 0, t1),
                         oracle_probability(none, line(0), t1));
    EXPECT_EQ(evaluator.simulations_run() - before, none.size());
  }
}

TEST_F(BurnProbabilityTest, ForeignStartOrHorizonSimulates) {
  Rng rng(23);
  std::vector<firelib::Scenario> set;
  for (const auto& g : encode(sample(5, rng)))
    set.push_back(firelib::ScenarioSpace::table1().decode(g));
  const double t1 = truth_.time_of(1);
  Observations same_content(truth_, true);  // another object, same lines

  ScenarioEvaluator evaluator(workload_.environment);
  evaluator.set_cache_policy(CachePolicy::kOff);
  evaluator.set_step(observations_, 1);
  evaluator.batch_evaluator()(encode(set));

  const double later = t1 + 7.5;
  std::size_t before = evaluator.simulations_run();
  expect_bitwise_equal(
      evaluator.burn_probability(set, observations_, 0, later),
      oracle_probability(set, line(0), later));
  EXPECT_EQ(evaluator.simulations_run() - before, set.size())
      << "a different end time";

  evaluator.set_step(observations_, 1);
  evaluator.batch_evaluator()(encode(set));
  before = evaluator.simulations_run();
  expect_bitwise_equal(evaluator.burn_probability(set, same_content, 0, t1),
                       oracle_probability(set, line(0), t1));
  EXPECT_EQ(evaluator.simulations_run() - before, set.size())
      << "foreign observations";

  // set_step drops the records, even for an identical context.
  evaluator.set_step(observations_, 1);
  before = evaluator.simulations_run();
  expect_bitwise_equal(evaluator.burn_probability(set, observations_, 0, t1),
                       oracle_probability(set, line(0), t1));
  EXPECT_EQ(evaluator.simulations_run() - before, set.size())
      << "records of a previous set_step";
}

TEST_F(BurnProbabilityTest, FitnessBatchesReturnBurnedCellsOfSimulatedRequests) {
  // Every path that simulates a fitness request hands its burned cells to
  // the step's records: the uncached, step and shared cache paths, and
  // in-batch duplicates served by one scheduled simulation. A repeat batch
  // the cache answers without simulating leaves the records in place.
  Rng rng(41);
  std::vector<firelib::Scenario> batch = sample(5, rng);
  batch.push_back(batch[1]);
  batch.push_back(batch[3]);
  const double t1 = truth_.time_of(1);
  const std::vector<firelib::IgnitionMap> maps =
      oracle::reference_maps(workload_.environment, batch, line(0), t1);
  const auto expect_recorded = [&](const SimulationService& service) {
    const std::vector<const BurnedCells*> records =
        service.step_records(batch, observations_, 0, t1);
    ASSERT_EQ(records.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_NE(records[i], nullptr) << i;
      EXPECT_EQ(*records[i], oracle::pack_burned(maps[i], t1)) << i;
    }
  };

  for (const CachePolicy policy :
       {CachePolicy::kOff, CachePolicy::kStep, CachePolicy::kShared}) {
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << cache::to_string(policy) << " w" << workers);
      const auto lanes = parallel::make_job_lanes(workers);
      SimulationService service(workload_.environment, lanes.get());
      service.set_cache_policy(policy);
      service.fitness_batch(batch, observations_, 1);
      expect_recorded(service);

      const std::size_t before = service.simulations_run();
      service.fitness_batch(batch, observations_, 1);
      EXPECT_EQ(service.simulations_run() - before,
                policy == CachePolicy::kOff ? batch.size() : 0u);
      expect_recorded(service);
    }
  }
}

TEST_F(BurnProbabilityTest, RecordsStopAtTheBackstopAndTheRestSimulate) {
  Rng rng(43);
  std::vector<firelib::Scenario> set;
  for (const auto& g : encode(sample(9, rng)))
    set.push_back(firelib::ScenarioSpace::table1().decode(g));
  const double t1 = truth_.time_of(1);

  ScenarioEvaluator evaluator(workload_.environment);
  evaluator.set_cache_policy(CachePolicy::kOff);
  evaluator.set_step_cache_capacity(4);
  evaluator.set_step(observations_, 1);
  const std::vector<ea::Genome> genomes = encode(set);
  evaluator.batch_evaluator()({genomes.begin(), genomes.begin() + 3});
  evaluator.batch_evaluator()({genomes.begin() + 3, genomes.end()});

  // The first four evaluated scenarios keep their records; the other five
  // were evaluated past the backstop and simulate again.
  const std::size_t before = evaluator.simulations_run();
  expect_bitwise_equal(evaluator.burn_probability(set, observations_, 0, t1),
                       oracle_probability(set, line(0), t1));
  EXPECT_EQ(evaluator.simulations_run() - before, set.size() - 4);
}

TEST_F(BurnProbabilityTest, EmptySetThrows) {
  ScenarioEvaluator evaluator(workload_.environment);
  evaluator.set_step(observations_, 1);
  EXPECT_THROW(evaluator.burn_probability({}, observations_, 0,
                                          truth_.time_of(1)),
               InvalidArgument);
}

struct ReuseCase {
  const char* name;
  CachePolicy policy;
  unsigned workers;
};

// gtest prints the parameter into the test name ctest registers.
void PrintTo(const ReuseCase& c, std::ostream* os) { *os << c.name; }

class StatisticalStageReuse : public BurnProbabilityTest,
                              public ::testing::WithParamInterface<ReuseCase> {
};

TEST_P(StatisticalStageReuse, RunsNoSimulationsForTheStepsOwnSolutions) {
  const ReuseCase& c = GetParam();
  const auto lanes = parallel::make_job_lanes(c.workers);
  ScenarioEvaluator evaluator(workload_.environment, lanes.get());
  evaluator.set_cache_policy(c.policy);
  const auto& space = firelib::ScenarioSpace::table1();
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  Rng rng(31);

  // Two pipeline steps, stage by stage as PredictionPipeline runs them.
  for (int n = 1; n <= 2; ++n) {
    SCOPED_TRACE(n);
    evaluator.set_step(observations_, n);
    std::unordered_set<cache::ScenarioKey, cache::ScenarioKeyHash> evaluated;
    auto inner = evaluator.batch_evaluator();
    const ea::BatchEvaluator batch =
        [&](const std::vector<ea::Genome>& genomes) {
          for (const auto& g : genomes)
            evaluated.insert(cache::make_scenario_key(space.decode(g)));
          return inner(genomes);
        };
    NsGaOptimizer optimizer(ns);
    const OptimizationOutcome outcome =
        optimizer.optimize(firelib::kParamCount, batch, {4, 0.95}, rng);
    std::vector<firelib::Scenario> solutions;
    for (const auto& ind : outcome.solutions) {
      solutions.push_back(space.decode(ind.genome));
      ASSERT_TRUE(evaluated.count(cache::make_scenario_key(solutions.back())))
          << "every solution was evaluated in this step";
    }
    ASSERT_FALSE(solutions.empty());

    const double t_now = truth_.time_of(n);
    const std::size_t before = evaluator.simulations_run();
    const Grid<double> probability =
        evaluator.burn_probability(solutions, observations_, n - 1, t_now);
    EXPECT_EQ(evaluator.simulations_run(), before);
    expect_bitwise_equal(probability,
                         oracle_probability(solutions, line(n - 1), t_now));

    // The PS's forward interval has no records; it still matches.
    const double t_next = truth_.time_of(n + 1);
    expect_bitwise_equal(
        evaluator.burn_probability(solutions, observations_, n, t_next),
        oracle_probability(solutions, line(n), t_next));
  }
}

// Stage-by-stage replica of the pre-reuse pipeline: the same OS, then the
// Statistical Stage over re-simulated maps and the per-candidate S_Kign.
std::vector<StepReport> replica_pipeline(const firelib::FireEnvironment& env,
                                         const synth::GroundTruth& truth,
                                         const core::NsGaConfig& ns,
                                         const ea::StopCondition& stop,
                                         std::uint64_t seed) {
  ScenarioEvaluator evaluator(env);
  evaluator.set_cache_policy(CachePolicy::kOff);
  Observations observations(truth, false);
  NsGaOptimizer optimizer(ns);
  Rng rng(seed);
  const auto& space = firelib::ScenarioSpace::table1();
  const auto& lines = truth.fire_lines;
  std::vector<StepReport> reports;
  for (int n = 1; n + 1 <= truth.steps(); ++n) {
    const auto un = static_cast<std::size_t>(n);
    const double t_prev = truth.time_of(n - 1);
    const double t_now = truth.time_of(n);
    const double t_next = truth.time_of(n + 1);
    evaluator.set_step(observations, n);
    OptimizationOutcome outcome = optimizer.optimize(
        firelib::kParamCount, evaluator.batch_evaluator(), stop, rng);
    std::sort(outcome.solutions.begin(), outcome.solutions.end(),
              [](const auto& a, const auto& b) { return a.fitness > b.fitness; });
    std::vector<firelib::Scenario> scenarios;
    for (const auto& ind : outcome.solutions)
      scenarios.push_back(space.decode(ind.genome));
    const KignSearchResult kign = oracle::search_kign(
        oracle::aggregate_probability(
            oracle::reference_maps(env, scenarios,
                                   oracle::flat_line(lines[un - 1], t_prev),
                                   t_now),
            t_now),
        firelib::burned_mask(lines[un], t_now),
        firelib::burned_mask(lines[un - 1], t_prev), 100);
    const Grid<double> next = oracle::aggregate_probability(
        oracle::reference_maps(env, scenarios,
                               oracle::flat_line(lines[un], t_now), t_next),
        t_next);
    StepReport report;
    report.kign = kign.kign;
    report.calibration_fitness = kign.fitness;
    report.prediction_quality =
        jaccard(firelib::burned_mask(lines[un + 1], t_next),
                apply_kign(next, kign.kign),
                firelib::burned_mask(lines[un], t_now));
    reports.push_back(report);
  }
  return reports;
}

TEST_P(StatisticalStageReuse, PipelineMatchesPreReuseStages) {
  const ReuseCase& c = GetParam();
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  PipelineConfig config;
  config.stop = {4, 0.95};
  config.cache_policy = c.policy;
  config.workers = c.workers;
  PredictionPipeline pipeline(workload_.environment, truth_, config);
  NsGaOptimizer optimizer(ns);
  Rng rng(37);
  const PipelineResult result = pipeline.run(optimizer, rng);

  const std::vector<StepReport> want = replica_pipeline(
      workload_.environment, truth_, ns, config.stop, 37);
  ASSERT_EQ(result.steps.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.steps[i].kign),
              std::bit_cast<std::uint64_t>(want[i].kign));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.steps[i].calibration_fitness),
              std::bit_cast<std::uint64_t>(want[i].calibration_fitness));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.steps[i].prediction_quality),
              std::bit_cast<std::uint64_t>(want[i].prediction_quality));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesWorkersBackends, StatisticalStageReuse,
    ::testing::Values(
        ReuseCase{"off_w1_scalar", CachePolicy::kOff, 1},
        ReuseCase{"off_w4_scalar", CachePolicy::kOff, 4},
        ReuseCase{"step_w1_scalar", CachePolicy::kStep, 1},
        ReuseCase{"step_w4_scalar", CachePolicy::kStep, 4},
        ReuseCase{"shared_w1_scalar", CachePolicy::kShared, 1},
        ReuseCase{"shared_w4_scalar", CachePolicy::kShared, 4}));

}  // namespace
}  // namespace essns::ess
