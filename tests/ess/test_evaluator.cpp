#include "ess/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

synth::GroundTruth truth_of(const synth::Workload& workload) {
  Rng rng(5);
  return synth::generate_ground_truth(workload.environment,
                                      workload.truth_config, rng);
}

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest()
      : workload_(synth::make_plains(32)),
        truth_(truth_of(workload_)),
        observations_(truth_, false) {}

  synth::Workload workload_;
  synth::GroundTruth truth_;
  Observations observations_;
};

TEST_F(EvaluatorTest, HiddenScenarioScoresHigh) {
  ScenarioEvaluator evaluator(workload_.environment);
  evaluator.set_step(observations_, 1);
  const double fit = evaluator.evaluate_scenario(truth_.scenario_at[1]);
  // Observation noise keeps it below 1, but the generating scenario must
  // score far above a wrong one.
  EXPECT_GT(fit, 0.6);
}

TEST_F(EvaluatorTest, WrongScenarioScoresLower) {
  ScenarioEvaluator evaluator(workload_.environment);
  evaluator.set_step(observations_, 1);
  firelib::Scenario wrong = truth_.scenario_at[1];
  wrong.m1 = 59.0;  // soaked fuel: fire barely moves
  wrong.m10 = 59.0;
  wrong.m100 = 59.0;
  const double truth_fit = evaluator.evaluate_scenario(truth_.scenario_at[1]);
  const double wrong_fit = evaluator.evaluate_scenario(wrong);
  EXPECT_GT(truth_fit, wrong_fit);
}

TEST_F(EvaluatorTest, BatchMatchesScalarEvaluation) {
  ScenarioEvaluator evaluator(workload_.environment);
  evaluator.set_step(observations_, 1);
  const auto& space = firelib::ScenarioSpace::table1();
  Rng rng(9);
  std::vector<ea::Genome> genomes;
  for (int i = 0; i < 8; ++i) genomes.push_back(space.encode(space.sample(rng)));

  const auto batch = evaluator.batch_evaluator()(genomes);
  ASSERT_EQ(batch.size(), genomes.size());
  // A Prediction Stage pass over the next interval in between must not
  // change what the step's scalar evaluation scores against.
  evaluator.burn_probability({space.decode(genomes[0])}, observations_, 1,
                             2 * truth_.step_minutes);
  for (std::size_t i = 0; i < genomes.size(); ++i) {
    const double scalar =
        evaluator.evaluate_scenario(space.decode(genomes[i]));
    EXPECT_DOUBLE_EQ(batch[i], scalar);
  }
}

TEST_F(EvaluatorTest, ParallelMatchesSerial) {
  // The paper's Master/Worker parallelization must not change results.
  ScenarioEvaluator serial(workload_.environment);
  const auto lanes = parallel::make_job_lanes(4);
  ScenarioEvaluator parallel(workload_.environment, lanes.get());
  serial.set_step(observations_, 1);
  parallel.set_step(observations_, 1);
  EXPECT_EQ(parallel.workers(), 4u);

  const auto& space = firelib::ScenarioSpace::table1();
  Rng rng(11);
  std::vector<ea::Genome> genomes;
  for (int i = 0; i < 16; ++i)
    genomes.push_back(space.encode(space.sample(rng)));

  const auto serial_out = serial.batch_evaluator()(genomes);
  const auto parallel_out = parallel.batch_evaluator()(genomes);
  ASSERT_EQ(serial_out.size(), parallel_out.size());
  for (std::size_t i = 0; i < serial_out.size(); ++i)
    EXPECT_DOUBLE_EQ(serial_out[i], parallel_out[i]);
}

TEST_F(EvaluatorTest, FitnessInUnitInterval) {
  ScenarioEvaluator evaluator(workload_.environment);
  evaluator.set_step(observations_, 1);
  const auto& space = firelib::ScenarioSpace::table1();
  Rng rng(13);
  for (int i = 0; i < 30; ++i) {
    const double fit = evaluator.evaluate_scenario(space.sample(rng));
    EXPECT_GE(fit, 0.0);
    EXPECT_LE(fit, 1.0);
  }
}

TEST_F(EvaluatorTest, SimulationCounterAdvances) {
  ScenarioEvaluator evaluator(workload_.environment);
  evaluator.set_step(observations_, 1);
  EXPECT_EQ(evaluator.simulations_run(), 0u);
  evaluator.evaluate_scenario(truth_.scenario_at[1]);
  EXPECT_EQ(evaluator.simulations_run(), 1u);
  evaluator.batch_evaluator()(
      {firelib::ScenarioSpace::table1().encode(truth_.scenario_at[1])});
  EXPECT_EQ(evaluator.simulations_run(), 2u);
}

TEST_F(EvaluatorTest, EvaluateBeforeSetStepThrows) {
  ScenarioEvaluator evaluator(workload_.environment);
  EXPECT_THROW(evaluator.evaluate_scenario(truth_.scenario_at[1]),
               InvalidArgument);
}

TEST_F(EvaluatorTest, SetStepValidatesInterval) {
  ScenarioEvaluator evaluator(workload_.environment);
  EXPECT_THROW(evaluator.set_step(observations_, 0), InvalidArgument);
  EXPECT_THROW(evaluator.set_step(observations_, truth_.steps() + 1),
               InvalidArgument);
  synth::GroundTruth still = truth_;
  still.step_minutes = 0.0;  // every line at t = 0
  Observations zero_length(still, false);
  EXPECT_THROW(evaluator.set_step(zero_length, 1), InvalidArgument);
}

TEST_F(EvaluatorTest, BurnProbabilityContinuesFromTheLine) {
  // The hidden scenario grows the outbreak cell of line 0 into a fire.
  ScenarioEvaluator evaluator(workload_.environment);
  evaluator.set_step(observations_, 1);
  const Grid<double> probability = evaluator.burn_probability(
      {truth_.scenario_at[1]}, observations_, 0, truth_.step_minutes);
  EXPECT_GT(std::count(probability.begin(), probability.end(), 1.0), 1);
}

}  // namespace
}  // namespace essns::ess
