#include "ess/behavior.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/novelty.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

class BurnDescriptorTest : public ::testing::Test {
 protected:
  BurnDescriptorTest() : workload_(synth::make_plains(32)) {
    Rng rng(5);
    truth_ = synth::generate_ground_truth(workload_.environment,
                                          workload_.truth_config, rng);
  }

  synth::Workload workload_;
  synth::GroundTruth truth_;
};

TEST_F(BurnDescriptorTest, ThreeNormalizedFeatures) {
  ScenarioEvaluator evaluator(workload_.environment);
  const auto map = evaluator.simulate(truth_.scenario_at[1],
                                      truth_.fire_lines[0],
                                      truth_.step_minutes);
  const auto descriptor =
      burn_descriptor(map, truth_.step_minutes, truth_.fire_lines[0], 0.0);
  ASSERT_EQ(descriptor.size(), 3u);
  EXPECT_GT(descriptor[0], 0.0);   // something burned
  EXPECT_LT(descriptor[0], 1.0);   // not everything
  EXPECT_GE(descriptor[1], -1.0);
  EXPECT_LE(descriptor[1], 1.0);
  EXPECT_GE(descriptor[2], -1.0);
  EXPECT_LE(descriptor[2], 1.0);
}

TEST_F(BurnDescriptorTest, WindDirectionSeparatesScenarios) {
  // Same burned area, opposite push direction: Eq. (2) distance ~0, burn
  // descriptor distance large — the motivating case for richer behaviours.
  ScenarioEvaluator evaluator(workload_.environment);
  firelib::Scenario east = truth_.scenario_at[1];
  east.wind_speed = 20.0;
  east.wind_dir = 90.0;
  firelib::Scenario west = east;
  west.wind_dir = 270.0;

  const auto east_map =
      evaluator.simulate(east, truth_.fire_lines[0], truth_.step_minutes);
  const auto west_map =
      evaluator.simulate(west, truth_.fire_lines[0], truth_.step_minutes);
  const auto east_d =
      burn_descriptor(east_map, truth_.step_minutes, truth_.fire_lines[0], 0.0);
  const auto west_d =
      burn_descriptor(west_map, truth_.step_minutes, truth_.fire_lines[0], 0.0);

  // Burned fractions are close (symmetric terrain)...
  EXPECT_NEAR(east_d[0], west_d[0], 0.05);
  // ...but the centroid columns moved in opposite directions.
  EXPECT_GT(east_d[2], 0.02);
  EXPECT_LT(west_d[2], -0.02);
}

TEST_F(BurnDescriptorTest, EmptyFireCentroidFallsBackToMapCenter) {
  firelib::IgnitionMap nothing(8, 8, firelib::kNeverIgnited);
  const auto d = burn_descriptor(nothing, 10.0, nothing, 0.0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_DOUBLE_EQ(d[2], 0.0);
}

TEST_F(BurnDescriptorTest, DimensionMismatchThrows) {
  firelib::IgnitionMap a(4, 4, firelib::kNeverIgnited);
  firelib::IgnitionMap b(5, 5, firelib::kNeverIgnited);
  EXPECT_THROW(burn_descriptor(a, 1.0, b, 0.0), InvalidArgument);
}

TEST_F(BurnDescriptorTest, DescriptorFnDrivesNsGa) {
  ScenarioEvaluator evaluator(workload_.environment);
  Observations observations(truth_, false);
  evaluator.set_step(observations, 1);
  core::NsGaConfig cfg;
  cfg.population_size = 8;
  cfg.offspring_count = 8;
  cfg.descriptor = make_burn_descriptor_fn(evaluator, truth_.fire_lines[0],
                                           0.0, truth_.step_minutes);
  Rng rng(3);
  const auto result = core::run_ns_ga(
      cfg, firelib::kParamCount, evaluator.batch_evaluator(), {4, 0.99}, rng,
      core::descriptor_distance);
  EXPECT_FALSE(result.best_set.empty());
  for (const auto& ind : result.population)
    EXPECT_EQ(ind.descriptor.size(), 3u);
}

TEST_F(BurnDescriptorTest, DescriptorDistanceRequiresDescriptors) {
  ea::Individual a, b;
  a.genome = b.genome = {0.5};
  a.fitness = b.fitness = 0.5;
  EXPECT_THROW(core::descriptor_distance(a, b), InvalidArgument);
  a.descriptor = {0.1, 0.2};
  b.descriptor = {0.4, 0.6};
  EXPECT_NEAR(core::descriptor_distance(a, b), 0.5, 1e-12);
}

TEST_F(BurnDescriptorTest, FnValidatesInterval) {
  ScenarioEvaluator evaluator(workload_.environment);
  EXPECT_THROW(
      make_burn_descriptor_fn(evaluator, truth_.fire_lines[0], 10.0, 10.0),
      InvalidArgument);
}

}  // namespace
}  // namespace essns::ess
