#include "ess/monitor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

class EssimSystemTest : public ::testing::Test {
 protected:
  EssimSystemTest() : workload_(synth::make_plains(32)) {
    Rng rng(7);
    truth_ = synth::generate_ground_truth(workload_.environment,
                                          workload_.truth_config, rng);
    config_.islands = 3;
    config_.ga.population_size = 8;
    config_.ga.offspring_count = 8;
    config_.ga.elite_count = 1;
    config_.stop = {6, 0.95};
  }

  synth::Workload workload_;
  synth::GroundTruth truth_;
  EssimConfig config_;
};

TEST_F(EssimSystemTest, ReportsEveryIslandEveryStep) {
  EssimSystem system(workload_.environment, truth_, config_);
  Rng rng(1);
  const EssimResult result = system.run(rng);
  EXPECT_EQ(result.steps.size(), 4u);  // t2..t5
  for (const auto& step : result.steps) {
    EXPECT_EQ(step.islands.size(), 3u);
    EXPECT_GE(step.selected_island, 0);
    EXPECT_LT(step.selected_island, 3);
    for (const auto& island : step.islands) {
      EXPECT_GE(island.fitness, 0.0);
      EXPECT_LE(island.fitness, 1.0);
      EXPECT_GT(island.kign, 0.0);
      EXPECT_LE(island.kign, 1.0);
    }
  }
}

TEST_F(EssimSystemTest, MonitorSelectsBestCalibratedIsland) {
  EssimSystem system(workload_.environment, truth_, config_);
  Rng rng(2);
  const EssimResult result = system.run(rng);
  for (const auto& step : result.steps) {
    const auto& chosen =
        step.islands[static_cast<std::size_t>(step.selected_island)];
    for (const auto& island : step.islands)
      EXPECT_GE(chosen.fitness, island.fitness);
    EXPECT_DOUBLE_EQ(step.kign, chosen.kign);
  }
}

TEST_F(EssimSystemTest, QualityReasonableOnPlains) {
  EssimSystem system(workload_.environment, truth_, config_);
  Rng rng(3);
  const EssimResult result = system.run(rng);
  EXPECT_GT(result.mean_quality(), 0.3);
  for (const auto& step : result.steps) {
    EXPECT_GE(step.prediction_quality, 0.0);
    EXPECT_LE(step.prediction_quality, 1.0);
  }
}

TEST_F(EssimSystemTest, DeterministicForSameSeed) {
  EssimSystem s1(workload_.environment, truth_, config_);
  EssimSystem s2(workload_.environment, truth_, config_);
  Rng a(11), b(11);
  const auto r1 = s1.run(a);
  const auto r2 = s2.run(b);
  ASSERT_EQ(r1.steps.size(), r2.steps.size());
  for (std::size_t i = 0; i < r1.steps.size(); ++i) {
    EXPECT_EQ(r1.steps[i].selected_island, r2.steps[i].selected_island);
    EXPECT_DOUBLE_EQ(r1.steps[i].prediction_quality,
                     r2.steps[i].prediction_quality);
  }
}

TEST_F(EssimSystemTest, BitIdenticalAcrossWorkerCounts) {
  // The Master/Worker pool must not change a bit of what the Monitor sees:
  // every island's calibration and the selected prediction.
  const auto run_with = [&](unsigned workers) {
    EssimConfig config = config_;
    config.workers = workers;
    EssimSystem system(workload_.environment, truth_, config);
    Rng rng(11);
    return system.run(rng);
  };
  const EssimResult serial = run_with(1);
  const EssimResult pooled = run_with(3);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(serial.steps.size(), pooled.steps.size());
  for (std::size_t i = 0; i < serial.steps.size(); ++i) {
    SCOPED_TRACE(i);
    const EssimStepReport& a = serial.steps[i];
    const EssimStepReport& b = pooled.steps[i];
    EXPECT_EQ(a.selected_island, b.selected_island);
    EXPECT_EQ(bits(a.kign), bits(b.kign));
    EXPECT_EQ(bits(a.prediction_quality), bits(b.prediction_quality));
    ASSERT_EQ(a.islands.size(), b.islands.size());
    for (std::size_t k = 0; k < a.islands.size(); ++k)
      EXPECT_EQ(bits(a.islands[k].fitness), bits(b.islands[k].fitness)) << k;
  }
}

TEST_F(EssimSystemTest, DeIslandsRun) {
  EssimConfig de_config = config_;
  de_config.inner = IslandOptimizer::Inner::kDe;
  de_config.de.population_size = 8;
  de_config.de_tuning = true;
  EssimSystem system(workload_.environment, truth_, de_config);
  Rng rng(4);
  const auto result = system.run(rng);
  EXPECT_EQ(result.steps.size(), 4u);
}

TEST_F(EssimSystemTest, SingleIslandDegeneratesGracefully) {
  EssimConfig one = config_;
  one.islands = 1;
  EssimSystem system(workload_.environment, truth_, one);
  Rng rng(5);
  const auto result = system.run(rng);
  for (const auto& step : result.steps) {
    EXPECT_EQ(step.selected_island, 0);
    EXPECT_EQ(step.islands.size(), 1u);
  }
}

TEST_F(EssimSystemTest, RejectsBadConfig) {
  EssimConfig bad = config_;
  bad.islands = 0;
  EXPECT_THROW(EssimSystem(workload_.environment, truth_, bad),
               InvalidArgument);

  synth::GroundTruthConfig short_cfg = workload_.truth_config;
  short_cfg.steps = 1;
  Rng rng(6);
  const auto short_truth =
      synth::generate_ground_truth(workload_.environment, short_cfg, rng);
  EXPECT_THROW(EssimSystem(workload_.environment, short_truth, config_),
               InvalidArgument);
}

}  // namespace
}  // namespace essns::ess
