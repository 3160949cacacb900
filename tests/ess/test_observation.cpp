#include "ess/observation.hpp"

#include <gtest/gtest.h>

#include "cache/scenario_cache.hpp"
#include "common/error.hpp"
#include "ess/pipeline.hpp"
#include "synth/workloads.hpp"

namespace essns::ess {
namespace {

class ObservationTest : public ::testing::Test {
 protected:
  ObservationTest() : workload_(synth::make_wind_shift(24)) {
    workload_.truth_config.steps = 4;
    workload_.truth_config.observation_noise = 0.1;
    truth_ = materialize_truth(workload_, kTruthSeed);
  }

  static constexpr std::uint64_t kTruthSeed = 97;
  synth::Workload workload_;
  synth::GroundTruth truth_;
};

TEST_F(ObservationTest, DigestHoldsEachLinesBitsetsAndFingerprint) {
  const Observations observations(truth_, true);
  const ObservationDigest& digest = observations.digest();
  ASSERT_EQ(digest.steps(), truth_.steps());
  EXPECT_TRUE(digest.fingerprinted);
  for (int k = 0; k <= truth_.steps(); ++k) {
    SCOPED_TRACE(k);
    const auto uk = static_cast<std::size_t>(k);
    const firelib::IgnitionMap& line = truth_.fire_lines[uk];
    const ObservedLine& observed = digest.lines[uk];
    EXPECT_EQ(digest.times[uk], truth_.time_of(k));
    EXPECT_EQ(observed.fingerprint, cache::map_fingerprint(line));
    EXPECT_EQ(observed.scoring.real,
              firelib::burned_cells(line, truth_.time_of(k)));
    if (k == 0)
      EXPECT_TRUE(observed.scoring.preburned.empty());
    else
      EXPECT_EQ(observed.scoring.preburned,
                firelib::burned_cells(line, truth_.time_of(k - 1)));
  }
  // The step cache never asks for fingerprints, so none are computed.
  const Observations plain(truth_, false);
  EXPECT_FALSE(plain.digest().fingerprinted);
  for (const ObservedLine& line : plain.digest().lines)
    EXPECT_EQ(line.fingerprint, 0u);
}

/// Run the pipeline of the fixture's fire over `observations`.
PipelineResult run_pipeline(const synth::Workload& workload,
                            Observations observations, PipelineConfig config,
                            Grid<double>* probability) {
  PredictionPipeline pipeline(workload.environment, std::move(observations),
                              config);
  core::NsGaConfig ns;
  ns.population_size = 8;
  ns.offspring_count = 8;
  NsGaOptimizer optimizer(ns);
  Rng rng(5);
  PipelineResult result = pipeline.run(optimizer, rng);
  *probability = pipeline.last_probability();
  return result;
}

TEST_F(ObservationTest, SharedPolicyRefusesUnfingerprintedLines) {
  PipelineConfig config;
  config.stop = {2, 0.95};
  config.cache_policy = cache::CachePolicy::kShared;
  Grid<double> probability;
  EXPECT_THROW(
      run_pipeline(workload_, Observations(truth_, false), config,
                   &probability),
      InvalidArgument);
}

}  // namespace
}  // namespace essns::ess
