#include "ess/observation.hpp"

#include <gtest/gtest.h>

#include <memory>

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
  const ObservationDigest digest = make_observation_digest(truth_, true);
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
  const ObservationDigest plain = make_observation_digest(truth_, false);
  EXPECT_FALSE(plain.fingerprinted);
  for (const ObservedLine& line : plain.lines) EXPECT_EQ(line.fingerprint, 0u);
}

TEST_F(ObservationTest, IdentityTellsJobsApart) {
  const DigestIdentity identity = digest_identity(workload_, kTruthSeed);
  EXPECT_EQ(identity, digest_identity(workload_, kTruthSeed));
  EXPECT_NE(identity, digest_identity(workload_, kTruthSeed + 1));
  synth::Workload longer = workload_;
  longer.truth_config.steps += 1;
  EXPECT_NE(identity, digest_identity(longer, kTruthSeed));
  synth::Workload moved = workload_;
  moved.truth_config.ignition.col += 1;
  EXPECT_NE(identity, digest_identity(moved, kTruthSeed));
}

TEST_F(ObservationTest, LazyLinesAreGeneratedOnceOnFirstUse) {
  auto digest = std::make_shared<const ObservationDigest>(
      make_observation_digest(truth_, false));
  int generated = 0;
  Observations lazy(digest, [&] {
    ++generated;
    return materialize_truth(workload_, kTruthSeed).fire_lines;
  });
  EXPECT_EQ(lazy.dense_line(1), nullptr);
  EXPECT_EQ(lazy.line(1), truth_.fire_lines[1]);
  EXPECT_EQ(lazy.line(3), truth_.fire_lines[3]);
  EXPECT_EQ(generated, 1);
  EXPECT_THROW(lazy.line(99), InvalidArgument);
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

TEST_F(ObservationTest, LazyPipelineEqualsEagerBitForBit) {
  for (const cache::CachePolicy policy :
       {cache::CachePolicy::kOff, cache::CachePolicy::kStep,
        cache::CachePolicy::kShared}) {
    SCOPED_TRACE(cache::to_string(policy));
    const bool shared = policy == cache::CachePolicy::kShared;
    PipelineConfig config;
    config.stop = {3, 0.95};
    config.workers = 2;
    config.cache_policy = policy;
    config.shared_cache =
        shared ? std::make_shared<cache::SharedScenarioCache>(64u << 20)
               : nullptr;
    auto digest = std::make_shared<const ObservationDigest>(
        make_observation_digest(truth_, shared));

    Grid<double> eager_probability;
    const PipelineResult eager =
        run_pipeline(workload_, Observations(digest, truth_.fire_lines),
                     config, &eager_probability);

    int generated = 0;
    Grid<double> lazy_probability;
    const PipelineResult lazy = run_pipeline(
        workload_, Observations(digest, [&] {
          ++generated;
          return materialize_truth(workload_, kTruthSeed).fire_lines;
        }),
        config, &lazy_probability);

    // Without a cache every batch simulates, so the lines are generated at
    // the first one; the shared cache the eager run warmed answers every
    // batch, so they never are.
    EXPECT_EQ(generated, shared ? 0 : 1);
    ASSERT_EQ(lazy.steps.size(), eager.steps.size());
    for (std::size_t i = 0; i < lazy.steps.size(); ++i) {
      const StepReport& a = lazy.steps[i];
      const StepReport& b = eager.steps[i];
      EXPECT_EQ(a.kign, b.kign);
      EXPECT_EQ(a.calibration_fitness, b.calibration_fitness);
      EXPECT_EQ(a.best_os_fitness, b.best_os_fitness);
      EXPECT_EQ(a.prediction_quality, b.prediction_quality);
      EXPECT_EQ(a.os_evaluations, b.os_evaluations);
      EXPECT_EQ(a.solution_count, b.solution_count);
      if (!shared) {
        EXPECT_EQ(a.cache_hits, b.cache_hits);
        EXPECT_EQ(a.cache_misses, b.cache_misses);
      }
    }
    EXPECT_EQ(lazy_probability, eager_probability);
  }
}

TEST_F(ObservationTest, SharedPolicyRefusesUnfingerprintedLines) {
  PipelineConfig config;
  config.stop = {2, 0.95};
  config.cache_policy = cache::CachePolicy::kShared;
  Grid<double> probability;
  EXPECT_THROW(
      run_pipeline(workload_,
                   Observations(std::make_shared<const ObservationDigest>(
                                    make_observation_digest(truth_, false)),
                                truth_.fire_lines),
                   config, &probability),
      InvalidArgument);
}

}  // namespace
}  // namespace essns::ess
