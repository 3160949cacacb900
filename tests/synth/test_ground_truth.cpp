#include "synth/ground_truth.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "synth/weather.hpp"
#include "synth/workloads.hpp"

namespace essns::synth {
namespace {

GroundTruthConfig base_config() {
  GroundTruthConfig cfg;
  cfg.hidden.model = 1;
  cfg.hidden.wind_speed = 10.0;
  cfg.hidden.m1 = 6.0;
  cfg.hidden.m10 = 7.0;
  cfg.hidden.m100 = 8.0;
  cfg.hidden.mherb = 60.0;
  cfg.step_minutes = 30.0;
  cfg.steps = 4;
  cfg.ignition = {16, 16};
  return cfg;
}

TEST(GroundTruthTest, ProducesOneLinePerInstant) {
  firelib::FireEnvironment env(33, 33, 100.0);
  Rng rng(1);
  const GroundTruth truth = generate_ground_truth(env, base_config(), rng);
  EXPECT_EQ(truth.fire_lines.size(), 5u);  // t0..t4
  EXPECT_EQ(truth.steps(), 4);
  EXPECT_DOUBLE_EQ(truth.step_minutes, 30.0);
  EXPECT_DOUBLE_EQ(truth.time_of(3), 90.0);
}

TEST(GroundTruthTest, InitialLineIsJustTheOutbreak) {
  firelib::FireEnvironment env(33, 33, 100.0);
  Rng rng(2);
  const GroundTruth truth = generate_ground_truth(env, base_config(), rng);
  EXPECT_EQ(firelib::burned_count(truth.fire_lines[0], 0.0), 1u);
  EXPECT_DOUBLE_EQ(truth.fire_lines[0](16, 16), 0.0);
}

TEST(GroundTruthTest, FireGrowsMonotonically) {
  firelib::FireEnvironment env(33, 33, 100.0);
  Rng rng(3);
  const GroundTruth truth = generate_ground_truth(env, base_config(), rng);
  for (int i = 1; i <= truth.steps(); ++i) {
    const auto prev =
        firelib::burned_count(truth.fire_lines[static_cast<size_t>(i) - 1],
                              truth.time_of(i - 1));
    const auto now = firelib::burned_count(
        truth.fire_lines[static_cast<size_t>(i)], truth.time_of(i));
    EXPECT_GT(now, prev) << "step " << i;
  }
}

TEST(GroundTruthTest, NoiselessObservationMatchesSimulationChain) {
  firelib::FireEnvironment env(33, 33, 100.0);
  GroundTruthConfig cfg = base_config();
  cfg.observation_noise = 0.0;
  cfg.drift_sigma = 0.0;
  Rng rng(4);
  const GroundTruth truth = generate_ground_truth(env, cfg, rng);

  // Re-simulate directly from the outbreak with the hidden scenario: the
  // final observed fire line must match the direct run exactly.
  const firelib::FireSpreadModel model;
  const firelib::FirePropagator propagator(model);
  const auto direct = propagator.propagate(env, cfg.hidden, {cfg.ignition},
                                           truth.time_of(truth.steps()));
  EXPECT_EQ(firelib::burned_mask(truth.fire_lines.back(),
                                 truth.time_of(truth.steps())),
            firelib::burned_mask(direct, truth.time_of(truth.steps())));
}

/// The step chain as a fresh map-returning propagation per step: the
/// oracle for the generator's one reused workspace (noiseless, so every
/// observed line is the physical one).
std::vector<firelib::IgnitionMap> fresh_chain(
    const firelib::FireEnvironment& env, const GroundTruthConfig& cfg,
    const std::vector<firelib::Scenario>& per_step) {
  const firelib::FireSpreadModel model;
  const firelib::FirePropagator propagator(model);
  firelib::IgnitionMap current(env.rows(), env.cols(), firelib::kNeverIgnited);
  current(cfg.ignition) = 0.0;
  std::vector<firelib::IgnitionMap> lines{current};
  for (int step = 1; step <= cfg.steps; ++step) {
    current = propagator.propagate(
        env, per_step[static_cast<std::size_t>(step) - 1], current,
        cfg.step_minutes * step);
    lines.push_back(current);
  }
  return lines;
}

TEST(GroundTruthTest, ReusedWorkspaceEqualsFreshPropagationsBitForBit) {
  for (const Workload& workload : {make_plains(24), make_hills(24)}) {
    SCOPED_TRACE(workload.name);
    GroundTruthConfig cfg = workload.truth_config;
    cfg.observation_noise = 0.0;
    cfg.drift_sigma = 0.0;
    cfg.steps = 4;

    Rng rng(8);
    const GroundTruth walked =
        generate_ground_truth(workload.environment, cfg, rng);
    EXPECT_EQ(walked.fire_lines,
              fresh_chain(workload.environment, cfg,
                          std::vector<firelib::Scenario>(4, cfg.hidden)));

    // Per-step scenarios: every step sweeps under a new scenario.
    Rng weather_rng(9);
    const std::vector<firelib::Scenario> per_step = diurnal_scenarios(
        DiurnalWeatherConfig{}, cfg.hidden, 10.0, cfg.step_minutes, 4,
        weather_rng);
    Rng sequence_rng(8);
    const GroundTruth sequenced = generate_ground_truth(
        workload.environment, cfg, per_step, sequence_rng);
    EXPECT_EQ(sequenced.fire_lines,
              fresh_chain(workload.environment, cfg, per_step));
  }
}

TEST(GroundTruthTest, DriftChangesScenarioPerStep) {
  firelib::FireEnvironment env(33, 33, 100.0);
  GroundTruthConfig cfg = base_config();
  cfg.drift_sigma = 0.1;
  Rng rng(5);
  const GroundTruth truth = generate_ground_truth(env, cfg, rng);
  int changed = 0;
  for (int i = 2; i <= truth.steps(); ++i) {
    if (!(truth.scenario_at[static_cast<size_t>(i)] ==
          truth.scenario_at[static_cast<size_t>(i) - 1]))
      ++changed;
  }
  EXPECT_GT(changed, 0);
  // Fuel model never drifts.
  for (int i = 1; i <= truth.steps(); ++i)
    EXPECT_EQ(truth.scenario_at[static_cast<size_t>(i)].model,
              cfg.hidden.model);
  // All drifted scenarios stay inside Table I.
  for (int i = 1; i <= truth.steps(); ++i)
    EXPECT_TRUE(firelib::ScenarioSpace::table1().is_valid(
        truth.scenario_at[static_cast<size_t>(i)]));
}

TEST(GroundTruthTest, ZeroDriftKeepsScenarioConstant) {
  firelib::FireEnvironment env(33, 33, 100.0);
  GroundTruthConfig cfg = base_config();
  cfg.drift_sigma = 0.0;
  Rng rng(6);
  const GroundTruth truth = generate_ground_truth(env, cfg, rng);
  for (int i = 1; i <= truth.steps(); ++i)
    EXPECT_EQ(truth.scenario_at[static_cast<size_t>(i)], cfg.hidden);
}

TEST(GroundTruthTest, ObservationNoisePerturbsTheFrontOnly) {
  firelib::FireEnvironment env(41, 41, 100.0);
  GroundTruthConfig clean_cfg = base_config();
  clean_cfg.ignition = {20, 20};
  clean_cfg.observation_noise = 0.0;
  GroundTruthConfig noisy_cfg = clean_cfg;
  noisy_cfg.observation_noise = 0.3;
  Rng a(7), b(7);
  const GroundTruth clean = generate_ground_truth(env, clean_cfg, a);
  const GroundTruth noisy = generate_ground_truth(env, noisy_cfg, b);

  const double t = clean.time_of(2);
  const auto clean_mask = firelib::burned_mask(clean.fire_lines[2], t);
  const auto noisy_mask = firelib::burned_mask(noisy.fire_lines[2], t);
  int differing = 0;
  for (int r = 0; r < 41; ++r) {
    for (int c = 0; c < 41; ++c) {
      if (clean_mask(r, c) == noisy_mask(r, c)) continue;
      ++differing;
      // Every differing cell must touch the clean front (8-neighbourhood
      // containing both a burned and an unburned clean cell).
      bool near_front = false;
      for (const auto& d : kEightNeighbours) {
        const int nr = r + d.row, nc = c + d.col;
        if (clean_mask.in_bounds(nr, nc) &&
            clean_mask(nr, nc) != clean_mask(r, c))
          near_front = true;
      }
      EXPECT_TRUE(near_front) << r << "," << c;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(GroundTruthTest, OutbreakNeverLostToNoise) {
  firelib::FireEnvironment env(33, 33, 100.0);
  GroundTruthConfig cfg = base_config();
  cfg.observation_noise = 0.5;
  Rng rng(8);
  const GroundTruth truth = generate_ground_truth(env, cfg, rng);
  for (int i = 0; i <= truth.steps(); ++i)
    EXPECT_LE(truth.fire_lines[static_cast<size_t>(i)](16, 16),
              truth.time_of(i));
}

TEST(GroundTruthTest, RejectsInvalidConfig) {
  firelib::FireEnvironment env(33, 33, 100.0);
  Rng rng(9);
  GroundTruthConfig bad = base_config();
  bad.steps = 0;
  EXPECT_THROW(generate_ground_truth(env, bad, rng), InvalidArgument);
  bad = base_config();
  bad.step_minutes = 0.0;
  EXPECT_THROW(generate_ground_truth(env, bad, rng), InvalidArgument);
  bad = base_config();
  bad.observation_noise = 1.0;
  EXPECT_THROW(generate_ground_truth(env, bad, rng), InvalidArgument);
  bad = base_config();
  bad.ignition = {99, 0};
  EXPECT_THROW(generate_ground_truth(env, bad, rng), InvalidArgument);
  bad = base_config();
  bad.hidden.wind_speed = 999.0;
  EXPECT_THROW(generate_ground_truth(env, bad, rng), InvalidArgument);
}

TEST(GroundTruthTest, DeterministicForSeed) {
  firelib::FireEnvironment env(33, 33, 100.0);
  GroundTruthConfig cfg = base_config();
  cfg.drift_sigma = 0.05;
  cfg.observation_noise = 0.1;
  Rng a(10), b(10);
  const GroundTruth t1 = generate_ground_truth(env, cfg, a);
  const GroundTruth t2 = generate_ground_truth(env, cfg, b);
  for (std::size_t i = 0; i < t1.fire_lines.size(); ++i)
    EXPECT_EQ(t1.fire_lines[i], t2.fire_lines[i]);
}

}  // namespace
}  // namespace essns::synth
