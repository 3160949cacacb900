#include "synth/ground_truth.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace essns::synth {
namespace {

using firelib::IgnitionMap;
using firelib::kNeverIgnited;

// Random walk of the hidden scenario in normalized genome space. Circular
// parameters wrap naturally through ScenarioSpace::decode.
firelib::Scenario drift_scenario(const firelib::Scenario& s, double sigma,
                                 Rng& rng) {
  if (sigma <= 0.0) return s;
  const auto& space = firelib::ScenarioSpace::table1();
  std::vector<double> genome = space.encode(s);
  for (std::size_t i = 0; i < genome.size(); ++i) {
    if (i == firelib::kModel) continue;  // fuel model does not drift
    genome[i] += rng.normal(0.0, sigma);
  }
  return space.decode(genome);
}

// Observation noise: each unburned cell that touches the burned front may be
// spuriously reported burned, and each burned front cell may be missed.
// Applied to a copy, so the simulation chain stays physical.
IgnitionMap observe(const IgnitionMap& truth, double time_min, double noise,
                    Rng& rng) {
  IgnitionMap observed = truth;
  if (noise <= 0.0) return observed;
  for (int r = 0; r < truth.rows(); ++r) {
    for (int c = 0; c < truth.cols(); ++c) {
      const bool burned = truth(r, c) <= time_min;
      bool frontier = false;
      for (const auto& d : kEightNeighbours) {
        const int nr = r + d.row, nc = c + d.col;
        if (!truth.in_bounds(nr, nc)) continue;
        if ((truth(nr, nc) <= time_min) != burned) {
          frontier = true;
          break;
        }
      }
      if (!frontier) continue;
      if (!burned && rng.bernoulli(noise)) {
        observed(r, c) = time_min;  // false positive on the front
      } else if (burned && truth(r, c) > 0.0 && rng.bernoulli(noise)) {
        observed(r, c) = kNeverIgnited;  // missed detection (never the origin)
      }
    }
  }
  return observed;
}

}  // namespace

GroundTruth generate_ground_truth(
    const firelib::FireEnvironment& env, const GroundTruthConfig& config,
    std::span<const firelib::Scenario> per_step, Rng& rng) {
  ESSNS_REQUIRE(per_step.size() >= static_cast<std::size_t>(config.steps),
                "need one scenario per step");
  ESSNS_REQUIRE(config.steps >= 1, "ground truth needs at least one step");
  ESSNS_REQUIRE(config.step_minutes > 0.0, "step length must be positive");
  const auto& space = firelib::ScenarioSpace::table1();
  for (int i = 0; i < config.steps; ++i)
    ESSNS_REQUIRE(space.is_valid(per_step[static_cast<std::size_t>(i)]),
                  "per-step scenarios must lie in the Table I space");

  const firelib::FireSpreadModel spread_model;
  const firelib::FirePropagator propagator(spread_model);
  // One workspace for every step: its slabs are allocated once, and each
  // sweep's result is copied out before the next reuses them.
  firelib::PropagationWorkspace workspace;

  GroundTruth out;
  out.step_minutes = config.step_minutes;
  out.scenario_at.resize(static_cast<std::size_t>(config.steps) + 1,
                         per_step[0]);

  IgnitionMap current(env.rows(), env.cols(), kNeverIgnited);
  ESSNS_REQUIRE(current.in_bounds(config.ignition),
                "ignition cell out of bounds");
  current(config.ignition) = 0.0;
  out.fire_lines.push_back(current);

  for (int step = 1; step <= config.steps; ++step) {
    const firelib::Scenario& scenario =
        per_step[static_cast<std::size_t>(step) - 1];
    out.scenario_at[static_cast<std::size_t>(step)] = scenario;
    const double horizon = config.step_minutes * step;
    current =
        propagator.propagate(env, scenario, current, horizon, workspace);
    out.fire_lines.push_back(
        observe(current, horizon, config.observation_noise, rng));
  }
  return out;
}

GroundTruth generate_ground_truth(const firelib::FireEnvironment& env,
                                  const GroundTruthConfig& config, Rng& rng) {
  ESSNS_REQUIRE(config.steps >= 1, "ground truth needs at least one step");
  ESSNS_REQUIRE(config.step_minutes > 0.0, "step length must be positive");
  ESSNS_REQUIRE(config.observation_noise >= 0.0 &&
                    config.observation_noise < 1.0,
                "observation noise in [0,1)");
  ESSNS_REQUIRE(
      firelib::ScenarioSpace::table1().is_valid(config.hidden),
      "hidden scenario must lie in the Table I space");

  const firelib::FireSpreadModel spread_model;
  const firelib::FirePropagator propagator(spread_model);
  // One workspace for every step: its slabs are allocated once, and each
  // sweep's result is copied out before the next reuses them.
  firelib::PropagationWorkspace workspace;

  GroundTruth out;
  out.step_minutes = config.step_minutes;
  out.scenario_at.resize(static_cast<std::size_t>(config.steps) + 1,
                         config.hidden);

  // t_0: only the outbreak cell is burned.
  IgnitionMap current(env.rows(), env.cols(), kNeverIgnited);
  ESSNS_REQUIRE(current.in_bounds(config.ignition),
                "ignition cell out of bounds");
  current(config.ignition) = 0.0;
  out.fire_lines.push_back(current);

  firelib::Scenario scenario = config.hidden;
  for (int step = 1; step <= config.steps; ++step) {
    out.scenario_at[static_cast<std::size_t>(step)] = scenario;
    const double horizon = config.step_minutes * step;
    current =
        propagator.propagate(env, scenario, current, horizon, workspace);
    out.fire_lines.push_back(
        observe(current, horizon, config.observation_noise, rng));
    scenario = drift_scenario(scenario, config.drift_sigma, rng);
  }
  return out;
}

}  // namespace essns::synth
