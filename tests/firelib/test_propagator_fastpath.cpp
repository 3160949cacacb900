// Equivalence property tests for the precomputed-field sweep fast paths:
// uniform-topography travel-time tables and the DEM path (spread base per
// fuel model, terrain slabs per environment) must reproduce the reference (per-pop behavior + trig) sweep bit for bit,
// over randomized scenarios, terrains and horizons.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "firelib/batch_sweep.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/scenario.hpp"

namespace essns::firelib {
namespace {

FireEnvironment uniform_env(int size) { return FireEnvironment(size, size, 100.0); }

FireEnvironment fuel_mosaic_env(int size) {
  FireEnvironment env(size, size, 100.0);
  Grid<std::uint8_t> fuel(size, size, 1);
  for (int r = 0; r < size; ++r)
    for (int c = 0; c < size; ++c) {
      const int code = (r * 7 + c * 3) % 15;
      fuel(r, c) = static_cast<std::uint8_t>(code > 13 ? 0 : code);  // 0 = rock
    }
  env.set_fuel_map(std::move(fuel));
  return env;
}

FireEnvironment dem_env(int size, bool with_fuel) {
  FireEnvironment env(size, size, 100.0);
  Grid<double> slope(size, size, 0.0);
  Grid<double> aspect(size, size, 0.0);
  for (int r = 0; r < size; ++r)
    for (int c = 0; c < size; ++c) {
      slope(r, c) = (r * 13 + c * 5) % 40;
      aspect(r, c) = (r * 31 + c * 17) % 360;
    }
  env.set_topography(std::move(slope), std::move(aspect));
  if (with_fuel) {
    Grid<std::uint8_t> fuel(size, size, 1);
    for (int r = 0; r < size; ++r)
      for (int c = 0; c < size; ++c)
        fuel(r, c) = static_cast<std::uint8_t>((r + 2 * c) % 14);
    env.set_fuel_map(std::move(fuel));
  }
  return env;
}

void expect_fast_matches_reference(const FireEnvironment& env) {
  const FireSpreadModel model;
  FirePropagator fast(model);
  FirePropagator reference(model);
  reference.set_reference_sweep(true);
  ASSERT_FALSE(fast.reference_sweep());
  ASSERT_TRUE(reference.reference_sweep());

  const auto& space = ScenarioSpace::table1();
  Rng rng(2022);
  PropagationWorkspace fast_ws;
  PropagationWorkspace reference_ws;
  for (int trial = 0; trial < 25; ++trial) {
    const Scenario scenario = space.sample(rng);
    const double horizon = rng.uniform(10.0, 300.0);
    const std::vector<CellIndex> ignition{
        {static_cast<int>(rng.uniform_int(0, env.rows() - 1)),
         static_cast<int>(rng.uniform_int(0, env.cols() - 1))}};

    const IgnitionMap& got =
        fast.propagate(env, scenario, ignition, horizon, fast_ws);
    const IgnitionMap& want =
        reference.propagate(env, scenario, ignition, horizon, reference_ws);
    ASSERT_EQ(got, want) << "trial " << trial << " scenario "
                         << scenario.to_string();
  }
}

TEST(PropagatorFastPathTest, UniformTopographyMatchesReference) {
  expect_fast_matches_reference(uniform_env(32));
}

TEST(PropagatorFastPathTest, FuelMosaicMatchesReference) {
  expect_fast_matches_reference(fuel_mosaic_env(32));
}

TEST(PropagatorFastPathTest, DemMatchesReference) {
  expect_fast_matches_reference(dem_env(24, /*with_fuel=*/false));
}

TEST(PropagatorFastPathTest, DemWithFuelMosaicMatchesReference) {
  expect_fast_matches_reference(dem_env(24, /*with_fuel=*/true));
}

TEST(PropagatorFastPathTest, ContinuationFromMapMatchesReference) {
  const FireSpreadModel model;
  FirePropagator fast(model);
  FirePropagator reference(model);
  reference.set_reference_sweep(true);
  const FireEnvironment env = uniform_env(32);

  const auto& space = ScenarioSpace::table1();
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Scenario first = space.sample(rng);
    const Scenario second = space.sample(rng);
    const IgnitionMap start =
        fast.propagate(env, first, {{16, 16}}, 60.0);
    EXPECT_EQ(fast.propagate(env, second, start, 180.0),
              reference.propagate(env, second, start, 180.0))
        << "trial " << trial;
  }
}

TEST(PropagatorFastPathTest, RejectsOutOfCatalogFuelCodes) {
  // The sweep indexes fixed 14-entry per-model tables; codes above the
  // standard catalog must be rejected at set_fuel_map, not read out of
  // bounds at propagation time.
  FireEnvironment env(8, 8, 100.0);
  Grid<std::uint8_t> fuel(8, 8, 1);
  fuel(3, 3) = 14;
  EXPECT_THROW(env.set_fuel_map(std::move(fuel)), InvalidArgument);
}

TEST(PropagatorFastPathTest, RejectsOutOfCatalogScenarioModel) {
  // Without a fuel map the scenario model indexes the sweep's 14-entry
  // per-model tables directly; an out-of-catalog model must throw on every
  // path instead of reading past them.
  const FireSpreadModel model;
  FirePropagator fast(model);
  FirePropagator reference(model);
  reference.set_reference_sweep(true);
  BatchSweep batched(model);
  const FireEnvironment uniform = uniform_env(12);
  const FireEnvironment dem = dem_env(12, /*with_fuel=*/false);
  const IgnitionMap start =
      fast.propagate(uniform, Scenario{}, {{6, 6}}, 10.0);
  // Warm workspaces: the tables past index 13 then hold live bytes, so an
  // unchecked read would not happen to see "not ready" and bail out.
  PropagationWorkspace fast_ws, reference_ws;
  for (const int bad : {14, 15, 200}) {
    Scenario s;
    s.model = bad;
    for (const FireEnvironment* env : {&uniform, &dem}) {
      fast.propagate(*env, Scenario{}, start, 60.0, fast_ws);
      reference.propagate(*env, Scenario{}, start, 60.0, reference_ws);
      EXPECT_THROW(fast.propagate(*env, s, start, 60.0, fast_ws),
                   InvalidArgument)
          << "model " << bad;
      EXPECT_THROW(reference.propagate(*env, s, start, 60.0, reference_ws),
                   InvalidArgument)
          << "model " << bad;
      EXPECT_THROW(batched.sweep(*env, {&s}, start, 60.0), InvalidArgument)
          << "model " << bad;
    }
  }
}

TEST(PropagatorFastPathTest, ZeroHorizonMatchesReference) {
  const FireSpreadModel model;
  FirePropagator fast(model);
  FirePropagator reference(model);
  reference.set_reference_sweep(true);
  const FireEnvironment env = uniform_env(16);
  Scenario s;
  s.model = 4;
  s.wind_speed = 8.0;
  EXPECT_EQ(fast.propagate(env, s, {{8, 8}}, 0.0),
            reference.propagate(env, s, {{8, 8}}, 0.0));
}

}  // namespace
}  // namespace essns::firelib
