// Equivalence property tests for the production sweep: its dial queue,
// uniform-topography travel-time tables and DEM path (spread base per fuel
// model, terrain slabs per environment) must reproduce the reference
// propagator (binary heap, per-pop behavior + trig) bit for bit, over
// randomized scenarios, terrains, horizons and continuation maps, on the
// uniform path and on the DEM path with its travel-time floor.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/scenario.hpp"
#include "obs/metrics.hpp"
#include "reference_propagator.hpp"
#include "sweep_fixtures.hpp"

namespace essns::firelib {
namespace {

using fixtures::dem_env;
using fixtures::expect_matches_reference;
using fixtures::fuel_mosaic_env;
using fixtures::uniform_env;

TEST(PropagatorFastPathTest, UniformTopographyMatchesReference) {
  expect_matches_reference(uniform_env(32));
}

TEST(PropagatorFastPathTest, FuelMosaicMatchesReference) {
  expect_matches_reference(fuel_mosaic_env(32));
}

TEST(PropagatorFastPathTest, DemMatchesReference) {
  expect_matches_reference(dem_env(24, /*with_fuel=*/false));
}

TEST(PropagatorFastPathTest, DemWithFuelMosaicMatchesReference) {
  expect_matches_reference(dem_env(24, /*with_fuel=*/true));
}

TEST(PropagatorFastPathTest, ContinuationFromMapMatchesReference) {
  const FireSpreadModel model;
  const FirePropagator fast(model);
  const oracle::ReferencePropagator reference(model);
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

TEST(PropagatorFastPathTest, DemContinuationFromMapMatchesReference) {
  // The campaign's shape on per-cell terrain with a fuel mosaic: a fire
  // line grown by one scenario, continued under a high-wind one to horizons
  // that cut the new front, one of them before the line's own last times
  // (late start cells). The DEM path's travel-time floor must leave the map
  // and the burned record exactly the reference's, seeded from the map or
  // from a shared start-cell list.
  const FireSpreadModel model;
  const FirePropagator fast(model);
  const oracle::ReferencePropagator reference(model);
  const FireEnvironment env = dem_env(32, /*with_fuel=*/true);
  obs::MetricsRegistry registry;
  struct Installed {
    obs::MetricsRegistry* previous = obs::metrics_registry();
    explicit Installed(obs::MetricsRegistry* r) {
      obs::install_metrics_registry(r);
    }
    ~Installed() { obs::install_metrics_registry(previous); }
  } installed(&registry);

  const auto& space = ScenarioSpace::table1();
  Rng rng(29);
  PropagationWorkspace workspace;
  for (int trial = 0; trial < 12; ++trial) {
    const Scenario first = space.sample(rng);
    Scenario next = space.sample(rng);
    next.wind_speed = rng.uniform(30.0, 80.0);
    const IgnitionMap start = fast.propagate(
        env, first, std::vector<CellIndex>{{16, 16}, {4, 27}, {28, 3}}, 90.0);
    for (const double horizon : {45.0, 100.0, 150.0}) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << " horizon "
                                      << horizon << " " << next.to_string());
      const IgnitionMap want = reference.propagate(env, next, start, horizon);
      const BurnedCells want_burned = burned_cells(want, horizon);
      fast.propagate(env, next, start, horizon, workspace);
      ASSERT_EQ(workspace.last_map(), want);
      ASSERT_EQ(workspace.last_burned(), want_burned);
      const StartCells starts = start_cells(start, horizon);
      fast.propagate(env, next, start, starts, workspace);
      ASSERT_EQ(workspace.last_map(), want);
      ASSERT_EQ(workspace.last_burned(), want_burned);
    }
  }
  EXPECT_GT(registry.counter("sweep.floor_rejects").value(), 0u);
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
  const FirePropagator fast(model);
  const oracle::ReferencePropagator reference(model);
  const FireEnvironment uniform = uniform_env(12);
  const FireEnvironment dem = dem_env(12, /*with_fuel=*/false);
  const IgnitionMap start =
      fast.propagate(uniform, Scenario{}, {{6, 6}}, 10.0);
  // A warm workspace: the tables past index 13 then hold live bytes, so an
  // unchecked read would not happen to see "not ready" and bail out.
  PropagationWorkspace fast_ws;
  for (const int bad : {14, 15, 200}) {
    Scenario s;
    s.model = bad;
    for (const FireEnvironment* env : {&uniform, &dem}) {
      fast.propagate(*env, Scenario{}, start, 60.0, fast_ws);
      EXPECT_THROW(fast.propagate(*env, s, start, 60.0, fast_ws),
                   InvalidArgument)
          << "model " << bad;
      EXPECT_THROW(reference.propagate(*env, s, start, 60.0),
                   InvalidArgument)
          << "model " << bad;
    }
  }
}

TEST(PropagatorFastPathTest, ZeroHorizonMatchesReference) {
  const FireSpreadModel model;
  const FirePropagator fast(model);
  const oracle::ReferencePropagator reference(model);
  const FireEnvironment env = uniform_env(16);
  Scenario s;
  s.model = 4;
  s.wind_speed = 8.0;
  const IgnitionMap out = fast.propagate(env, s, {{8, 8}}, 0.0);
  EXPECT_EQ(out, reference.propagate(env, s, {{8, 8}}, 0.0));
  EXPECT_EQ(out(8, 8), 0.0);
}

}  // namespace
}  // namespace essns::firelib
