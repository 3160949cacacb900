// Seed pruning on the uniform path: a start cell enters the sweep's queue
// only when it can improve an in-bounds, burnable neighbour by the horizon.
// Every case continues from a start map another scenario made, so the new
// sweep lowers times inside the old fire (a pruned start cell can still be
// reached later), and compares the production map and burned record with
// the reference propagator bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/reference_propagator.hpp"
#include "obs/metrics.hpp"

namespace essns::firelib {
namespace {

Scenario scenario(int model, double wind_speed, double wind_dir, double m1) {
  Scenario s;
  s.model = model;
  s.wind_speed = wind_speed;
  s.wind_dir = wind_dir;
  s.m1 = m1;
  s.m10 = m1 + 2.0;
  s.m100 = m1 + 4.0;
  s.mherb = 80.0;
  return s;
}

/// Slow start fire, then a fast one: the fast sweep lowers interior times.
Scenario slow() { return scenario(3, 1.0, 200.0, 14.0); }
Scenario fast() { return scenario(3, 12.0, 30.0, 14.0); }

/// Fuel mosaic on a uniform environment: unburnable cells (0), short grass
/// that cannot spread at 14% dead moisture (model 1, extinction at 12%),
/// and tall grass that can (model 3, extinction at 25%).
FireEnvironment mosaic(int size) {
  FireEnvironment env(size, size, 100.0);
  Grid<std::uint8_t> fuel(size, size, 3);
  for (int r = 0; r < size; ++r)
    for (int c = 0; c < size; ++c) {
      if ((r * 7 + c * 3) % 11 == 0) fuel(r, c) = 0;
      else if ((r + 2 * c) % 7 == 0) fuel(r, c) = 1;
    }
  env.set_fuel_map(std::move(fuel));
  return env;
}

struct Counts {
  std::uint64_t pruned = 0;
  std::uint64_t pushes = 0;
  std::size_t lowered = 0;  ///< start cells the sweep gave an earlier time
};

/// Continue from `start` under `scenario` to `horizon` and require the
/// production sweep, under the scalar and the CPU-picked relax kernel, to
/// match the reference; returns its seed counters (equal under both).
Counts expect_matches_reference(const FireEnvironment& env,
                                const Scenario& scenario,
                                const IgnitionMap& start, double horizon) {
  const FireSpreadModel model;
  const oracle::ReferencePropagator reference(model);
  const IgnitionMap want = reference.propagate(env, scenario, start, horizon);
  const BurnedCells burned = burned_cells(want, horizon);
  std::size_t lowered = 0;
  for (std::size_t i = 0; i < start.size(); ++i)
    lowered += start.data()[i] < kNeverIgnited &&
               want.data()[i] < start.data()[i];

  Counts counts;
  for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kAuto}) {
    SCOPED_TRACE(mode == simd::Mode::kScalar ? "scalar kernel" : "auto kernel");
    FirePropagator production(model);
    production.set_simd_mode(mode);
    PropagationWorkspace workspace;
    obs::MetricsRegistry registry;
    obs::MetricsRegistry* const previous = obs::metrics_registry();
    obs::install_metrics_registry(&registry);
    production.propagate(env, scenario, start, horizon, workspace);
    obs::install_metrics_registry(previous);

    EXPECT_EQ(workspace.last_map(), want);
    EXPECT_EQ(workspace.last_burned().words, burned.words);
    EXPECT_EQ(workspace.last_burned().rows, burned.rows);
    EXPECT_EQ(workspace.last_burned().cols, burned.cols);
    const Counts got{registry.counter("sweep.seeds_pruned").value(),
                     registry.counter("sweep.pushes").value(), lowered};
    if (mode == simd::Mode::kScalar) {
      counts = got;
    } else {
      EXPECT_EQ(got.pruned, counts.pruned);
      EXPECT_EQ(got.pushes, counts.pushes);
    }
  }
  return counts;
}

/// A start map grown by `start_scenario` from ignitions at the centre, an
/// edge and a corner, to `start_horizon`.
IgnitionMap start_map(const FireEnvironment& env,
                      const Scenario& start_scenario, double start_horizon) {
  const FireSpreadModel model;
  const int last = env.rows() - 1;
  return FirePropagator(model).propagate(
      env, start_scenario,
      std::vector<CellIndex>{{env.rows() / 2, env.cols() / 2},
                             {0, env.cols() / 3},
                             {last, last},
                             {0, 0}},
      start_horizon);
}

TEST(SeedPruning, FuelMosaicWithUnburnableAndNonSpreadingCells) {
  const FireEnvironment env = mosaic(40);
  const IgnitionMap start = start_map(env, slow(), 120.0);
  const Counts counts = expect_matches_reference(env, fast(), start, 150.0);
  EXPECT_GT(counts.pruned, 0u) << "the burned interior should not be queued";
  EXPECT_GT(counts.lowered, 0u) << "the case should lower start times";
}

TEST(SeedPruning, NoFuelMapSharesTheScenarioModel) {
  const FireEnvironment env(32, 32, 100.0);
  const IgnitionMap start = start_map(env, slow(), 120.0);
  const Counts counts = expect_matches_reference(env, fast(), start, 150.0);
  EXPECT_GT(counts.pruned, 0u);
  EXPECT_GT(counts.lowered, 0u);
}

TEST(SeedPruning, StartTimesPastTheHorizonAreNeitherSeededNorBurned) {
  const FireEnvironment env = mosaic(32);
  // Times up to 120 min, continued only to 60: every start cell past 60 is
  // clamped out unless the new sweep reaches it by then.
  const IgnitionMap start = start_map(env, slow(), 120.0);
  expect_matches_reference(env, fast(), start, 60.0);
  // A horizon before every start time: nothing burns.
  IgnitionMap late = start;
  for (double& t : late)
    if (t < kNeverIgnited) t += 500.0;
  const Counts counts = expect_matches_reference(env, fast(), late, 100.0);
  EXPECT_EQ(counts.pruned, 0u);
  EXPECT_EQ(counts.pushes, 0u);
}

TEST(SeedPruning, NonSpreadingScenarioPrunesEveryStartCell) {
  const FireEnvironment env(24, 24, 100.0);
  const IgnitionMap start = start_map(env, slow(), 90.0);
  // Model 1 at 14% dead moisture is past its extinction moisture.
  const Counts counts = expect_matches_reference(
      env, scenario(1, 12.0, 30.0, 14.0), start, 150.0);
  EXPECT_GT(counts.pruned, 0u);
  EXPECT_EQ(counts.pushes, 0u);
}

TEST(SeedPruning, EdgeAndCornerStartCellsAlone) {
  // Start cells on every edge and corner of a small uniform grid, at mixed
  // times, so the seeding test's bounds checks decide every prune.
  const FireEnvironment env = mosaic(12);
  IgnitionMap start(12, 12, kNeverIgnited);
  const int last = 11;
  for (const auto& [r, c, t] : std::vector<std::tuple<int, int, double>>{
           {0, 0, 0.0}, {0, last, 5.0}, {last, 0, 0.0}, {last, last, 40.0},
           {0, 5, 10.0}, {last, 6, 0.0}, {4, 0, 20.0}, {7, last, 0.0}})
    start(r, c) = t;
  expect_matches_reference(env, fast(), start, 45.0);
  expect_matches_reference(env, slow(), start, 45.0);
}

TEST(SeedPruning, AnImprovementOfOneUlpIsSeeded) {
  // A start cell whose neighbours already hold its arrival exactly (a tie:
  // nothing to improve) or one ulp later (it must still lower them).
  const FireEnvironment env(9, 9, 100.0);
  const FireSpreadModel model;
  const IgnitionMap single = FirePropagator(model).propagate(
      env, fast(), std::vector<CellIndex>{{4, 4}}, 1000.0);
  IgnitionMap start(9, 9, kNeverIgnited);
  start(4, 4) = 0.0;
  for (const auto& [r, c] : std::vector<std::pair<int, int>>{
           {3, 4}, {5, 4}, {4, 3}, {4, 5}})
    start(r, c) = single(r, c);  // ties
  for (const auto& [r, c] : std::vector<std::pair<int, int>>{
           {3, 3}, {3, 5}, {5, 3}, {5, 5}})
    start(r, c) = std::nextafter(single(r, c), kNeverIgnited);
  const Counts counts = expect_matches_reference(env, fast(), start, 1000.0);
  EXPECT_EQ(counts.lowered, 4u);
}

TEST(SeedPruning, DemPathSeedsEveryStartCell) {
  FireEnvironment env(24, 24, 100.0);
  env.set_topography(Grid<double>(24, 24, 15.0), Grid<double>(24, 24, 90.0));
  const IgnitionMap start = start_map(env, slow(), 120.0);
  const Counts counts = expect_matches_reference(env, fast(), start, 150.0);
  EXPECT_EQ(counts.pruned, 0u);
}

}  // namespace
}  // namespace essns::firelib
