#include <gtest/gtest.h>

#include <optional>

#include "common/error.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"

namespace essns::firelib {
namespace {

Scenario windy_scenario() {
  Scenario s;
  s.model = 1;
  s.wind_speed = 10.0;
  s.wind_dir = 45.0;
  s.m1 = 6.0;
  s.m10 = 8.0;
  s.m100 = 10.0;
  s.mherb = 60.0;
  return s;
}

Scenario calm_scenario() {
  Scenario s;
  s.model = 5;
  s.wind_speed = 2.0;
  s.wind_dir = 200.0;
  s.m1 = 12.0;
  s.m10 = 14.0;
  s.m100 = 16.0;
  s.mherb = 120.0;
  return s;
}

FireEnvironment heterogeneous_env(int size) {
  FireEnvironment env(size, size, 100.0);
  Grid<std::uint8_t> fuel(size, size, 1);
  Grid<double> slope(size, size, 10.0);
  Grid<double> aspect(size, size, 0.0);
  for (int r = 0; r < size; ++r) {
    for (int c = 0; c < size; ++c) {
      fuel(r, c) = (r + c) % 2 == 0 ? 1 : 5;
      aspect(r, c) = (r * 31 + c * 17) % 360;
    }
  }
  env.set_fuel_map(std::move(fuel));
  env.set_topography(std::move(slope), std::move(aspect));
  return env;
}

TEST(PropagationWorkspaceTest, PointIgnitionMatchesFreshPropagation) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env(32, 32, 100.0);
  const std::vector<CellIndex> ignition{{16, 16}};

  const IgnitionMap fresh =
      propagator.propagate(env, windy_scenario(), ignition, 120.0);
  PropagationWorkspace workspace;
  const IgnitionMap& reused =
      propagator.propagate(env, windy_scenario(), ignition, 120.0, workspace);
  EXPECT_EQ(fresh, reused);
}

TEST(PropagationWorkspaceTest, ReuseAcrossScenariosIsBitIdentical) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env(32, 32, 100.0);
  const std::vector<CellIndex> ignition{{16, 16}};
  const std::vector<Scenario> scenarios{windy_scenario(), calm_scenario(),
                                        windy_scenario()};

  // One workspace reused across all calls: each result must match a
  // fresh-state propagation of the same inputs (no state leaks through).
  PropagationWorkspace workspace;
  for (const Scenario& scenario : scenarios) {
    const IgnitionMap fresh =
        propagator.propagate(env, scenario, ignition, 120.0);
    const IgnitionMap& reused =
        propagator.propagate(env, scenario, ignition, 120.0, workspace);
    EXPECT_EQ(fresh, reused);
  }
}

TEST(PropagationWorkspaceTest, ReuseOnHeterogeneousTerrain) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env = heterogeneous_env(24);
  const std::vector<CellIndex> ignition{{12, 12}};

  PropagationWorkspace workspace;
  for (const Scenario& scenario : {windy_scenario(), calm_scenario()}) {
    const IgnitionMap fresh =
        propagator.propagate(env, scenario, ignition, 90.0);
    const IgnitionMap& reused =
        propagator.propagate(env, scenario, ignition, 90.0, workspace);
    EXPECT_EQ(fresh, reused);
  }
}

TEST(PropagationWorkspaceTest, ContinuationFromInitialMapMatches) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env(32, 32, 100.0);

  const IgnitionMap first =
      propagator.propagate(env, windy_scenario(), {{16, 16}}, 60.0);
  const IgnitionMap fresh =
      propagator.propagate(env, calm_scenario(), first, 120.0);

  PropagationWorkspace workspace;
  // Dirty the workspace with an unrelated run first.
  propagator.propagate(env, calm_scenario(), {{2, 2}}, 30.0, workspace);
  const IgnitionMap& reused =
      propagator.propagate(env, calm_scenario(), first, 120.0, workspace);
  EXPECT_EQ(fresh, reused);
}

TEST(PropagationWorkspaceTest, AdaptsToDifferentGridSizes) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  PropagationWorkspace workspace;
  for (int size : {16, 48, 24}) {
    const FireEnvironment env(size, size, 100.0);
    const std::vector<CellIndex> ignition{{size / 2, size / 2}};
    const IgnitionMap fresh =
        propagator.propagate(env, windy_scenario(), ignition, 60.0);
    const IgnitionMap& reused =
        propagator.propagate(env, windy_scenario(), ignition, 60.0, workspace);
    EXPECT_EQ(fresh, reused);
  }
}

TEST(PropagationWorkspaceTest, LastMapExposesMostRecentResult) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env(16, 16, 100.0);
  PropagationWorkspace workspace;
  const IgnitionMap& result =
      propagator.propagate(env, windy_scenario(), {{8, 8}}, 45.0, workspace);
  EXPECT_EQ(&result, &workspace.last_map());
  EXPECT_EQ(workspace.last_map()(8, 8), 0.0);
}

TEST(PropagationWorkspaceTest, RejectsOutOfBoundsIgnition) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env(16, 16, 100.0);
  PropagationWorkspace workspace;
  EXPECT_THROW(
      propagator.propagate(env, windy_scenario(), {{99, 0}}, 45.0, workspace),
      InvalidArgument);
}

// --- DEM terrain memo ------------------------------------------------------
// The workspace keeps per-cell slope ratio / upslope azimuth slabs keyed by
// FireEnvironment::topography_id(). Each case below drives ONE workspace
// through a sequence that would expose a stale slab; every result must match
// a fresh workspace and the reference sweep, under both queue disciplines.

void fill_terrain(FireEnvironment& env, int variant) {
  const int rows = env.rows();
  const int cols = env.cols();
  Grid<double> slope(rows, cols, 0.0);
  Grid<double> aspect(rows, cols, 0.0);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      slope(r, c) = (r * (7 + variant) + c * (3 + 2 * variant)) % 35;
      aspect(r, c) = (r * 29 + c * (11 + 40 * variant)) % 360;
    }
  }
  env.set_topography(std::move(slope), std::move(aspect));
}

FireEnvironment dem_terrain(int size, int variant) {
  FireEnvironment env(size, size, 100.0);
  fill_terrain(env, variant);
  return env;
}

struct MemoStep {
  const FireEnvironment* env;
  Scenario scenario;
  double horizon;
  const IgnitionMap* start = nullptr;  ///< continuation when set
};

/// Runs `steps` through one shared workspace per queue discipline; returns
/// the shared-workspace maps of the dial run.
std::vector<IgnitionMap> expect_memo_sequence_exact(
    const std::vector<MemoStep>& steps) {
  const FireSpreadModel model;
  std::vector<IgnitionMap> results;
  for (const SweepQueue queue : {SweepQueue::kHeap, SweepQueue::kDial}) {
    FirePropagator fast(model);
    fast.set_sweep_queue(queue);
    FirePropagator reference(model);
    reference.set_reference_sweep(true);
    reference.set_sweep_queue(queue);
    PropagationWorkspace shared;
    results.clear();
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const MemoStep& step = steps[i];
      const FireEnvironment& env = *step.env;
      const std::vector<CellIndex> ignition{{env.rows() / 2, env.cols() / 3}};
      IgnitionMap got, fresh, want;
      if (step.start) {
        got = fast.propagate(env, step.scenario, *step.start, step.horizon,
                             shared);
        fresh = fast.propagate(env, step.scenario, *step.start, step.horizon);
        want = reference.propagate(env, step.scenario, *step.start,
                                   step.horizon);
      } else {
        got = fast.propagate(env, step.scenario, ignition, step.horizon,
                             shared);
        fresh = fast.propagate(env, step.scenario, ignition, step.horizon);
        want = reference.propagate(env, step.scenario, ignition,
                                   step.horizon);
      }
      EXPECT_EQ(got, fresh) << "step " << i << " queue "
                            << static_cast<int>(queue);
      EXPECT_EQ(got, want) << "step " << i << " queue "
                           << static_cast<int>(queue);
      results.push_back(std::move(got));
    }
  }
  return results;
}

TEST(PropagationWorkspaceTest, TopographyIdsAreUniqueAndSharedByCopies) {
  const FireEnvironment flat(8, 8, 100.0);
  EXPECT_EQ(flat.topography_id(), 0u);
  FireEnvironment a = dem_terrain(8, 0);
  const FireEnvironment b = dem_terrain(8, 0);
  EXPECT_NE(a.topography_id(), 0u);
  EXPECT_NE(a.topography_id(), b.topography_id());
  FireEnvironment copy = a;
  EXPECT_EQ(copy.topography_id(), a.topography_id());
  const std::uint64_t before = a.topography_id();
  fill_terrain(a, 0);  // same grids, new call: still a new identity
  EXPECT_NE(a.topography_id(), before);
}

TEST(PropagationWorkspaceTest, TerrainMemoAlternatingSameSizeDems) {
  const FireEnvironment a = dem_terrain(24, 0);
  const FireEnvironment b = dem_terrain(24, 1);
  const std::vector<IgnitionMap> maps = expect_memo_sequence_exact(
      {{&a, windy_scenario(), 90.0},
       {&b, windy_scenario(), 90.0},
       {&a, calm_scenario(), 90.0},
       {&b, windy_scenario(), 90.0},
       {&a, windy_scenario(), 90.0}});
  EXPECT_NE(maps[0], maps[1]);  // the terrains really differ
  EXPECT_EQ(maps[0], maps[4]);
}

TEST(PropagationWorkspaceTest, TerrainMemoCopiedEnvironmentRetopographied) {
  const FireEnvironment original = dem_terrain(24, 0);
  FireEnvironment copy = original;
  fill_terrain(copy, 1);
  ASSERT_NE(copy.topography_id(), original.topography_id());
  const std::vector<IgnitionMap> maps = expect_memo_sequence_exact(
      {{&original, windy_scenario(), 90.0},
       {&copy, windy_scenario(), 90.0},
       {&original, windy_scenario(), 90.0}});
  EXPECT_NE(maps[0], maps[1]);
}

TEST(PropagationWorkspaceTest, TerrainMemoUniformDemUniform) {
  const FireEnvironment flat(24, 24, 100.0);
  const FireEnvironment hills = dem_terrain(24, 1);
  const FireEnvironment small_hills = dem_terrain(16, 1);
  expect_memo_sequence_exact({{&flat, windy_scenario(), 90.0},
                              {&hills, windy_scenario(), 90.0},
                              {&flat, calm_scenario(), 90.0},
                              {&small_hills, windy_scenario(), 90.0},
                              {&hills, calm_scenario(), 90.0},
                              {&flat, windy_scenario(), 90.0}});
}

TEST(PropagationWorkspaceTest, TerrainMemoContinuationUnderFasterScenario) {
  const FireSpreadModel model;
  const FirePropagator propagator(model);
  const FireEnvironment env = dem_terrain(32, 0);
  // The previous step's fire line, grown under the calm scenario; the
  // windy one re-reaches many of its cells sooner, so relaxations must
  // lower seeded times.
  const IgnitionMap rfl =
      propagator.propagate(env, calm_scenario(), {{16, 10}}, 80.0);
  const std::vector<IgnitionMap> maps = expect_memo_sequence_exact(
      {{&env, calm_scenario(), 60.0},
       {&env, windy_scenario(), 160.0, &rfl},
       {&env, windy_scenario(), 160.0, &rfl}});
  std::size_t lowered = 0;
  for (std::size_t i = 0; i < rfl.size(); ++i)
    if (rfl.data()[i] < kNeverIgnited && maps[1].data()[i] < rfl.data()[i])
      ++lowered;
  EXPECT_GT(lowered, 0u);
}

}  // namespace
}  // namespace essns::firelib
