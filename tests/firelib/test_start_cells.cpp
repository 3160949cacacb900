// StartCells: the start cells a continuation sweep seeds from, listed once
// per (start map, horizon). A sweep seeded from the list must equal the
// map-scanning reference propagator bit for bit, late start cells
// included: one stays never ignited unless the sweep lowers it to the
// horizon or below, and then it keeps the new time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/reference_propagator.hpp"
#include "sweep_fixtures.hpp"

namespace essns::firelib {
namespace {

Scenario windy() {
  Scenario s;
  s.model = 3;
  s.wind_speed = 15.0;
  s.wind_dir = 90.0;  // toward the east
  s.m1 = 6.0;
  s.m10 = 8.0;
  s.m100 = 10.0;
  s.mherb = 80.0;
  return s;
}

TEST(StartCells, ListsSeedsAndLateCellsInRowMajorOrder) {
  IgnitionMap map(3, 4, kNeverIgnited);
  map(0, 3) = 50.0;  // late
  map(1, 0) = 0.0;
  map(1, 2) = 20.0;  // exactly at the horizon: a seed
  map(2, 1) = 20.5;  // late
  map(2, 3) = 3.0;
  const StartCells starts = start_cells(map, 20.0);
  EXPECT_EQ(starts.rows, 3);
  EXPECT_EQ(starts.cols, 4);
  EXPECT_EQ(starts.horizon_min, 20.0);
  EXPECT_EQ(starts.seeds, (std::vector<std::uint32_t>{4, 6, 11}));
  EXPECT_EQ(starts.late, (std::vector<std::uint32_t>{3, 9}));
}

TEST(StartCells, RefusesANegativeStartTimeOrHorizon) {
  IgnitionMap map(4, 4, kNeverIgnited);
  map(2, 2) = -1.0;
  const auto message_of = [](auto&& call) {
    try {
      call();
    } catch (const InvalidArgument& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  const std::string negative = "initial ignition times must be non-negative";
  EXPECT_NE(message_of([&] { start_cells(map, 10.0); }).find(negative),
            std::string::npos);
  const FireSpreadModel model;
  const FireEnvironment env(4, 4, 100.0);
  EXPECT_NE(message_of([&] {
              FirePropagator(model).propagate(env, windy(), map, 10.0);
            }).find(negative),
            std::string::npos);
  map(2, 2) = 1.0;
  EXPECT_THROW(start_cells(map, -1.0), InvalidArgument);
}

TEST(StartCells, RefusesAListFromAnotherShape) {
  const FireSpreadModel model;
  const FireEnvironment env(8, 8, 100.0);
  IgnitionMap start(8, 8, kNeverIgnited);
  start(4, 4) = 0.0;
  PropagationWorkspace workspace;
  EXPECT_THROW(FirePropagator(model).propagate(
                   env, windy(), start,
                   start_cells(IgnitionMap(8, 9, kNeverIgnited), 30.0),
                   workspace),
               InvalidArgument);
}

TEST(StartCells, LateStartCellKeepsOnlyATimeTheSweepLowered) {
  // A fire at the centre, pushed east, and two late start cells: one the
  // sweep reaches by the horizon (just downwind) and one it does not (far
  // upwind). The first keeps the sweep's time, the second is reported
  // never ignited; both as the reference reports them.
  const FireSpreadModel model;
  const oracle::ReferencePropagator reference(model);
  for (const FireEnvironment& env :
       {fixtures::uniform_env(16), fixtures::dem_env(16, false)}) {
    IgnitionMap start(16, 16, kNeverIgnited);
    start(8, 8) = 0.0;
    start(8, 9) = 500.0;
    start(8, 0) = 500.0;
    const double horizon = 30.0;
    const StartCells starts = start_cells(start, horizon);
    ASSERT_EQ(starts.late.size(), 2u);

    PropagationWorkspace workspace;
    const IgnitionMap& got = FirePropagator(model).propagate(
        env, windy(), start, starts, workspace);
    EXPECT_EQ(got, reference.propagate(env, windy(), start, horizon));
    EXPECT_LE(got(8, 9), horizon);
    EXPECT_EQ(got(8, 0), kNeverIgnited);
    fixtures::expect_burned_record(workspace, horizon);
  }
}

TEST(StartCells, OneListServesManySweeps) {
  // The list depends on the start map and horizon only, so one list seeds
  // every scenario's sweep exactly as the map overload does.
  const FireSpreadModel model;
  const FirePropagator production(model);
  const oracle::ReferencePropagator reference(model);
  const auto& space = ScenarioSpace::table1();
  for (const FireEnvironment& env :
       {fixtures::fuel_mosaic_env(24), fixtures::dem_env(24, true)}) {
    Rng rng(41);
    const IgnitionMap start = production.propagate(
        env, space.sample(rng), std::vector<CellIndex>{{12, 12}}, 80.0);
    for (const double horizon : {40.0, 120.0}) {
      const StartCells starts = start_cells(start, horizon);
      PropagationWorkspace workspace;
      for (int i = 0; i < 8; ++i) {
        const Scenario scenario = space.sample(rng);
        production.propagate(env, scenario, start, starts, workspace);
        ASSERT_EQ(workspace.last_map(),
                  reference.propagate(env, scenario, start, horizon))
            << "horizon " << horizon << " " << scenario.to_string();
        fixtures::expect_burned_record(workspace, horizon);
      }
    }
  }
}

}  // namespace
}  // namespace essns::firelib
