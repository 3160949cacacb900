// StartCells: the start cells a continuation sweep seeds from, listed once
// per (start map, horizon). A sweep seeded from the list must equal the
// map-scanning reference propagator bit for bit, late start cells
// included: one stays never ignited unless the sweep lowers it to the
// horizon or below, and then it keeps the new time. Settled start cells
// (no neighbour later than themselves) are never queued, and that must not
// change a bit of any sweep, from flat observed lines or graded maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/reference_propagator.hpp"
#include "obs/metrics.hpp"
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

TEST(StartCells, ListsCellsWithNoLaterNeighbourAsSettled) {
  // A 3x3 block at 10 min in the corner of a 4x5 map, next to cells at 4
  // and 5 min: a block cell is settled unless it touches an unburned cell.
  // (0, 4) at 5 min has neighbours at 4 and 5 min only, so it is settled
  // too; (0, 3), (1, 3) and (1, 4) touch a later cell, (3, 4) touches
  // unburned cells, and (2, 4) is past the horizon.
  IgnitionMap map(4, 5, kNeverIgnited);
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < 3; ++c) map(r, c) = 10.0;
  map(0, 3) = 5.0;
  map(1, 3) = 4.0;
  map(1, 4) = 5.0;
  map(0, 4) = 5.0;
  map(2, 4) = 90.0;
  map(3, 4) = 1.0;
  const StartCells starts = start_cells(map, 60.0);
  EXPECT_EQ(starts.settled, (std::vector<std::uint32_t>{0, 1, 2, 4, 5, 6}));
  EXPECT_EQ(starts.seeds,
            (std::vector<std::uint32_t>{3, 7, 8, 9, 10, 11, 12, 19}));
  EXPECT_EQ(starts.late, (std::vector<std::uint32_t>{14}));
  // A single cell has no neighbour at all.
  EXPECT_EQ(start_cells(IgnitionMap(1, 1, 0.0), 5.0).settled,
            (std::vector<std::uint32_t>{0}));
}

TEST(BurnedRegion, IsTheBurnedCellsAtOneInstant) {
  IgnitionMap graded(5, 13, kNeverIgnited);  // 65 cells: two words
  graded(0, 0) = 0.0;
  graded(2, 7) = 3.5;
  graded(4, 12) = 7.0;  // the last cell, in the second word
  graded(3, 3) = 9.0;   // after the instant
  const IgnitionMap region = burned_region(burned_cells(graded, 8.0), 8.0);
  IgnitionMap want(5, 13, kNeverIgnited);
  want(0, 0) = want(2, 7) = want(4, 12) = 8.0;
  EXPECT_EQ(region, want);
  EXPECT_EQ(burned_cells(region, 8.0), burned_cells(graded, 8.0));
  BurnedCells short_words = burned_cells(graded, 8.0);
  short_words.words.pop_back();
  EXPECT_THROW(burned_region(short_words, 8.0), InvalidArgument);
  EXPECT_THROW(burned_region(burned_cells(graded, 8.0), -1.0),
               InvalidArgument);
}

/// Production sweeps of `scenario` from `start` to `horizon`, under the
/// scalar and the CPU-picked relax kernel and with the settled list folded
/// back into the seeds, must all equal the reference in map and burned
/// record. Returns the live pops of the scalar sweep with and without the
/// settled list.
std::pair<std::uint64_t, std::uint64_t> expect_settled_exact(
    const FireEnvironment& env, const Scenario& scenario,
    const IgnitionMap& start, double horizon) {
  const FireSpreadModel model;
  const IgnitionMap want =
      oracle::ReferencePropagator(model).propagate(env, scenario, start,
                                                   horizon);
  const BurnedCells want_burned = burned_cells(want, horizon);
  const StartCells starts = start_cells(start, horizon);
  StartCells unsettled = starts;
  unsettled.seeds.insert(unsettled.seeds.end(), starts.settled.begin(),
                         starts.settled.end());
  std::sort(unsettled.seeds.begin(), unsettled.seeds.end());
  unsettled.settled.clear();

  std::uint64_t pops[2] = {0, 0};
  for (const simd::Mode mode : {simd::Mode::kScalar, simd::Mode::kAuto}) {
    FirePropagator production(model);
    production.set_simd_mode(mode);
    for (const StartCells* list :
         std::initializer_list<const StartCells*>{&starts, &unsettled}) {
      SCOPED_TRACE(testing::Message()
                   << (mode == simd::Mode::kScalar ? "scalar" : "auto")
                   << (list == &starts ? ", settled" : ", all seeded"));
      PropagationWorkspace workspace;
      obs::MetricsRegistry registry;
      obs::MetricsRegistry* const previous = obs::metrics_registry();
      obs::install_metrics_registry(&registry);
      production.propagate(env, scenario, start, *list, workspace);
      obs::install_metrics_registry(previous);
      EXPECT_EQ(workspace.last_map(), want);
      EXPECT_EQ(workspace.last_burned(), want_burned);
      EXPECT_EQ(registry.counter("sweep.seeds_settled").value(),
                list->settled.size());
      if (mode == simd::Mode::kScalar)
        pops[list == &starts ? 0 : 1] =
            registry.counter("sweep.cells_popped").value();
    }
  }
  return {pops[0], pops[1]};
}

TEST(StartCells, SettledListChangesNoBitFromFlatOrGradedStarts) {
  // Uniform and DEM terrain, with and without fuel maps that hold
  // unburnable cells; graded start maps another scenario grew, the same
  // fires flattened to their instant (an observed line), and both with
  // start cells past the horizon; horizons before, at and after the start
  // instant.
  const FireSpreadModel model;
  const FirePropagator grower(model);
  const auto& space = ScenarioSpace::table1();
  std::size_t settled_seen = 0;
  std::size_t flat_cases = 0;
  for (const FireEnvironment& env :
       {fixtures::uniform_env(28), fixtures::fuel_mosaic_env(28),
        fixtures::dem_env(28, false), fixtures::dem_env(28, true)}) {
    Rng rng(77);
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(testing::Message() << "trial " << trial << ", "
                                      << (env.has_topography() ? "dem"
                                                               : "uniform"));
      const double instant = rng.uniform(40.0, 120.0);
      const IgnitionMap graded = grower.propagate(
          env, space.sample(rng),
          std::vector<CellIndex>{{14, 14}, {3, 20}, {27, 0}}, instant);
      const IgnitionMap flat =
          burned_region(burned_cells(graded, instant), instant);
      IgnitionMap with_late = flat;
      for (int c = 0; c < 28; c += 3) {
        if (with_late(7, c) == kNeverIgnited) with_late(7, c) = instant + 500.0;
        if (with_late(20, c) < kNeverIgnited) with_late(20, c) = instant + 30.0;
      }
      for (const IgnitionMap* start :
           std::initializer_list<const IgnitionMap*>{&graded, &flat,
                                                     &with_late}) {
        for (const double horizon :
             {instant * 0.5, instant, instant + 45.0, instant + 150.0}) {
          SCOPED_TRACE(testing::Message()
                       << (start == &graded ? "graded"
                           : start == &flat ? "flat" : "flat + late")
                       << ", horizon " << horizon);
          const Scenario scenario = space.sample(rng);
          const auto [settled_pops, seeded_pops] =
              expect_settled_exact(env, scenario, *start, horizon);
          EXPECT_LE(settled_pops, seeded_pops);
          const std::size_t settled =
              start_cells(*start, horizon).settled.size();
          settled_seen += settled;
          // The uniform path's seed pruning leaves a settled cell out of
          // the queue anyway; the DEM path queued every start cell.
          if (start == &flat && horizon > instant && settled > 0 &&
              env.has_topography()) {
            ++flat_cases;
            EXPECT_LT(settled_pops, seeded_pops)
                << "a flat line's interior should cost no pop";
          }
        }
      }
    }
  }
  EXPECT_GT(settled_seen, 0u);
  EXPECT_GT(flat_cases, 0u);
}

}  // namespace
}  // namespace essns::firelib
