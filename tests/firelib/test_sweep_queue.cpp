// Equivalence property tests for the sweep-queue disciplines: the bucketed
// dial/calendar queue must reproduce the retained binary-heap sweep bit for
// bit on every path (reference / uniform travel-time tables / DEM per-cell
// wind/slope composition), over randomized scenarios, terrains, horizons and
// continuation maps — and across the whole default campaign catalog — and
// each sweep's burned-cell record must equal its clamped map's. Also pins
// the horizon-clamp contract for pre-seeded initial maps, identically for
// every queue x path combination.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/scenario.hpp"
#include "synth/catalog.hpp"

namespace essns::firelib {
namespace {

FireEnvironment uniform_env(int size) {
  return FireEnvironment(size, size, 100.0);
}

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

Scenario calm_scenario() {
  Scenario s;
  s.model = 1;
  s.wind_speed = 0.0;  // symmetric spread: maximal time ties on the lattice
  s.wind_dir = 0.0;
  s.m1 = 5.0;
  s.m10 = 6.0;
  s.m100 = 8.0;
  s.mherb = 40.0;
  s.slope = 0.0;
  s.aspect = 0.0;
  return s;
}

/// The sweep's own burned-cell record of its last propagate(): bit i set
/// exactly when the clamped map has cell i ignited by the horizon, and no
/// bit set past the last cell.
void expect_burned_record(const PropagationWorkspace& workspace,
                          double horizon) {
  const BurnedCells& burned = workspace.last_burned();
  const IgnitionMap& map = workspace.last_map();
  ASSERT_EQ(burned.rows, map.rows());
  ASSERT_EQ(burned.cols, map.cols());
  ASSERT_EQ(burned.words.size(), (map.size() + 63) / 64);
  for (std::size_t i = 0; i < burned.words.size() * 64; ++i)
    ASSERT_EQ((burned.words[i / 64] >> (i % 64)) & 1u,
              i < map.size() && map.data()[i] <= horizon ? 1u : 0u)
        << "cell " << i << " of " << map.size();
}

/// Heap and dial sweeps over the same inputs must be bit-identical, on the
/// fast path and on the reference path, from point ignitions and from
/// continuation maps (with a seed beyond the horizon) — and each sweep's
/// burned-cell record must match its map.
void expect_queues_match(const FireEnvironment& env) {
  const FireSpreadModel model;
  for (const bool reference : {false, true}) {
    FirePropagator heap(model);
    heap.set_sweep_queue(SweepQueue::kHeap);
    heap.set_reference_sweep(reference);
    FirePropagator dial(model);
    dial.set_sweep_queue(SweepQueue::kDial);
    dial.set_reference_sweep(reference);

    const auto& space = ScenarioSpace::table1();
    Rng rng(4242);
    PropagationWorkspace heap_ws, dial_ws;
    for (int trial = 0; trial < 20; ++trial) {
      const Scenario scenario = space.sample(rng);
      const double horizon = rng.uniform(10.0, 300.0);
      const std::vector<CellIndex> ignition{
          {static_cast<int>(rng.uniform_int(0, env.rows() - 1)),
           static_cast<int>(rng.uniform_int(0, env.cols() - 1))}};

      const IgnitionMap& from_heap =
          heap.propagate(env, scenario, ignition, horizon, heap_ws);
      const IgnitionMap& from_dial =
          dial.propagate(env, scenario, ignition, horizon, dial_ws);
      ASSERT_EQ(from_heap, from_dial)
          << (reference ? "reference" : "fast") << " trial " << trial
          << " scenario " << scenario.to_string();
      expect_burned_record(heap_ws, horizon);
      expect_burned_record(dial_ws, horizon);

      // Continue from the heap result with a fresh scenario: many finite
      // seeds at once, the dial queue's bucket-spread worst case.
      const Scenario next = space.sample(rng);
      IgnitionMap start = from_heap;
      if (start(0, 0) == kNeverIgnited) start(0, 0) = horizon + 1000.0;
      ASSERT_EQ(heap.propagate(env, next, start, horizon + 60.0, heap_ws),
                dial.propagate(env, next, start, horizon + 60.0, dial_ws))
          << (reference ? "reference" : "fast") << " continuation trial "
          << trial;
      expect_burned_record(heap_ws, horizon + 60.0);
      expect_burned_record(dial_ws, horizon + 60.0);
    }
  }
}

TEST(SweepQueueTest, DialIsDefaultAndSelectable) {
  const FireSpreadModel model;
  FirePropagator propagator(model);
  EXPECT_EQ(propagator.sweep_queue(), SweepQueue::kDial);
  propagator.set_sweep_queue(SweepQueue::kHeap);
  EXPECT_EQ(propagator.sweep_queue(), SweepQueue::kHeap);
  propagator.set_sweep_queue(SweepQueue::kDial);
  EXPECT_EQ(propagator.sweep_queue(), SweepQueue::kDial);
}

TEST(SweepQueueTest, UniformTopographyHeapMatchesDial) {
  expect_queues_match(uniform_env(32));
}

TEST(SweepQueueTest, FuelMosaicHeapMatchesDial) {
  expect_queues_match(fuel_mosaic_env(32));
}

TEST(SweepQueueTest, DemHeapMatchesDial) {
  expect_queues_match(dem_env(24, /*with_fuel=*/false));
}

TEST(SweepQueueTest, DemWithFuelMosaicHeapMatchesDial) {
  expect_queues_match(dem_env(24, /*with_fuel=*/true));
}

TEST(SweepQueueTest, GridsOffTheWordSizeMatch) {
  // Cell counts that leave the burned-cell record's last word partial.
  for (const int size : {13, 23}) {
    SCOPED_TRACE(size);
    expect_queues_match(uniform_env(size));
    expect_queues_match(fuel_mosaic_env(size));
    expect_queues_match(dem_env(size, /*with_fuel=*/true));
  }
}

TEST(SweepQueueTest, TieHeavyCalmSpreadMatches) {
  // Zero wind + zero slope makes the 8-symmetric lattice produce the maximum
  // number of exactly-equal arrival times — the tie-break stress case.
  const FireSpreadModel model;
  FirePropagator heap(model);
  heap.set_sweep_queue(SweepQueue::kHeap);
  FirePropagator dial(model);
  dial.set_sweep_queue(SweepQueue::kDial);
  const FireEnvironment env = uniform_env(41);
  const Scenario s = calm_scenario();
  EXPECT_EQ(heap.propagate(env, s, {{20, 20}}, 240.0),
            dial.propagate(env, s, {{20, 20}}, 240.0));
  // Multiple simultaneous ignitions collide fronts at equal times.
  const std::vector<CellIndex> many{{0, 0}, {0, 40}, {40, 0}, {40, 40}, {20, 20}};
  EXPECT_EQ(heap.propagate(env, s, many, 240.0),
            dial.propagate(env, s, many, 240.0));
}

TEST(SweepQueueTest, DenormalHorizonMatches) {
  // A horizon so tiny that num_buckets / horizon overflows to infinity must
  // degenerate to a single bucket, not compute a NaN bucket index.
  const FireSpreadModel model;
  FirePropagator heap(model);
  heap.set_sweep_queue(SweepQueue::kHeap);
  FirePropagator dial(model);
  dial.set_sweep_queue(SweepQueue::kDial);
  const FireEnvironment env = uniform_env(16);
  const Scenario s = calm_scenario();
  const IgnitionMap from_heap = heap.propagate(env, s, {{8, 8}}, 1e-320);
  EXPECT_EQ(from_heap, dial.propagate(env, s, {{8, 8}}, 1e-320));
  EXPECT_EQ(from_heap(8, 8), 0.0);
}

TEST(SweepQueueTest, ZeroHorizonMatches) {
  const FireSpreadModel model;
  FirePropagator heap(model);
  heap.set_sweep_queue(SweepQueue::kHeap);
  FirePropagator dial(model);
  dial.set_sweep_queue(SweepQueue::kDial);
  const FireEnvironment env = uniform_env(16);
  Scenario s;
  s.model = 4;
  s.wind_speed = 8.0;
  const IgnitionMap from_heap = heap.propagate(env, s, {{8, 8}}, 0.0);
  EXPECT_EQ(from_heap, dial.propagate(env, s, {{8, 8}}, 0.0));
  EXPECT_EQ(from_heap(8, 8), 0.0);
}

TEST(SweepQueueTest, DefaultCampaignCatalogIsBitIdentical) {
  // Acceptance sweep: every workload of the default campaign catalog,
  // heap vs dial on the shipping fast path.
  const std::vector<synth::Workload> catalog =
      synth::generate_catalog(synth::CatalogSpec{});
  ASSERT_FALSE(catalog.empty());

  const FireSpreadModel model;
  FirePropagator heap(model);
  heap.set_sweep_queue(SweepQueue::kHeap);
  FirePropagator dial(model);
  dial.set_sweep_queue(SweepQueue::kDial);

  const auto& space = ScenarioSpace::table1();
  Rng rng(2022);
  PropagationWorkspace heap_ws, dial_ws;
  for (const synth::Workload& workload : catalog) {
    const FireEnvironment& env = workload.environment;
    const std::vector<CellIndex> ignition{{env.rows() / 2, env.cols() / 2}};
    for (int trial = 0; trial < 3; ++trial) {
      const Scenario scenario = space.sample(rng);
      const double horizon = rng.uniform(30.0, 180.0);
      ASSERT_EQ(heap.propagate(env, scenario, ignition, horizon, heap_ws),
                dial.propagate(env, scenario, ignition, horizon, dial_ws))
          << workload.name << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// Horizon-clamp contract for pre-seeded initial maps: finite initial times
// greater than the horizon are erased to kNeverIgnited in the output; times
// at or below the horizon are kept (and spread). Pinned identically for
// heap and dial sweeps, reference and fast paths.
// ---------------------------------------------------------------------------

using QueueAndPath = std::tuple<SweepQueue, bool>;

class HorizonClampTest : public ::testing::TestWithParam<QueueAndPath> {};

std::string queue_and_path_name(
    const ::testing::TestParamInfo<QueueAndPath>& info) {
  const SweepQueue queue = std::get<0>(info.param);
  const bool reference = std::get<1>(info.param);
  return std::string(queue == SweepQueue::kHeap ? "Heap" : "Dial") +
         (reference ? "Reference" : "Fast");
}

TEST_P(HorizonClampTest, InitialTimesBeyondHorizonAreErased) {
  const auto [queue, reference] = GetParam();
  const FireSpreadModel model;
  FirePropagator propagator(model);
  propagator.set_sweep_queue(queue);
  propagator.set_reference_sweep(reference);

  for (const bool dem : {false, true}) {
    const FireEnvironment env =
        dem ? dem_env(16, /*with_fuel=*/false) : uniform_env(16);
    IgnitionMap initial(16, 16, kNeverIgnited);
    initial(2, 2) = 0.0;     // active source, spreads
    initial(8, 8) = 100.0;   // exactly at the horizon: kept
    initial(12, 12) = 100.5; // beyond the horizon: erased
    initial(14, 14) = 5000.0;  // far beyond: erased

    Scenario s = calm_scenario();
    const IgnitionMap out = propagator.propagate(env, s, initial, 100.0);

    EXPECT_EQ(out(2, 2), 0.0);
    EXPECT_EQ(out(8, 8), 100.0);
    EXPECT_EQ(out(12, 12), kNeverIgnited) << "dem=" << dem;
    EXPECT_EQ(out(14, 14), kNeverIgnited) << "dem=" << dem;
    // The active source did spread somewhere within the horizon.
    EXPECT_GT(burned_count(out, 100.0), 1u);
    // Nothing in the output exceeds the horizon.
    for (const double time : out)
      EXPECT_TRUE(time <= 100.0 || time == kNeverIgnited);
  }
}

TEST_P(HorizonClampTest, AllSeedsBeyondHorizonYieldEmptyMap) {
  const auto [queue, reference] = GetParam();
  const FireSpreadModel model;
  FirePropagator propagator(model);
  propagator.set_sweep_queue(queue);
  propagator.set_reference_sweep(reference);

  const FireEnvironment env = uniform_env(8);
  IgnitionMap initial(8, 8, kNeverIgnited);
  initial(4, 4) = 61.0;
  const IgnitionMap out =
      propagator.propagate(env, calm_scenario(), initial, 60.0);
  for (const double time : out) EXPECT_EQ(time, kNeverIgnited);
}

INSTANTIATE_TEST_SUITE_P(
    QueuesAndPaths, HorizonClampTest,
    ::testing::Combine(::testing::Values(SweepQueue::kHeap, SweepQueue::kDial),
                       ::testing::Bool()),
    queue_and_path_name);

}  // namespace
}  // namespace essns::firelib
