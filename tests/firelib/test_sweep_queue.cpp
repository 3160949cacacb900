// Stress inputs for the sweep's dial queue, each checked against the
// reference propagator (binary heap, per-pop behavior + trig): grids whose
// cell count leaves the burned-cell record's last word partial, tie-heavy
// calm spread, a denormal horizon, and the whole default campaign catalog.
// Also pins the horizon-clamp contract for pre-seeded initial maps,
// identically for the production sweep (on either relax kernel) and the
// oracle.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/scenario.hpp"
#include "reference_propagator.hpp"
#include "sweep_fixtures.hpp"
#include "synth/catalog.hpp"

namespace essns::firelib {
namespace {

using fixtures::calm_scenario;
using fixtures::dem_env;
using fixtures::expect_matches_reference;
using fixtures::fire_line_starts;
using fixtures::FireLineStart;
using fixtures::fuel_mosaic_env;
using fixtures::uniform_env;

TEST(SweepQueueTest, GridsOffTheWordSizeMatch) {
  // Cell counts that leave the burned-cell record's last word partial.
  for (const int size : {13, 23}) {
    SCOPED_TRACE(size);
    expect_matches_reference(uniform_env(size), 20);
    expect_matches_reference(fuel_mosaic_env(size), 20);
    expect_matches_reference(dem_env(size, /*with_fuel=*/true), 20);
  }
}

TEST(SweepQueueTest, TieHeavyCalmSpreadMatches) {
  // Zero wind + zero slope makes the 8-symmetric lattice produce the maximum
  // number of exactly-equal arrival times — the tie-break stress case.
  const FireSpreadModel model;
  const FirePropagator production(model);
  const oracle::ReferencePropagator reference(model);
  const FireEnvironment env = uniform_env(41);
  const Scenario s = calm_scenario();
  EXPECT_EQ(production.propagate(env, s, {{20, 20}}, 240.0),
            reference.propagate(env, s, {{20, 20}}, 240.0));
  // Multiple simultaneous ignitions collide fronts at equal times.
  const std::vector<CellIndex> many{{0, 0}, {0, 40}, {40, 0}, {40, 40}, {20, 20}};
  EXPECT_EQ(production.propagate(env, s, many, 240.0),
            reference.propagate(env, s, many, 240.0));
}

TEST(SweepQueueTest, DenormalHorizonMatches) {
  // A horizon so tiny that num_buckets / horizon overflows to infinity must
  // degenerate to a single bucket, not compute a NaN bucket index.
  const FireSpreadModel model;
  const FirePropagator production(model);
  const oracle::ReferencePropagator reference(model);
  const FireEnvironment env = uniform_env(16);
  const Scenario s = calm_scenario();
  const IgnitionMap out = production.propagate(env, s, {{8, 8}}, 1e-320);
  EXPECT_EQ(out, reference.propagate(env, s, {{8, 8}}, 1e-320));
  EXPECT_EQ(out(8, 8), 0.0);
}

TEST(SweepQueueTest, DefaultCampaignCatalogIsBitIdentical) {
  // Acceptance sweep: every workload of the default campaign catalog,
  // production against the oracle, from a point ignition and from every
  // ground-truth fire line to the next instant.
  const std::vector<synth::Workload> catalog =
      synth::generate_catalog(synth::CatalogSpec{});
  ASSERT_FALSE(catalog.empty());

  const FireSpreadModel model;
  const FirePropagator production(model);
  const oracle::ReferencePropagator reference(model);

  const auto& space = ScenarioSpace::table1();
  Rng rng(2022);
  Rng line_rng(7);
  PropagationWorkspace workspace;
  for (const synth::Workload& workload : catalog) {
    const FireEnvironment& env = workload.environment;
    const std::vector<CellIndex> ignition{{env.rows() / 2, env.cols() / 2}};
    for (int trial = 0; trial < 3; ++trial) {
      const Scenario scenario = space.sample(rng);
      const double horizon = rng.uniform(30.0, 180.0);
      ASSERT_EQ(production.propagate(env, scenario, ignition, horizon,
                                     workspace),
                reference.propagate(env, scenario, ignition, horizon))
          << workload.name << " trial " << trial;
    }
    const std::vector<FireLineStart> lines = fire_line_starts(workload);
    ASSERT_FALSE(lines.empty());
    for (std::size_t line = 0; line < lines.size(); ++line) {
      const FireLineStart& from = lines[line];
      for (int trial = 0; trial < 3; ++trial) {
        const Scenario scenario = space.sample(line_rng);
        ASSERT_EQ(production.propagate(env, scenario, from.start,
                                       from.horizon, workspace),
                  reference.propagate(env, scenario, from.start, from.horizon))
            << workload.name << " line " << line << " trial " << trial;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Horizon-clamp contract for pre-seeded initial maps: finite initial times
// greater than the horizon are erased to kNeverIgnited in the output; times
// at or below the horizon are kept (and spread). Pinned for both queues and
// both inner-loop paths: the dial queue is the production sweep, run on its
// scalar relax kernel (Reference) and on the kernel the host resolves to
// (Fast); the heap queue is the reference propagator, whose single inner
// loop (per-pop behavior + trig) serves both of its cases.
// ---------------------------------------------------------------------------

enum class Queue { kHeap, kDial };

using QueueAndPath = std::tuple<Queue, bool>;

class HorizonClampTest : public ::testing::TestWithParam<QueueAndPath> {
 protected:
  /// The parameter's sweep from `initial` under the calm scenario.
  IgnitionMap clamp(const FireEnvironment& env, const IgnitionMap& initial,
                    double horizon) const {
    const auto [queue, reference] = GetParam();
    const FireSpreadModel model;
    if (queue == Queue::kHeap)
      return oracle::ReferencePropagator(model).propagate(
          env, calm_scenario(), initial, horizon);
    FirePropagator propagator(model);
    propagator.set_simd_mode(reference ? simd::Mode::kScalar
                                       : simd::Mode::kAuto);
    return propagator.propagate(env, calm_scenario(), initial, horizon);
  }
};

std::string queue_and_path_name(
    const ::testing::TestParamInfo<QueueAndPath>& info) {
  const Queue queue = std::get<0>(info.param);
  const bool reference = std::get<1>(info.param);
  return std::string(queue == Queue::kHeap ? "Heap" : "Dial") +
         (reference ? "Reference" : "Fast");
}

TEST_P(HorizonClampTest, InitialTimesBeyondHorizonAreErased) {
  for (const bool dem : {false, true}) {
    const FireEnvironment env =
        dem ? dem_env(16, /*with_fuel=*/false) : uniform_env(16);
    IgnitionMap initial(16, 16, kNeverIgnited);
    initial(2, 2) = 0.0;     // active source, spreads
    initial(8, 8) = 100.0;   // exactly at the horizon: kept
    initial(12, 12) = 100.5; // beyond the horizon: erased
    initial(14, 14) = 5000.0;  // far beyond: erased

    const IgnitionMap out = clamp(env, initial, 100.0);
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
  const FireEnvironment env = uniform_env(8);
  IgnitionMap initial(8, 8, kNeverIgnited);
  initial(4, 4) = 61.0;
  for (const double time : clamp(env, initial, 60.0))
    EXPECT_EQ(time, kNeverIgnited);
}

INSTANTIATE_TEST_SUITE_P(
    QueuesAndPaths, HorizonClampTest,
    ::testing::Combine(::testing::Values(Queue::kHeap, Queue::kDial),
                       ::testing::Bool()),
    queue_and_path_name);

}  // namespace
}  // namespace essns::firelib
