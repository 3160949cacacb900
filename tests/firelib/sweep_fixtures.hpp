// Shared inputs and checks for the sweep equivalence tests: the synthetic
// terrains every fast path is exercised on, and the property that the
// production FirePropagator matches the test-side reference propagator bit
// for bit while its burned-cell record matches its own map.
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/scenario.hpp"
#include "reference_propagator.hpp"
#include "synth/ground_truth.hpp"
#include "synth/workloads.hpp"

namespace essns::firelib::fixtures {

inline FireEnvironment uniform_env(int size) {
  return FireEnvironment(size, size, 100.0);
}

inline FireEnvironment fuel_mosaic_env(int size) {
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

inline FireEnvironment dem_env(int size, bool with_fuel) {
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

/// One sweep a campaign job runs from a ground-truth fire line: the line's
/// burned cells at its instant t_k, continued to t_{k+1}.
struct FireLineStart {
  IgnitionMap start;
  double horizon = 0.0;
};

/// The continuation from every fire line of `workload`'s ground truth: a
/// settled interior and a live front, the starts the settled list and the
/// DEM travel-time floor shape most.
inline std::vector<FireLineStart> fire_line_starts(
    const synth::Workload& workload) {
  Rng truth_rng(workload.seed);
  const synth::GroundTruth truth = synth::generate_truth(workload, truth_rng);
  std::vector<FireLineStart> starts;
  for (int line = 0; line < truth.steps(); ++line) {
    const IgnitionMap& observed =
        truth.fire_lines[static_cast<std::size_t>(line)];
    const double instant = truth.time_of(line);
    starts.push_back({burned_region(burned_cells(observed, instant), instant),
                      truth.time_of(line + 1)});
  }
  return starts;
}

/// Zero wind and zero slope: the 8-symmetric lattice then produces the most
/// exactly-equal arrival times — the tie-break stress case.
inline Scenario calm_scenario() {
  Scenario s;
  s.model = 1;
  s.wind_speed = 0.0;
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
inline void expect_burned_record(const PropagationWorkspace& workspace,
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

/// Production and reference sweeps over the same random scenarios must be
/// bit-identical, from point ignitions and from continuation maps (many
/// finite seeds at once, one of them beyond the horizon) — and each
/// production sweep's burned-cell record must match its map.
inline void expect_matches_reference(const FireEnvironment& env,
                                     int trials = 25) {
  const FireSpreadModel model;
  const FirePropagator production(model);
  const oracle::ReferencePropagator reference(model);
  const auto& space = ScenarioSpace::table1();
  Rng rng(2022);
  PropagationWorkspace workspace;
  for (int trial = 0; trial < trials; ++trial) {
    const Scenario scenario = space.sample(rng);
    const double horizon = rng.uniform(10.0, 300.0);
    const std::vector<CellIndex> ignition{
        {static_cast<int>(rng.uniform_int(0, env.rows() - 1)),
         static_cast<int>(rng.uniform_int(0, env.cols() - 1))}};

    const IgnitionMap& got =
        production.propagate(env, scenario, ignition, horizon, workspace);
    ASSERT_EQ(got, reference.propagate(env, scenario, ignition, horizon))
        << "trial " << trial << " scenario " << scenario.to_string();
    expect_burned_record(workspace, horizon);

    // Continue from that result under a fresh scenario.
    const Scenario next = space.sample(rng);
    IgnitionMap start = got;
    if (start(0, 0) == kNeverIgnited) start(0, 0) = horizon + 1000.0;
    ASSERT_EQ(production.propagate(env, next, start, horizon + 60.0, workspace),
              reference.propagate(env, next, start, horizon + 60.0))
        << "continuation trial " << trial;
    expect_burned_record(workspace, horizon + 60.0);
  }
}

}  // namespace essns::firelib::fixtures
