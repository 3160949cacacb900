// Test oracles for the simulation, fitness, Statistical and Calibration
// stages: the flat start map and reference sweeps a simulation from an
// observed fire line must equal, and the straightforward per-map Eq. (3),
// burned-cell packing, aggregation and per-candidate S_Kign loop the
// production kernels replaced. The production code must match them bit for
// bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "ess/calibration.hpp"
#include "ess/fitness.hpp"
#include "ess/statistical.hpp"
#include "firelib/propagator.hpp"
#include "firelib/reference_propagator.hpp"

namespace essns::ess::oracle {

/// The map a simulation from an observed fire line starts from, flattened
/// cell by cell from the dense line: its instant `time_min` on every finite
/// cell, never ignited elsewhere.
inline firelib::IgnitionMap flat_line(const firelib::IgnitionMap& line,
                                      double time_min) {
  firelib::IgnitionMap flat = line;
  for (double& t : flat)
    if (t < firelib::kNeverIgnited) t = time_min;
  return flat;
}

/// One reference sweep (tests/firelib/reference_propagator.hpp) per
/// scenario of `set` from `start` to `end_time`.
inline std::vector<firelib::IgnitionMap> reference_maps(
    const firelib::FireEnvironment& env,
    const std::vector<firelib::Scenario>& set,
    const firelib::IgnitionMap& start, double end_time) {
  const firelib::FireSpreadModel model;
  const firelib::oracle::ReferencePropagator reference(model);
  std::vector<firelib::IgnitionMap> maps;
  maps.reserve(set.size());
  for (const firelib::Scenario& scenario : set)
    maps.push_back(reference.propagate(env, scenario, start, end_time));
  return maps;
}

/// The cells of `map` ignited at or before `time_min`, packed cell by cell
/// from burned_mask.
inline BurnedCells pack_burned(const firelib::IgnitionMap& map,
                               double time_min) {
  const Grid<std::uint8_t> mask = firelib::burned_mask(map, time_min);
  BurnedCells burned{map.rows(), map.cols(),
                     std::vector<std::uint64_t>((map.size() + 63) / 64)};
  for (std::size_t i = 0; i < mask.size(); ++i)
    burned.words[i / 64] |= std::uint64_t{mask.data()[i]} << (i % 64);
  return burned;
}

/// Eq. (3) between two ignition-time maps: materialize the burned_mask
/// grids of cells ignited by `time_min` and of the real map's cells ignited
/// by `preburned_time`, then compare mask cell by mask cell.
inline double jaccard_at(const firelib::IgnitionMap& real_map,
                         const firelib::IgnitionMap& simulated_map,
                         double time_min, double preburned_time) {
  ESSNS_REQUIRE(preburned_time <= time_min,
                "preburned horizon must not exceed the comparison time");
  return jaccard(firelib::burned_mask(real_map, time_min),
                 firelib::burned_mask(simulated_map, time_min),
                 firelib::burned_mask(real_map, preburned_time));
}

/// Probability-of-ignition matrix: fraction of maps in which each cell is
/// burned by `time_min`. All maps must share dimensions.
inline Grid<double> aggregate_probability(
    std::span<const firelib::IgnitionMap> maps, double time_min) {
  ESSNS_REQUIRE(!maps.empty(), "cannot aggregate zero maps");
  Grid<double> probability(maps.front().rows(), maps.front().cols(), 0.0);
  for (const auto& map : maps) {
    ESSNS_REQUIRE(map.rows() == probability.rows() &&
                      map.cols() == probability.cols(),
                  "aggregated maps must share dimensions");
    for (int r = 0; r < map.rows(); ++r)
      for (int c = 0; c < map.cols(); ++c)
        if (map(r, c) <= time_min) probability(r, c) += 1.0;
  }
  const double inv = 1.0 / static_cast<double>(maps.size());
  for (double& p : probability) p *= inv;
  return probability;
}

/// S_Kign as one threshold-and-score pass per candidate.
inline KignSearchResult search_kign(const Grid<double>& probability,
                                    const Grid<std::uint8_t>& real_burned,
                                    const Grid<std::uint8_t>& preburned,
                                    int candidates = 100) {
  ESSNS_REQUIRE(candidates >= 1, "need at least one threshold candidate");
  KignSearchResult best;
  best.fitness = -1.0;
  for (int i = 1; i <= candidates; ++i) {
    const double k = static_cast<double>(i) / static_cast<double>(candidates);
    const Grid<std::uint8_t> predicted = apply_kign(probability, k);
    const double fit = jaccard(real_burned, predicted, preburned);
    if (fit > best.fitness) {
      best.fitness = fit;
      best.kign = k;
    }
    ++best.evaluated;
  }
  return best;
}

}  // namespace essns::ess::oracle
