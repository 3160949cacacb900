// Test-only oracle: the fire sweep as it stood before its fast paths — a
// plain Dijkstra over a binary heap that evaluates fire behavior and the
// elliptical spread rate for every popped cell. The production
// FirePropagator (dial queue, per-model travel-time tables, hoisted DEM
// terrain, AVX2 relax kernel) must reproduce it bit for bit: the sweep's
// result is the unique fixed point of t(v) = min over neighbours u of
// (t(u) + travel(u, v)), and every candidate sum is computed from the same
// operands in the same order whichever queue schedules the relaxations.
// Do not "tidy" this copy toward the production sweep — its value is that
// it shares none of that sweep's shortcuts. Header-only, like
// rothermel_oracle.hpp, so tests and benches include it directly.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/grid.hpp"
#include "common/units.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/rothermel.hpp"
#include "firelib/scenario.hpp"

namespace essns::firelib::oracle {

class ReferencePropagator {
 public:
  explicit ReferencePropagator(const FireSpreadModel& model)
      : model_(&model) {}

  /// Spread from point ignitions (ignited at t = 0) until `horizon_min`.
  IgnitionMap propagate(const FireEnvironment& env, const Scenario& scenario,
                        const std::vector<CellIndex>& ignitions,
                        double horizon_min) const {
    IgnitionMap times(env.rows(), env.cols(), kNeverIgnited);
    for (const CellIndex& cell : ignitions) {
      ESSNS_REQUIRE(times.in_bounds(cell), "ignition cell out of bounds");
      times(cell) = 0.0;
    }
    sweep(env, scenario, horizon_min, times);
    return times;
  }

  /// Spread continuing from `initial`: every finite cell is a source with
  /// its recorded time; finite times past the horizon come out as
  /// kNeverIgnited.
  IgnitionMap propagate(const FireEnvironment& env, const Scenario& scenario,
                        const IgnitionMap& initial, double horizon_min) const {
    ESSNS_REQUIRE(initial.rows() == env.rows() && initial.cols() == env.cols(),
                  "initial map dimensions must match environment");
    IgnitionMap times = initial;
    sweep(env, scenario, horizon_min, times);
    return times;
  }

 private:
  struct Entry {
    double time;
    std::size_t cell;
  };

  static bool later(const Entry& a, const Entry& b) { return a.time > b.time; }

  void sweep(const FireEnvironment& env, const Scenario& scenario,
             double horizon_min, IgnitionMap& times) const {
    ESSNS_REQUIRE(horizon_min >= 0.0, "horizon must be non-negative");
    ESSNS_REQUIRE(model_->catalog().contains(scenario.model),
                  "scenario fuel model out of catalog range");

    // Azimuth (degrees clockwise from north) toward neighbour k of
    // kEightNeighbours, with row 0 being the north edge.
    constexpr std::array<double, 8> kAzimuth = {0.0,   45.0,  90.0,  135.0,
                                                180.0, 225.0, 270.0, 315.0};
    constexpr double kSqrt2 = 1.41421356237309504880;

    const MoistureSet moisture{
        units::percent_to_fraction(scenario.m1),
        units::percent_to_fraction(scenario.m10),
        units::percent_to_fraction(scenario.m100),
        units::percent_to_fraction(scenario.mherb),
        units::percent_to_fraction(scenario.mherb),  // woody ~ herbaceous
    };
    const double wind_fpm = units::mph_to_ft_per_min(scenario.wind_speed);
    const double cell_ft = env.cell_size_ft();

    std::vector<Entry> heap;
    const auto push = [&heap](double time, std::size_t cell) {
      heap.push_back(Entry{time, cell});
      std::push_heap(heap.begin(), heap.end(), later);
    };
    for (int r = 0; r < times.rows(); ++r) {
      for (int c = 0; c < times.cols(); ++c) {
        const double t0 = times(r, c);
        if (t0 < kNeverIgnited) {
          ESSNS_REQUIRE(t0 >= 0.0,
                        "initial ignition times must be non-negative");
          push(t0, times.index_of(r, c));
        }
      }
    }

    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const Entry top = heap.back();
      heap.pop_back();
      if (top.time > times.data()[top.cell]) continue;  // stale entry
      if (top.time > horizon_min) break;  // everything later is too

      const CellIndex cell = times.cell_of(top.cell);
      const int cell_fuel = env.fuel_model_at(cell.row, cell.col, scenario);
      if (cell_fuel <= 0) continue;  // unburnable
      const WindSlope ws{
          wind_fpm, scenario.wind_dir,
          units::slope_degrees_to_ratio(
              env.slope_deg_at(cell.row, cell.col, scenario)),
          std::fmod(env.aspect_deg_at(cell.row, cell.col, scenario) + 180.0,
                    360.0)};
      const FireBehavior behavior = model_->behavior(cell_fuel, moisture, ws);
      if (behavior.spread_rate_max <= 0.0) continue;

      for (std::size_t k = 0; k < kEightNeighbours.size(); ++k) {
        const int nr = cell.row + kEightNeighbours[k].row;
        const int nc = cell.col + kEightNeighbours[k].col;
        if (!times.in_bounds(nr, nc)) continue;
        if (env.fuel_model_at(nr, nc, scenario) <= 0) continue;

        const double rate = behavior.spread_rate_at(kAzimuth[k]);
        if (rate <= 0.0) continue;
        const double step_ft = (k % 2 == 0) ? cell_ft : cell_ft * kSqrt2;
        const double arrival = top.time + step_ft / rate;
        if (arrival < times(nr, nc) && arrival <= horizon_min) {
          times(nr, nc) = arrival;
          push(arrival, times.index_of(nr, nc));
        }
      }
    }

    // Clamp: anything beyond the horizon is reported as never ignited,
    // pre-seeded initial times included.
    for (double& time : times)
      if (time > horizon_min) time = kNeverIgnited;
  }

  const FireSpreadModel* model_;
};

}  // namespace essns::firelib::oracle
