// The phased Rothermel kernel (compute_spread_base + apply_wind_slope) must
// reproduce the monolithic single-shot computation kept in
// rothermel_oracle.hpp bit for bit, over every catalog model, dry / wet /
// saturated moistures, calm / moderate / wind-limited winds and a slope x
// aspect x wind-direction grid. The DEM sweep, which now runs the spread base
// once per fuel model, must still reject negative inputs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "reference_propagator.hpp"
#include "rothermel_oracle.hpp"

namespace essns::firelib {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise_equal(const FireBehavior& got, const FireBehavior& want,
                          const char* what) {
  EXPECT_EQ(bits(got.spread_rate_no_wind), bits(want.spread_rate_no_wind))
      << what;
  EXPECT_EQ(bits(got.spread_rate_max), bits(want.spread_rate_max)) << what;
  EXPECT_EQ(bits(got.azimuth_max), bits(want.azimuth_max)) << what;
  EXPECT_EQ(bits(got.eccentricity), bits(want.eccentricity)) << what;
  EXPECT_EQ(bits(got.effective_wind_fpm), bits(want.effective_wind_fpm))
      << what;
  EXPECT_EQ(bits(got.reaction_intensity), bits(want.reaction_intensity))
      << what;
  EXPECT_EQ(bits(got.heat_per_unit_area), bits(want.heat_per_unit_area))
      << what;
  EXPECT_EQ(got.wind_limit_hit, want.wind_limit_hit) << what;
}

TEST(RothermelSplitTest, PhasedKernelMatchesMonolithicOracleBitwise) {
  const FuelCatalog& catalog = FuelCatalog::standard();
  const FireSpreadModel spread_model(catalog);

  const std::vector<MoistureSet> moistures{
      {0.03, 0.05, 0.07, 0.40, 0.70},  // dry
      {0.14, 0.16, 0.18, 1.50, 1.50},  // wet
      {0.60, 0.60, 0.60, 3.00, 3.00},  // saturated: no model carries fire
  };
  const std::vector<double> winds_fpm{0.0, units::mph_to_ft_per_min(8.0),
                                      units::mph_to_ft_per_min(120.0)};
  const std::vector<double> slopes_deg{0.0, 7.0, 25.0, 60.0};
  const std::vector<double> aspects_deg{0.0, 95.0, 200.0, 359.5};
  const std::vector<double> wind_dirs_deg{0.0, 45.0, 180.0, 290.0};

  int cases = 0, carrying = 0, not_carrying = 0, limited = 0;
  for (int number = 0; number < catalog.size(); ++number) {
    const FuelModel& fuel = catalog.model(number);
    const FuelBedIntermediates bed = compute_fuel_bed(fuel);
    for (const MoistureSet& moisture : moistures) {
      for (const double wind : winds_fpm) {
        const SpreadBase base =
            compute_spread_base(fuel, bed, moisture, wind);
        for (const double slope : slopes_deg) {
          for (const double aspect : aspects_deg) {
            for (const double wind_dir : wind_dirs_deg) {
              const WindSlope ws{wind, wind_dir,
                                 units::slope_degrees_to_ratio(slope),
                                 aspect};
              const FireBehavior want =
                  oracle::compute_fire_behavior(fuel, bed, moisture, ws);
              expect_bitwise_equal(apply_wind_slope(bed, base, ws), want,
                                   "apply_wind_slope(compute_spread_base)");
              expect_bitwise_equal(
                  spread_model.behavior(number, moisture, ws), want,
                  "FireSpreadModel::behavior");
              ++cases;
              if (bed.burnable) (base.carries ? carrying : not_carrying)++;
              if (want.wind_limit_hit) ++limited;
            }
          }
        }
      }
    }
  }
  // The grid reaches every branch the split has to preserve.
  EXPECT_EQ(cases, 14 * 3 * 3 * 4 * 4 * 4);
  EXPECT_GT(carrying, 0);
  EXPECT_GT(not_carrying, 0);
  EXPECT_GT(limited, 0);
}

TEST(RothermelSplitTest, PhasesKeepTheirInputChecks) {
  const FireSpreadModel model;
  const MoistureSet ok{0.06, 0.08, 0.10, 0.60, 0.90};
  MoistureSet negative = ok;
  negative.m10 = -0.01;
  EXPECT_THROW(model.spread_base(1, negative, 0.0), InvalidArgument);
  EXPECT_THROW(model.spread_base(1, ok, -1.0), InvalidArgument);
  EXPECT_THROW(model.spread_base(14, ok, 0.0), InvalidArgument);
  EXPECT_THROW(apply_wind_slope(model.fuel_bed(1), model.spread_base(1, ok, 0.0),
                                WindSlope{0.0, 0.0, -0.1, 0.0}),
               InvalidArgument);
  // The unburnable bed short-circuits before any check, as before.
  EXPECT_NO_THROW(model.spread_base(0, negative, -1.0));
  EXPECT_NO_THROW(apply_wind_slope(model.fuel_bed(0), SpreadBase{},
                                   WindSlope{0.0, 0.0, -0.1, 0.0}));
}

FireEnvironment hill_env(int size, double slope_at_centre) {
  FireEnvironment env(size, size, 100.0);
  Grid<double> slope(size, size, 12.0);
  Grid<double> aspect(size, size, 135.0);
  slope(size / 2, size / 2) = slope_at_centre;
  env.set_topography(std::move(slope), std::move(aspect));
  return env;
}

TEST(RothermelSplitTest, DemSweepStillRejectsNegativeInputs) {
  const FireSpreadModel model;
  const std::vector<CellIndex> ignition{{8, 8}};
  Scenario ok;
  ok.model = 3;
  ok.wind_speed = 6.0;
  Scenario wet = ok;
  wet.m10 = -2.0;
  Scenario backwards = ok;
  backwards.wind_speed = -3.0;
  const FireEnvironment flat_ok = hill_env(16, 12.0);
  const FireEnvironment dug_in = hill_env(16, -5.0);

  const auto expect_checks = [&](const auto& propagator) {
    EXPECT_NO_THROW(propagator.propagate(flat_ok, ok, ignition, 60.0));
    EXPECT_THROW(propagator.propagate(flat_ok, wet, ignition, 60.0),
                 InvalidArgument);
    EXPECT_THROW(propagator.propagate(flat_ok, backwards, ignition, 60.0),
                 InvalidArgument);
    EXPECT_THROW(propagator.propagate(dug_in, ok, ignition, 60.0),
                 InvalidArgument);
  };
  expect_checks(FirePropagator(model));
  expect_checks(oracle::ReferencePropagator(model));
}

}  // namespace
}  // namespace essns::firelib
