// The DEM sweep's travel-time floor (TravelTimeFloor): for every behavior
// it is active on and every lattice direction, the floor never exceeds the
// travel time the exact elliptical rate gives, step / spread_rate_at(deg),
// computed in doubles exactly as the sweep computes it. Eccentricities at or
// above 0.999 bypass the floor. The behaviors are drawn at random, weighted
// toward the edges the argument leans on: eccentricities just below 0.999
// and directions of maximum spread one ulp off a lattice direction.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "firelib/rothermel.hpp"

namespace essns::firelib {
namespace {

constexpr double kSqrt2 = 1.41421356237309504880;
constexpr double kHalfSqrt2 = 0.70710678118654752440;

struct Direction {
  double deg;
  double cos;
  double sin;
};

/// The eight lattice directions twice: with the rounded constants the
/// sweep uses, and with libm's cos/sin of the azimuth in radians.
std::array<Direction, 16> lattice_directions() {
  constexpr std::array<double, 8> cos_table = {
      1.0, kHalfSqrt2, 0.0, -kHalfSqrt2, -1.0, -kHalfSqrt2, 0.0, kHalfSqrt2};
  constexpr std::array<double, 8> sin_table = {
      0.0, kHalfSqrt2, 1.0, kHalfSqrt2, 0.0, -kHalfSqrt2, -1.0, -kHalfSqrt2};
  std::array<Direction, 16> out{};
  for (std::size_t k = 0; k < 8; ++k) {
    const double deg = 45.0 * static_cast<double>(k);
    const double rad = units::degrees_to_radians(deg);
    out[k] = {deg, cos_table[k], sin_table[k]};
    out[k + 8] = {deg, std::cos(rad), std::sin(rad)};
  }
  return out;
}

FireBehavior random_behavior(Rng& rng, int trial) {
  FireBehavior b;
  b.spread_rate_max = std::exp(rng.uniform(std::log(1e-3), std::log(1e3)));
  switch (trial % 3) {
    case 0: b.eccentricity = rng.uniform(0.99, 0.999); break;
    case 1: b.eccentricity = rng.uniform(0.0, 0.99); break;
    default:
      b.eccentricity =
          std::nextafter(TravelTimeFloor::kMaxEccentricity, 0.0);
      break;
  }
  if (trial % 2 == 0) {
    b.azimuth_max = rng.uniform(0.0, 360.0);
  } else {
    // A multiple of 45 degrees, exactly or one ulp to either side.
    const double axis = 45.0 * static_cast<double>(rng.uniform_int(0, 7));
    switch (rng.uniform_int(0, 2)) {
      case 0: b.azimuth_max = axis; break;
      case 1: b.azimuth_max = std::nextafter(axis, -1.0); break;
      default: b.azimuth_max = std::nextafter(axis, 400.0); break;
    }
    if (b.azimuth_max < 0.0) b.azimuth_max += 360.0;
  }
  return b;
}

TEST(TravelTimeFloor, NeverExceedsTheExactTravelTime) {
  Rng rng(29);
  const std::array<Direction, 16> directions = lattice_directions();
  const std::array<double, 4> steps = {100.0, 100.0 * kSqrt2, 30.0,
                                       30.0 * kSqrt2};
  for (int trial = 0; trial < 60000; ++trial) {
    const FireBehavior b = random_behavior(rng, trial);
    const TravelTimeFloor floor = b.travel_time_floor();
    ASSERT_TRUE(floor.active) << "e " << b.eccentricity;
    for (const Direction& dir : directions) {
      for (const double step : steps) {
        const double exact = step / b.spread_rate_at(dir.deg);
        const double bound = floor.travel_time(step, dir.cos, dir.sin);
        ASSERT_LE(bound, exact)
            << "trial " << trial << " rmax " << b.spread_rate_max << " e "
            << b.eccentricity << " azimuth " << b.azimuth_max << " deg "
            << dir.deg;
        // And it is tight: it rules out all but a sliver of what the
        // exact rate would.
        ASSERT_GE(bound, exact * (1.0 - 1e-5)) << "trial " << trial;
      }
    }
  }
}

TEST(TravelTimeFloor, ArrivalBoundNeverExceedsTheExactArrival) {
  // The sweep compares time + floor against a neighbour's time; the sum
  // rounds monotonically, so it stays at or below time + exact.
  Rng rng(31);
  const std::array<Direction, 16> directions = lattice_directions();
  for (int trial = 0; trial < 20000; ++trial) {
    const FireBehavior b = random_behavior(rng, trial);
    const TravelTimeFloor floor = b.travel_time_floor();
    const double time = rng.uniform(0.0, 600.0);
    for (const Direction& dir : directions)
      ASSERT_LE(time + floor.travel_time(100.0, dir.cos, dir.sin),
                time + 100.0 / b.spread_rate_at(dir.deg))
          << "trial " << trial;
  }
}

TEST(TravelTimeFloor, HighEccentricityBypassesTheFloor) {
  FireBehavior b;
  b.spread_rate_max = 12.0;
  b.azimuth_max = 45.0;
  for (const double e : {TravelTimeFloor::kMaxEccentricity,
                         std::nextafter(TravelTimeFloor::kMaxEccentricity, 1.0),
                         0.9995, 0.999999, 1.0}) {
    b.eccentricity = e;
    EXPECT_FALSE(b.travel_time_floor().active) << "e " << e;
  }
  b.eccentricity = std::nextafter(TravelTimeFloor::kMaxEccentricity, 0.0);
  EXPECT_TRUE(b.travel_time_floor().active);
}

TEST(TravelTimeFloor, ANonSpreadingBehaviorHasNoFloor) {
  FireBehavior b;  // spread_rate_max 0: spread_rate_at is 0 everywhere
  EXPECT_FALSE(b.travel_time_floor().active);
  b.spread_rate_max = 1e-310;  // subnormal: the rounding argument needs normals
  EXPECT_FALSE(b.travel_time_floor().active);
}

}  // namespace
}  // namespace essns::firelib
