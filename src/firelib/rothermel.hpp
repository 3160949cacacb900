// Rothermel (1972) surface fire spread model with the BEHAVE/fireLib wind and
// slope extensions and elliptical fire-shape geometry (Anderson 1983).
//
// The kernel runs in three phases, the first two exactly as in fireLib:
//   1. fuel-bed intermediates that depend only on the fuel model
//      (FuelBedIntermediates, computed once per model and cached);
//   2. the spread base (SpreadBase): moisture damping, reaction intensity,
//      heat sink, the no-wind/no-slope rate R0 and the wind factor phi_w —
//      a function of the fuel bed, the moistures and the wind speed only;
//   3. the wind/slope composition (apply_wind_slope): slope factor, vector
//      sum, effective wind, wind limit and eccentricity, producing a
//      FireBehavior (maximum spread rate + direction, reaction intensity and
//      the eccentricity of the elliptical spread figure).
// Phases 2+3 compose to the classic single-shot computation bit for bit;
// the split lets a sweep over per-cell terrain run phase 2 once per fuel
// model and only phase 3 per cell.
//
// Units are English throughout (ft, min, lb, Btu), like fireLib; use
// essns::units to convert Table I inputs.
#pragma once

#include <algorithm>

#include "firelib/fuel_model.hpp"

namespace essns::firelib {

struct TravelTimeFloor;

/// Environmental moistures, as fractions (not percents).
struct MoistureSet {
  double m1 = 0.10;     ///< dead 1-h
  double m10 = 0.10;    ///< dead 10-h
  double m100 = 0.10;   ///< dead 100-h
  double mherb = 1.00;  ///< live herbaceous
  double mwood = 1.00;  ///< live woody
};

/// Wind/slope inputs in kernel units.
struct WindSlope {
  double wind_speed_fpm = 0.0;   ///< midflame wind speed, ft/min
  double wind_dir_deg = 0.0;     ///< azimuth wind blows toward, deg from north
  double slope_ratio = 0.0;      ///< rise/run (tan of slope angle)
  double upslope_deg = 0.0;      ///< azimuth pointing upslope, deg from north
};

/// Fuel-dependent intermediates (Rothermel's fuel-bed characteristics).
struct FuelBedIntermediates {
  bool burnable = false;
  double sigma = 0.0;          ///< characteristic SAVR (1/ft)
  double bulk_density = 0.0;   ///< rho_b (lb/ft^3)
  double packing_ratio = 0.0;  ///< beta
  double beta_optimal = 0.0;   ///< beta_op
  double beta_ratio = 0.0;     ///< beta / beta_op
  double gamma = 0.0;          ///< optimum reaction velocity (1/min)
  double xi = 0.0;             ///< propagating flux ratio
  double wind_b = 0.0;         ///< B exponent of phi_w
  double wind_c = 0.0;         ///< C coefficient of phi_w
  double wind_e = 0.0;         ///< E exponent of phi_w
  double slope_k = 0.0;        ///< 5.275 * beta^-0.3
  double ratio_pow_e = 0.0;      ///< (beta/beta_op)^E
  double ratio_pow_neg_e = 0.0;  ///< (beta/beta_op)^-E
  double dead_net_load = 0.0;  ///< net loading of dead category (lb/ft^2)
  double live_net_load = 0.0;  ///< net loading of live category (lb/ft^2)
  double dead_eta_s = 0.0;     ///< mineral damping, dead
  double live_eta_s = 0.0;     ///< mineral damping, live
  double live_mext_factor = 0.0;  ///< W' factor for live extinction moisture
  double fine_dead_ratio = 0.0;   ///< fine dead load weighting for live Mx
};

/// Phase-2 result: everything the fire behavior needs that does not depend on
/// slope, aspect or wind direction.
struct SpreadBase {
  bool carries = false;              ///< burnable and dry enough to spread
  double reaction_intensity = 0.0;   ///< I_R (Btu/ft^2/min), clamped at 0
  double spread_rate_no_wind = 0.0;  ///< R0 (ft/min), 0 unless `carries`
  double phi_w = 0.0;                ///< wind factor, 0 unless `carries`
};

/// Environment-dependent fire behavior at a point.
struct FireBehavior {
  double spread_rate_no_wind = 0.0;  ///< R0 (ft/min)
  double spread_rate_max = 0.0;      ///< Rmax along azimuth_max (ft/min)
  double azimuth_max = 0.0;          ///< direction of max spread (deg)
  double eccentricity = 0.0;         ///< of the elliptical spread figure
  double effective_wind_fpm = 0.0;   ///< combined wind+slope effective wind
  double reaction_intensity = 0.0;   ///< I_R (Btu/ft^2/min)
  double heat_per_unit_area = 0.0;   ///< H_A (Btu/ft^2)
  bool wind_limit_hit = false;       ///< effective wind capped at 0.9 I_R

  /// Spread rate (ft/min) toward compass azimuth `deg` (Anderson's ellipse).
  double spread_rate_at(double deg) const;

  /// Safe lower bound on `step_ft / spread_rate_at(deg)` for every
  /// direction, at one sincos per behavior (see TravelTimeFloor).
  TravelTimeFloor travel_time_floor() const;

  /// Byram's fireline intensity (Btu/ft/s) in the direction of `deg`:
  /// I_B = H_A * R / 60 (fireLib's Fire_FlameScorch chain).
  double byram_intensity_at(double deg) const;

  /// Flame length (ft) in the direction of `deg`: L = 0.45 * I_B^0.46
  /// (Byram 1959, as coded in fireLib).
  double flame_length_at(double deg) const;

  /// Scorch height (ft) in the direction of `deg` for ambient air
  /// temperature `air_temp_f` (deg F) and the behavior's effective wind:
  /// Van Wagner (1973) as adapted in fireLib/BEHAVE.
  double scorch_height_at(double deg, double air_temp_f) const;
};

/// A floor under the travel time of one FireBehavior's elliptical spread,
/// cheap enough to test before paying for spread_rate_at's cos. With a the
/// direction of maximum spread, the exact travel time over `step_ft` toward
/// azimuth theta is step_ft * (1 - e cos(theta - a)) / (rmax (1 - e)), and
/// cos(theta - a) = cos(theta) cos(a) + sin(theta) sin(a). The floor
/// evaluates that with an upper bound on the cos, so it needs only the
/// direction's unit vector (a constant per lattice direction) and the
/// behavior's cos(a), sin(a), taken once.
///
/// Why it never exceeds the exact time (step_ft / spread_rate_at(deg), in
/// doubles):
///  - the time falls as the cos rises, since e >= 0. The cos bound adds 1e-9
///    to a dot product whose error against libm's cos of the rounded angle
///    is ~1e-15, so it is at least the cos spread_rate_at computes (and 1,
///    where it is clamped, is at least any cos);
///  - `1 - e * c` rounds monotonically in c, so the floor's `1 - e * c_ub`
///    is at most spread_rate_at's denominator, bit for bit;
///  - the remaining products differ from the exact quotients by a few
///    roundings (~1e-15 relative), which the (1 - 1e-9) factor covers about
///    10^6 times over. `active` also asks rmax (1 - e) >= 1e-300, so every
///    rate stays a normal number and those relative bounds hold.
/// The floor is active only while e < 0.999: then 1 - e cos >= 1e-3, so
/// spread_rate_at never takes its near-zero-denominator branch (which
/// returns rmax and would break the formula above). Callers test `active`
/// and fall back to the exact rate otherwise. The sum time + floor rounds
/// monotonically too, so an arrival bound built from it never exceeds the
/// exact arrival.
struct TravelTimeFloor {
  bool active = false;
  double eccentricity = 0.0;
  double cos_max = 0.0;  ///< cos of azimuth_max in radians
  double sin_max = 0.0;  ///< sin of azimuth_max in radians
  /// 1 / (rmax (1 - e)): the inverse of the slowest (backing) rate.
  double inv_rate_min = 0.0;

  /// Eccentricities at or above this bypass the floor.
  static constexpr double kMaxEccentricity = 0.999;

  /// Lower bound on step_ft / spread_rate_at(theta) for the direction
  /// theta with unit vector (dir_cos, dir_sin) (each within ~1e-15 of
  /// cos/sin of theta in radians). Meaningful only when `active`.
  double travel_time(double step_ft, double dir_cos, double dir_sin) const {
    const double c_ub =
        std::min(1.0, dir_cos * cos_max + dir_sin * sin_max + 1e-9);
    return step_ft * (1.0 - eccentricity * c_ub) * inv_rate_min *
           (1.0 - 1e-9);
  }
};

/// Phase 1: fuel-bed intermediates for `model`. Cheap enough to call freely,
/// but FireSpreadModel caches one per catalog entry.
FuelBedIntermediates compute_fuel_bed(const FuelModel& model);

/// Phase 2: spread base of a fuel bed under moistures and a midflame wind
/// speed. Throws InvalidArgument on negative moistures or wind speed (only
/// for a burnable bed, like the full computation).
SpreadBase compute_spread_base(const FuelModel& model,
                               const FuelBedIntermediates& bed,
                               const MoistureSet& moisture,
                               double wind_speed_fpm);

/// Phase 3: fire behavior of `base` (computed for the same bed and for
/// ws.wind_speed_fpm) under the wind direction and terrain of `ws`. Throws
/// InvalidArgument on a negative slope ratio (only for a burnable bed).
FireBehavior apply_wind_slope(const FuelBedIntermediates& bed,
                              const SpreadBase& base, const WindSlope& ws);

/// Convenience facade that caches intermediates for the standard catalog.
class FireSpreadModel {
 public:
  explicit FireSpreadModel(const FuelCatalog& catalog = FuelCatalog::standard());

  /// Behavior of catalog model `number` under the given environment.
  FireBehavior behavior(int number, const MoistureSet& moisture,
                        const WindSlope& ws) const;

  /// Phase 2 for catalog model `number`; pair with apply_wind_slope and
  /// fuel_bed(number) to get behavior() one terrain at a time.
  SpreadBase spread_base(int number, const MoistureSet& moisture,
                         double wind_speed_fpm) const;

  /// Cached phase-1 intermediates of catalog model `number`.
  const FuelBedIntermediates& fuel_bed(int number) const;

  const FuelCatalog& catalog() const { return *catalog_; }

 private:
  const FuelCatalog* catalog_;
  std::vector<FuelBedIntermediates> beds_;
};

}  // namespace essns::firelib
