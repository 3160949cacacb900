// Test-only oracle: the monolithic single-shot Rothermel fire-behavior
// computation, kept verbatim as it stood before the kernel was split into
// compute_spread_base + apply_wind_slope. The split must reproduce it bit
// for bit (test_rothermel_split.cpp); do not "tidy" this copy — its value
// is that it is the unrefactored operation order.
#pragma once

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "firelib/rothermel.hpp"

namespace essns::firelib::oracle {

inline constexpr double kSmidgen = 1e-9;

struct CategoryAccum {
  double area = 0.0;       // total surface area weighting
  double savr = 0.0;       // area-weighted SAVR
  double net_load = 0.0;   // load net of total silica
  double fine_load = 0.0;  // exp-weighted fine load (for live Mx)
};

inline double azimuth_radians(double deg) {
  return units::degrees_to_radians(deg);
}

inline FireBehavior compute_fire_behavior(const FuelModel& model,
                                          const FuelBedIntermediates& bed,
                                          const MoistureSet& moisture,
                                          const WindSlope& ws) {
  FireBehavior out;
  if (!bed.burnable) return out;

  ESSNS_REQUIRE(moisture.m1 >= 0 && moisture.m10 >= 0 && moisture.m100 >= 0 &&
                    moisture.mherb >= 0 && moisture.mwood >= 0,
                "moistures must be non-negative fractions");
  ESSNS_REQUIRE(ws.wind_speed_fpm >= 0.0, "wind speed must be non-negative");
  ESSNS_REQUIRE(ws.slope_ratio >= 0.0, "slope ratio must be non-negative");

  // --- Category moistures (surface-area weighted within category). ---
  CategoryAccum dummy;
  double dead_area = 0.0, live_area = 0.0;
  double dead_moisture = 0.0, live_moisture = 0.0;
  double fine_dead_moisture_load = 0.0, fine_dead_load = 0.0;
  for (const FuelParticle& p : model.particles) {
    const double area = p.load * p.savr / p.density;
    double m = 0.0;
    switch (p.cls) {
      case ParticleClass::kDead1Hr: m = moisture.m1; break;
      case ParticleClass::kDead10Hr: m = moisture.m10; break;
      case ParticleClass::kDead100Hr: m = moisture.m100; break;
      case ParticleClass::kLiveHerb: m = moisture.mherb; break;
      case ParticleClass::kLiveWoody: m = moisture.mwood; break;
    }
    if (is_dead(p.cls)) {
      dead_area += area;
      dead_moisture += area * m;
      const double fine = p.load * std::exp(-138.0 / p.savr);
      fine_dead_load += fine;
      fine_dead_moisture_load += fine * m;
    } else {
      live_area += area;
      live_moisture += area * m;
    }
  }
  (void)dummy;
  if (dead_area > kSmidgen) dead_moisture /= dead_area;
  if (live_area > kSmidgen) live_moisture /= live_area;

  // --- Moisture damping coefficients. ---
  auto eta_m = [](double m, double mx) {
    if (mx < kSmidgen) return 0.0;
    const double r = std::min(1.0, m / mx);
    const double eta = 1.0 - 2.59 * r + 5.11 * r * r - 3.52 * r * r * r;
    return std::clamp(eta, 0.0, 1.0);
  };
  const double dead_eta_m = eta_m(dead_moisture, model.mext_dead);

  double live_eta_m = 0.0;
  if (live_area > kSmidgen) {
    const double fine_dead_m =
        fine_dead_load > kSmidgen ? fine_dead_moisture_load / fine_dead_load
                                  : 0.0;
    double mx_live =
        bed.live_mext_factor * (1.0 - fine_dead_m / model.mext_dead) - 0.226;
    mx_live = std::max(mx_live, model.mext_dead);
    live_eta_m = eta_m(live_moisture, mx_live);
  }

  // --- Reaction intensity and no-wind/no-slope spread rate. ---
  // Heat content is taken per-particle (all standard models use 8000 Btu/lb).
  double heat_dead = 0.0, heat_live = 0.0;
  {
    double a_dead = 0.0, a_live = 0.0;
    for (const FuelParticle& p : model.particles) {
      const double area = p.load * p.savr / p.density;
      if (is_dead(p.cls)) { heat_dead += area * p.heat; a_dead += area; }
      else { heat_live += area * p.heat; a_live += area; }
    }
    heat_dead = a_dead > kSmidgen ? heat_dead / a_dead : 0.0;
    heat_live = a_live > kSmidgen ? heat_live / a_live : 0.0;
  }

  const double reaction_intensity =
      bed.gamma * (bed.dead_net_load * heat_dead * dead_eta_m * bed.dead_eta_s +
                   bed.live_net_load * heat_live * live_eta_m * bed.live_eta_s);

  // Heat sink: rho_b * sum over particles of area-weighted eps * Qig.
  double heat_sink = 0.0;
  {
    const double total_area = dead_area + live_area;
    for (const FuelParticle& p : model.particles) {
      const double area = p.load * p.savr / p.density;
      double m = 0.0;
      switch (p.cls) {
        case ParticleClass::kDead1Hr: m = moisture.m1; break;
        case ParticleClass::kDead10Hr: m = moisture.m10; break;
        case ParticleClass::kDead100Hr: m = moisture.m100; break;
        case ParticleClass::kLiveHerb: m = moisture.mherb; break;
        case ParticleClass::kLiveWoody: m = moisture.mwood; break;
      }
      const double eps = std::exp(-138.0 / p.savr);
      const double qig = 250.0 + 1116.0 * m;
      heat_sink += (area / total_area) * eps * qig;
    }
    heat_sink *= bed.bulk_density;
  }

  if (heat_sink < kSmidgen || reaction_intensity < kSmidgen) {
    out.reaction_intensity = std::max(reaction_intensity, 0.0);
    return out;  // fuel too wet to carry fire
  }

  const double r0 = reaction_intensity * bed.xi / heat_sink;

  // --- Wind and slope factors combined vectorially (fireLib). ---
  const double phi_w =
      ws.wind_speed_fpm > kSmidgen
          ? bed.wind_c * std::pow(ws.wind_speed_fpm, bed.wind_b) *
                std::pow(bed.beta_ratio, -bed.wind_e)
          : 0.0;
  const double phi_s =
      ws.slope_ratio > kSmidgen ? bed.slope_k * ws.slope_ratio * ws.slope_ratio
                                : 0.0;

  const double slope_rate = r0 * phi_s;  // vector toward upslope
  const double wind_rate = r0 * phi_w;   // vector toward wind bearing
  const double split =
      azimuth_radians(ws.wind_dir_deg - ws.upslope_deg);
  const double x = slope_rate + wind_rate * std::cos(split);
  const double y = wind_rate * std::sin(split);
  const double add_rate = std::sqrt(x * x + y * y);

  double azimuth_max = ws.upslope_deg;
  if (add_rate > kSmidgen) {
    azimuth_max =
        ws.upslope_deg + units::radians_to_degrees(std::atan2(y, x));
    azimuth_max = std::fmod(azimuth_max, 360.0);
    if (azimuth_max < 0.0) azimuth_max += 360.0;
  }

  double rmax = r0 + add_rate;
  double phi_ew = add_rate / r0;

  // Effective wind speed that would alone produce phi_ew.
  double eff_wind = 0.0;
  if (phi_ew > kSmidgen && bed.wind_b > kSmidgen) {
    eff_wind = std::pow(phi_ew * std::pow(bed.beta_ratio, bed.wind_e) /
                            bed.wind_c,
                        1.0 / bed.wind_b);
  }

  // Rothermel's wind limit: effective wind capped at 0.9 * I_R.
  bool limit_hit = false;
  const double max_wind = 0.9 * reaction_intensity;
  if (eff_wind > max_wind) {
    limit_hit = true;
    eff_wind = max_wind;
    phi_ew = eff_wind > kSmidgen
                 ? bed.wind_c * std::pow(eff_wind, bed.wind_b) *
                       std::pow(bed.beta_ratio, -bed.wind_e)
                 : 0.0;
    rmax = r0 * (1.0 + phi_ew);
  }

  // Elliptical shape: length/width ratio grows with effective wind
  // (Anderson 1983, as coded in fireLib: 1 + 0.002840909 * effWind).
  const double lwr = 1.0 + 0.002840909 * eff_wind;
  const double ecc =
      lwr > 1.0 + kSmidgen ? std::sqrt(lwr * lwr - 1.0) / lwr : 0.0;

  out.spread_rate_no_wind = r0;
  out.spread_rate_max = rmax;
  out.azimuth_max = azimuth_max;
  out.eccentricity = ecc;
  out.effective_wind_fpm = eff_wind;
  out.reaction_intensity = reaction_intensity;
  // Residence time tau = 384/sigma (Anderson 1969) => H_A = I_R * tau.
  out.heat_per_unit_area = reaction_intensity * 384.0 / bed.sigma;
  out.wind_limit_hit = limit_hit;
  return out;
}

}  // namespace essns::firelib::oracle
