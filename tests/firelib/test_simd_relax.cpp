// Bit-exactness property tests for the vectorized relax kernel: the AVX2
// 8-lane kernel must reproduce the scalar oracle exactly — at the kernel
// level (same admission mask, same arrival bits) and through whole sweeps
// (identical ignition maps AND identical push order, which the dial queue's
// epoch mechanism makes observable), both equal to the reference propagator
// — across uniform/fuel-mosaic/DEM terrains, point and continuation seeding,
// and the whole default campaign catalog. On hosts without AVX2 the
// vector-specific tests skip with a notice; mode resolution and the scalar
// fallback are still exercised.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "firelib/environment.hpp"
#include "firelib/propagator.hpp"
#include "firelib/relax_kernel.hpp"
#include "firelib/scenario.hpp"
#include "reference_propagator.hpp"
#include "sweep_fixtures.hpp"
#include "synth/catalog.hpp"

namespace essns::firelib {
namespace {

using fixtures::calm_scenario;
using fixtures::dem_env;
using fixtures::fire_line_starts;
using fixtures::FireLineStart;
using fixtures::fuel_mosaic_env;
using fixtures::uniform_env;

bool host_has_avx2() { return simd::detected_isa() == simd::Isa::kAvx2; }

TEST(SimdRelaxKernelTest, ModeResolutionOnPropagator) {
  const FireSpreadModel model;
  FirePropagator propagator(model);
  EXPECT_EQ(propagator.simd_isa(), simd::detected_isa());
  propagator.set_simd_mode(simd::Mode::kScalar);
  EXPECT_EQ(propagator.simd_isa(), simd::Isa::kScalar);
  // Back to auto: the CPU's kernel again (scalar on a host without AVX2).
  propagator.set_simd_mode(simd::Mode::kAuto);
  EXPECT_EQ(propagator.simd_isa(), simd::detected_isa());
}

// Kernel-level oracle check: random times slabs, travel rows (including
// kNeverIgnited lanes — directions the model does not spread), random fuel
// byte patterns including rock, and horizons interleaved with the arrival
// range. Mask and all eight arrival doubles must match bit for bit.
TEST(SimdRelaxKernelTest, Avx2MatchesScalarOracleOnRandomLanes) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";

  constexpr int kCols = 8;
  const NeighbourOffsets offsets = NeighbourOffsets::for_cols(kCols);
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    AlignedVector<double> times(kCols * 3);
    for (double& t : times)
      t = rng.uniform(0.0, 1.0) < 0.3 ? kNeverIgnited
                                      : rng.uniform(0.0, 500.0);
    alignas(64) std::array<double, 8> travel;
    for (double& tt : travel)
      tt = rng.uniform(0.0, 1.0) < 0.2 ? kNeverIgnited
                                       : rng.uniform(0.1, 200.0);
    AlignedVector<std::uint8_t> fuel(kCols * 3, 1);
    const bool with_fuel = rng.uniform(0.0, 1.0) < 0.5;
    if (with_fuel)
      for (std::uint8_t& f : fuel)
        f = static_cast<std::uint8_t>(rng.uniform_int(0, 13));

    const std::size_t cell = kCols + 1 + static_cast<std::size_t>(
                                             rng.uniform_int(0, kCols - 3));
    const double time = rng.uniform(0.0, 300.0);
    const double horizon = rng.uniform(0.0, 600.0);

    alignas(32) double scalar_arrivals[8];
    alignas(32) double avx2_arrivals[8];
    const unsigned scalar_mask = relax8_candidates_scalar(
        travel.data(), times.data(), with_fuel ? fuel.data() : nullptr, cell,
        offsets, time, horizon, scalar_arrivals);
    const unsigned avx2_mask = relax8_candidates_avx2(
        travel.data(), times.data(), with_fuel ? fuel.data() : nullptr, cell,
        offsets, time, horizon, avx2_arrivals);

    ASSERT_EQ(scalar_mask, avx2_mask) << "trial " << trial;
    ASSERT_EQ(std::memcmp(scalar_arrivals, avx2_arrivals, sizeof scalar_arrivals),
              0)
        << "trial " << trial;
  }
}

/// AVX2 and scalar sweeps over the same inputs must be bit-identical to
/// each other and to the reference propagator, from point ignitions and
/// continuation maps.
void expect_simd_matches(const FireEnvironment& env) {
  const FireSpreadModel model;
  FirePropagator scalar(model);
  scalar.set_simd_mode(simd::Mode::kScalar);
  FirePropagator vector(model);
  vector.set_simd_mode(simd::Mode::kAuto);
  const oracle::ReferencePropagator reference(model);

  const auto& space = ScenarioSpace::table1();
  Rng rng(4242);
  PropagationWorkspace scalar_ws, vector_ws;
  for (int trial = 0; trial < 12; ++trial) {
    const Scenario scenario = space.sample(rng);
    const double horizon = rng.uniform(10.0, 300.0);
    const std::vector<CellIndex> ignition{
        {static_cast<int>(rng.uniform_int(0, env.rows() - 1)),
         static_cast<int>(rng.uniform_int(0, env.cols() - 1))}};

    const IgnitionMap& from_scalar =
        scalar.propagate(env, scenario, ignition, horizon, scalar_ws);
    ASSERT_EQ(from_scalar,
              vector.propagate(env, scenario, ignition, horizon, vector_ws))
        << "trial " << trial << " scenario " << scenario.to_string();
    ASSERT_EQ(from_scalar,
              reference.propagate(env, scenario, ignition, horizon))
        << "trial " << trial << " scenario " << scenario.to_string();

    // Continue from the scalar result with a fresh scenario: many finite
    // seeds at once, the widest frontier the kernel sees.
    const Scenario next = space.sample(rng);
    const IgnitionMap start = from_scalar;
    const IgnitionMap& continued =
        scalar.propagate(env, next, start, horizon + 60.0, scalar_ws);
    ASSERT_EQ(continued,
              vector.propagate(env, next, start, horizon + 60.0, vector_ws))
        << "continuation trial " << trial;
    ASSERT_EQ(continued, reference.propagate(env, next, start, horizon + 60.0))
        << "continuation trial " << trial;
  }
}

TEST(SimdRelaxSweepTest, UniformTopographyScalarMatchesAvx2) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  expect_simd_matches(uniform_env(32));
}

TEST(SimdRelaxSweepTest, FuelMosaicScalarMatchesAvx2) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  expect_simd_matches(fuel_mosaic_env(32));
}

TEST(SimdRelaxSweepTest, DemScalarMatchesAvx2) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  expect_simd_matches(dem_env(24, /*with_fuel=*/false));
}

TEST(SimdRelaxSweepTest, TieHeavyCalmSpreadMatches) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  // Zero wind: the maximum number of exactly-equal arrival times — any
  // push-order difference between kernels surfaces as a tie-break change.
  const FireSpreadModel model;
  FirePropagator scalar(model);
  scalar.set_simd_mode(simd::Mode::kScalar);
  FirePropagator vector(model);
  vector.set_simd_mode(simd::Mode::kAuto);
  const FireEnvironment env = uniform_env(41);
  const Scenario s = calm_scenario();
  const std::vector<CellIndex> many{
      {0, 0}, {0, 40}, {40, 0}, {40, 40}, {20, 20}};
  EXPECT_EQ(scalar.propagate(env, s, many, 240.0),
            vector.propagate(env, s, many, 240.0));
}

TEST(SimdRelaxSweepTest, DefaultCampaignCatalogIsBitIdentical) {
  if (!host_has_avx2()) GTEST_SKIP() << "host has no AVX2+FMA";
  const std::vector<synth::Workload> catalog =
      synth::generate_catalog(synth::CatalogSpec{});
  ASSERT_FALSE(catalog.empty());

  const FireSpreadModel model;
  FirePropagator scalar(model);
  scalar.set_simd_mode(simd::Mode::kScalar);
  FirePropagator vector(model);
  vector.set_simd_mode(simd::Mode::kAuto);

  const auto& space = ScenarioSpace::table1();
  Rng rng(2022);
  Rng line_rng(7);
  PropagationWorkspace scalar_ws, vector_ws;
  for (const synth::Workload& workload : catalog) {
    const FireEnvironment& env = workload.environment;
    const std::vector<CellIndex> ignition{{env.rows() / 2, env.cols() / 2}};
    for (int trial = 0; trial < 3; ++trial) {
      const Scenario scenario = space.sample(rng);
      const double horizon = rng.uniform(30.0, 180.0);
      ASSERT_EQ(
          scalar.propagate(env, scenario, ignition, horizon, scalar_ws),
          vector.propagate(env, scenario, ignition, horizon, vector_ws))
          << workload.name << " trial " << trial;
    }
    // Every ground-truth fire line to the next instant, as a job runs them.
    const std::vector<FireLineStart> lines = fire_line_starts(workload);
    ASSERT_FALSE(lines.empty());
    for (std::size_t line = 0; line < lines.size(); ++line) {
      const FireLineStart& from = lines[line];
      for (int trial = 0; trial < 3; ++trial) {
        const Scenario scenario = space.sample(line_rng);
        ASSERT_EQ(scalar.propagate(env, scenario, from.start, from.horizon,
                                   scalar_ws),
                  vector.propagate(env, scenario, from.start, from.horizon,
                                   vector_ws))
            << workload.name << " line " << line << " trial " << trial;
      }
    }
  }
}

TEST(SimdRelaxSweepTest, ScalarFallbackRunsEverywhere) {
  // No skip: whatever the host, forcing scalar must produce a normal sweep
  // (this is the non-AVX2 CI lane's whole coverage of the mode knob).
  const FireSpreadModel model;
  FirePropagator propagator(model);
  propagator.set_simd_mode(simd::Mode::kScalar);
  const FireEnvironment env = uniform_env(16);
  Scenario s;
  s.model = 4;
  s.wind_speed = 6.0;
  const IgnitionMap out = propagator.propagate(env, s, {{8, 8}}, 90.0);
  EXPECT_EQ(out(8, 8), 0.0);
  EXPECT_GT(burned_count(out, 90.0), 1u);
}

}  // namespace
}  // namespace essns::firelib
