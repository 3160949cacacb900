// search_kign's one-pass counting against the per-candidate oracle
// (stage_oracles.hpp): identical Kign, fitness bits and candidate count on
// tie-heavy random grids and on the edge cases of Eq. (3)'s counts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "ess/calibration.hpp"
#include "stage_oracles.hpp"

namespace essns::ess {
namespace {

void expect_same_as_oracle(const Grid<double>& probability,
                           const Grid<std::uint8_t>& real,
                           const Grid<std::uint8_t>& pre, int candidates) {
  const KignSearchResult want =
      oracle::search_kign(probability, real, pre, candidates);
  const KignSearchResult got = search_kign(probability, real, pre, candidates);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.kign),
            std::bit_cast<std::uint64_t>(want.kign))
      << got.kign << " vs " << want.kign;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.fitness),
            std::bit_cast<std::uint64_t>(want.fitness))
      << got.fitness << " vs " << want.fitness;
  EXPECT_EQ(got.evaluated, want.evaluated);
}

// Probabilities as the Statistical Stage makes them — count * (1 / maps) —
// so many cells tie with each other and with candidate thresholds i / 100.
Grid<double> ensemble_probability(int rows, int cols, int maps, Rng& rng) {
  Grid<double> probability(rows, cols, 0.0);
  const double inv = 1.0 / static_cast<double>(maps);
  for (double& p : probability)
    p = static_cast<double>(rng.uniform_int(0, maps)) * inv;
  return probability;
}

Grid<std::uint8_t> random_mask(int rows, int cols, double density, Rng& rng) {
  Grid<std::uint8_t> mask(rows, cols, 0);
  for (auto& v : mask) v = rng.bernoulli(density) ? 1 : 0;
  return mask;
}

TEST(KignOracleTest, MatchesOracleOnTieHeavyRandomGrids) {
  Rng rng(2024);
  for (const auto& [rows, cols] :
       {std::pair{1, 1}, std::pair{5, 7}, std::pair{32, 32},
        std::pair{96, 96}}) {
    for (const int maps : {1, 3, 4, 16, 64, 100}) {
      for (const double real_density : {0.0, 0.3, 0.7, 1.0}) {
        for (const double pre_density : {0.0, 0.25}) {
          SCOPED_TRACE(testing::Message()
                       << rows << "x" << cols << " maps=" << maps
                       << " real=" << real_density << " pre=" << pre_density);
          const Grid<double> probability =
              ensemble_probability(rows, cols, maps, rng);
          const auto real = random_mask(rows, cols, real_density, rng);
          const auto pre = random_mask(rows, cols, pre_density, rng);
          for (const int candidates : {1, 2, 7, 100, 1000})
            expect_same_as_oracle(probability, real, pre, candidates);
        }
      }
    }
  }
}

TEST(KignOracleTest, MatchesOracleOnContinuousAndOutOfRangeValues) {
  Rng rng(7);
  Grid<double> probability(24, 24, 0.0);
  for (double& p : probability) p = rng.uniform(-0.5, 1.5);
  probability(0, 0) = std::numeric_limits<double>::quiet_NaN();
  probability(0, 1) = std::numeric_limits<double>::infinity();
  probability(0, 2) = -std::numeric_limits<double>::infinity();
  probability(0, 3) = -0.0;
  probability(1, 0) = std::numeric_limits<double>::quiet_NaN();
  auto real = random_mask(24, 24, 0.5, rng);
  real(1, 0) = 1;  // a real cell whose probability is NaN
  const auto pre = random_mask(24, 24, 0.1, rng);
  for (const int candidates : {1, 100, 333})
    expect_same_as_oracle(probability, real, pre, candidates);
}

TEST(KignOracleTest, AllCellsPreburnedScoresOneAtFirstCandidate) {
  Rng rng(1);
  const Grid<double> probability = ensemble_probability(8, 8, 16, rng);
  const Grid<std::uint8_t> real = random_mask(8, 8, 0.5, rng);
  const Grid<std::uint8_t> pre(8, 8, 1);
  for (const int candidates : {1, 100}) {
    expect_same_as_oracle(probability, real, pre, candidates);
    const KignSearchResult r = search_kign(probability, real, pre, candidates);
    EXPECT_EQ(r.fitness, 1.0);  // union 0
    EXPECT_EQ(r.kign, 1.0 / static_cast<double>(candidates));
  }
}

TEST(KignOracleTest, EmptyRealSet) {
  Rng rng(2);
  const Grid<std::uint8_t> real(10, 10, 0);
  const Grid<std::uint8_t> pre = random_mask(10, 10, 0.2, rng);
  // Some candidate predicts nothing: the vacuous 1.0 wins.
  const Grid<double> below_one = ensemble_probability(10, 10, 4, rng);
  Grid<double> halved = below_one;
  for (double& p : halved) p = p * 0.5;
  const Grid<double> capped = halved;
  // Every candidate predicts every cell: fitness 0 throughout.
  const Grid<double> certain(10, 10, 1.0);
  for (const Grid<double>* probability : {&below_one, &capped, &certain})
    for (const int candidates : {1, 100})
      expect_same_as_oracle(*probability, real, pre, candidates);
  EXPECT_EQ(search_kign(certain, real, pre, 100).fitness, 0.0);
  EXPECT_EQ(search_kign(capped, real, pre, 100).fitness, 1.0);
}

TEST(KignOracleTest, SingleAndHundredCandidates) {
  Rng rng(3);
  const Grid<double> probability = ensemble_probability(16, 16, 10, rng);
  const auto real = random_mask(16, 16, 0.4, rng);
  const auto pre = random_mask(16, 16, 0.1, rng);
  expect_same_as_oracle(probability, real, pre, 1);
  expect_same_as_oracle(probability, real, pre, 100);
  const KignSearchResult one = search_kign(probability, real, pre, 1);
  EXPECT_EQ(one.kign, 1.0);
  EXPECT_EQ(one.evaluated, 1);
  EXPECT_EQ(search_kign(probability, real, pre, 100).evaluated, 100);
}

TEST(KignOracleTest, FitnessPlateauKeepsFirstMaximum) {
  // Real cells at p = 0.9, others at 0.1: every K in (0.1, 0.9] is perfect,
  // and the first of them, K = 0.11, must win.
  Grid<double> probability(6, 6, 0.1);
  Grid<std::uint8_t> real(6, 6, 0);
  for (int c = 0; c < 6; ++c) {
    probability(2, c) = 0.9;
    real(2, c) = 1;
  }
  const Grid<std::uint8_t> pre(6, 6, 0);
  expect_same_as_oracle(probability, real, pre, 100);
  const KignSearchResult r = search_kign(probability, real, pre, 100);
  EXPECT_EQ(r.fitness, 1.0);
  EXPECT_EQ(r.kign, 11.0 / 100.0);
}

TEST(KignOracleTest, RejectsMismatchedDimensions) {
  const Grid<double> probability(3, 3, 0.5);
  const Grid<std::uint8_t> real(3, 4, 1), pre(3, 3, 0), wide_pre(4, 3, 0);
  EXPECT_THROW(search_kign(probability, real, pre, 10), InvalidArgument);
  EXPECT_THROW(search_kign(probability, Grid<std::uint8_t>(3, 3, 1), wide_pre,
                           10),
               InvalidArgument);
}

}  // namespace
}  // namespace essns::ess
