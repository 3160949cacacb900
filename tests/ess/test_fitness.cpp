#include "ess/fitness.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/error.hpp"
#include "stage_oracles.hpp"

namespace essns::ess {
namespace {

Grid<std::uint8_t> mask(std::initializer_list<std::initializer_list<int>> rows) {
  const int r = static_cast<int>(rows.size());
  const int c = static_cast<int>(rows.begin()->size());
  Grid<std::uint8_t> m(r, c, 0);
  int i = 0;
  for (const auto& row : rows) {
    int j = 0;
    for (int v : row) m(i, j++) = static_cast<std::uint8_t>(v);
    ++i;
  }
  return m;
}

TEST(JaccardTest, PerfectMatchIsOne) {
  const auto a = mask({{1, 1}, {0, 0}});
  const auto none = mask({{0, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(jaccard(a, a, none), 1.0);
}

TEST(JaccardTest, DisjointIsZero) {
  const auto a = mask({{1, 0}, {0, 0}});
  const auto b = mask({{0, 0}, {0, 1}});
  const auto none = mask({{0, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(jaccard(a, b, none), 0.0);
}

TEST(JaccardTest, PartialOverlap) {
  // |A ∩ B| = 1, |A ∪ B| = 3.
  const auto a = mask({{1, 1}, {0, 0}});
  const auto b = mask({{1, 0}, {1, 0}});
  const auto none = mask({{0, 0}, {0, 0}});
  EXPECT_NEAR(jaccard(a, b, none), 1.0 / 3.0, 1e-12);
}

TEST(JaccardTest, PreburnedCellsExcluded) {
  // Both maps agree on the preburned cell; including it would give 1/3, but
  // Eq. (3) excludes it, leaving no agreement at all — exactly the
  // optimistic skew the paper's formulation removes.
  const auto a = mask({{1, 1}, {0, 0}});
  const auto b = mask({{1, 0}, {1, 0}});
  const auto pre = mask({{1, 0}, {0, 0}});
  EXPECT_NEAR(jaccard(a, b, pre), 0.0 / 2.0, 1e-12);
}

TEST(JaccardTest, EverythingPreburnedIsVacuouslyPerfect) {
  const auto a = mask({{1, 1}, {1, 1}});
  const auto pre = mask({{1, 1}, {1, 1}});
  const auto b = mask({{0, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(jaccard(a, b, pre), 1.0);
}

TEST(JaccardTest, BothEmptyIsPerfect) {
  const auto none = mask({{0, 0}, {0, 0}});
  EXPECT_DOUBLE_EQ(jaccard(none, none, none), 1.0);
}

TEST(JaccardTest, SymmetricInArguments) {
  const auto a = mask({{1, 1, 0}, {0, 1, 0}});
  const auto b = mask({{1, 0, 1}, {0, 1, 1}});
  const auto none = mask({{0, 0, 0}, {0, 0, 0}});
  EXPECT_DOUBLE_EQ(jaccard(a, b, none), jaccard(b, a, none));
}

TEST(JaccardTest, BoundedZeroOne) {
  Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    Grid<std::uint8_t> a(4, 4, 0), b(4, 4, 0), pre(4, 4, 0);
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        a(r, c) = rng.bernoulli(0.5);
        b(r, c) = rng.bernoulli(0.5);
        pre(r, c) = rng.bernoulli(0.2);
      }
    }
    const double f = jaccard(a, b, pre);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
  }
}

TEST(JaccardTest, DimensionMismatchThrows) {
  Grid<std::uint8_t> a(2, 2, 0), b(2, 3, 0), pre(2, 2, 0);
  EXPECT_THROW(jaccard(a, b, pre), InvalidArgument);
}

/// Eq. (3) as production computes it: the real map packed into a scoring
/// target, the simulated map into its burned cells.
double jaccard_words(const firelib::IgnitionMap& real,
                     const firelib::IgnitionMap& sim, double time_min,
                     double preburned_time) {
  return jaccard(make_scoring_target(real, preburned_time, time_min),
                 firelib::burned_cells(sim, time_min));
}

TEST(JaccardAtTest, ComparesIgnitionMapsAtTime) {
  firelib::IgnitionMap real(2, 2, firelib::kNeverIgnited);
  firelib::IgnitionMap sim(2, 2, firelib::kNeverIgnited);
  real(0, 0) = 0.0;   // preburned at t=0
  real(0, 1) = 30.0;  // burned within the step
  sim(0, 0) = 0.0;
  sim(0, 1) = 25.0;   // simulated also burns it
  sim(1, 0) = 40.0;   // extra simulated cell
  // At t=60, excluding t<=0 preburned: A={0,1}, B={0,1 and 1,0}.
  EXPECT_NEAR(jaccard_words(real, sim, 60.0, 0.0), 0.5, 1e-12);
}

TEST(JaccardAtTest, RejectsInvertedTimes) {
  firelib::IgnitionMap real(2, 2, firelib::kNeverIgnited);
  EXPECT_THROW(make_scoring_target(real, 20.0, 10.0), InvalidArgument);
}

TEST(JaccardAtTest, RejectsNonFiniteTimes) {
  // At time_min = kNeverIgnited every never-ignited cell would count as
  // burned (inf <= inf) and two empty maps would score a spuriously perfect
  // 1. The scoring target and the oracle take finite times only.
  firelib::IgnitionMap real(2, 2, firelib::kNeverIgnited);
  firelib::IgnitionMap sim(2, 2, firelib::kNeverIgnited);
  real(0, 0) = 1.0;
  EXPECT_THROW(make_scoring_target(real, 0.0, firelib::kNeverIgnited),
               InvalidArgument);
  EXPECT_THROW(oracle::jaccard_at(real, sim, firelib::kNeverIgnited, 0.0),
               InvalidArgument);
  EXPECT_THROW(make_scoring_target(real, -firelib::kNeverIgnited, 10.0),
               InvalidArgument);
  EXPECT_THROW(make_scoring_target(real, 0.0, std::nan("")), InvalidArgument);
}

TEST(JaccardAtTest, RejectsDimensionMismatch) {
  firelib::IgnitionMap real(2, 2, firelib::kNeverIgnited);
  firelib::IgnitionMap sim(2, 3, firelib::kNeverIgnited);
  EXPECT_THROW(jaccard_words(real, sim, 10.0, 0.0), InvalidArgument);
  // 8x8 and 4x16 pack into one word each; the shape still differs.
  EXPECT_THROW(jaccard_words(firelib::IgnitionMap(8, 8, 0.0),
                             firelib::IgnitionMap(4, 16, 0.0), 10.0, 0.0),
               InvalidArgument);
}

TEST(JaccardAtTest, FusedKernelMatchesReferenceBitwise) {
  // Property: Eq. (3) on words equals the per-cell oracle bit for bit on
  // random maps with never-ignited cells, over grids whose cell counts are
  // and are not multiples of 64, sparse to dense fires, random and
  // exact-boundary times, and empty unions (every fourth trial burns
  // nothing, so it must score a vacuous 1).
  Rng rng(99);
  for (const auto& [rows, cols] :
       {std::pair{1, 1}, std::pair{2, 7}, std::pair{8, 8}, std::pair{5, 13},
        std::pair{9, 64}, std::pair{33, 31}, std::pair{96, 96}}) {
    for (int trial = 0; trial < 40; ++trial) {
      const double share = trial % 4 == 0 ? 0.0 : rng.uniform(0.0, 1.0);
      firelib::IgnitionMap real(rows, cols, firelib::kNeverIgnited);
      firelib::IgnitionMap sim(rows, cols, firelib::kNeverIgnited);
      for (double& t : real)
        if (rng.bernoulli(share)) t = rng.uniform(0.0, 100.0);
      for (double& t : sim)
        if (rng.bernoulli(share)) t = rng.uniform(0.0, 100.0);
      double preburned = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 50.0);
      if (trial % 3 == 0 && real.data()[0] <= 50.0)
        preburned = real.data()[0];  // a cell exactly on the boundary
      const double time = preburned + rng.uniform(0.0, 60.0);
      const double words = jaccard_words(real, sim, time, preburned);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(words),
                std::bit_cast<std::uint64_t>(
                    oracle::jaccard_at(real, sim, time, preburned)))
          << rows << "x" << cols << " trial " << trial;
      if (share == 0.0) {
        ASSERT_EQ(words, 1.0);
      }
    }
  }
}

}  // namespace
}  // namespace essns::ess
