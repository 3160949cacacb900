#include "ea/operators.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/error.hpp"

namespace essns::ea {
namespace {

TEST(RouletteTest, ProportionalToScores) {
  Rng rng(3);
  const std::vector<double> scores{1.0, 3.0};  // expect ~25% / 75%
  std::map<std::size_t, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[roulette_select(scores, rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
}

TEST(RouletteTest, HandlesNegativeScoresByShifting) {
  Rng rng(3);
  // Shifted scores: {-1, 1} -> {0, 2}; index 1 should dominate.
  const std::vector<double> scores{-1.0, 1.0};
  int ones = 0;
  for (int i = 0; i < 2000; ++i)
    if (roulette_select(scores, rng) == 1) ++ones;
  EXPECT_GT(ones, 1900);
}

TEST(RouletteTest, UniformWhenAllEqual) {
  Rng rng(4);
  const std::vector<double> scores{2.0, 2.0, 2.0, 2.0};
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 8000; ++i) ++counts[roulette_select(scores, rng)];
  for (const auto& [idx, count] : counts)
    EXPECT_NEAR(count / 8000.0, 0.25, 0.03) << idx;
}

TEST(RouletteTest, AllZeroScoresUniform) {
  Rng rng(4);
  const std::vector<double> scores{0.0, 0.0, 0.0};
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 3000; ++i) ++counts[roulette_select(scores, rng)];
  EXPECT_EQ(counts.size(), 3u);
}

TEST(RouletteTest, EmptyThrows) {
  Rng rng(1);
  EXPECT_THROW(roulette_select({}, rng), InvalidArgument);
}

TEST(UniformCrossoverTest, ChildrenAreGeneWisePermutation) {
  Rng rng(7);
  const Genome a{0.0, 0.1, 0.2, 0.3, 0.4};
  const Genome b{1.0, 0.9, 0.8, 0.7, 0.6};
  const auto [c1, c2] = uniform_crossover(a, b, rng);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Each locus keeps both alleles between the two children.
    EXPECT_DOUBLE_EQ(c1[i] + c2[i], a[i] + b[i]);
    EXPECT_TRUE((c1[i] == a[i] && c2[i] == b[i]) ||
                (c1[i] == b[i] && c2[i] == a[i]));
  }
}

TEST(UniformCrossoverTest, ActuallySwapsSometimes) {
  Rng rng(8);
  const Genome a(32, 0.0), b(32, 1.0);
  const auto [c1, c2] = uniform_crossover(a, b, rng);
  int swapped = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (c1[i] == 1.0) ++swapped;
  EXPECT_GT(swapped, 4);
  EXPECT_LT(swapped, 28);
}

TEST(UniformCrossoverTest, MismatchedLengthsThrow) {
  Rng rng(1);
  EXPECT_THROW(uniform_crossover(Genome{0.1}, Genome{0.1, 0.2}, rng),
               InvalidArgument);
}

TEST(ReflectUnitTest, IdentityInside) {
  EXPECT_DOUBLE_EQ(reflect_unit(0.0), 0.0);
  EXPECT_DOUBLE_EQ(reflect_unit(0.37), 0.37);
  EXPECT_DOUBLE_EQ(reflect_unit(1.0), 1.0);
}

TEST(ReflectUnitTest, ReflectsOvershoot) {
  EXPECT_NEAR(reflect_unit(1.2), 0.8, 1e-12);
  EXPECT_NEAR(reflect_unit(-0.3), 0.3, 1e-12);
  EXPECT_NEAR(reflect_unit(2.4), 0.4, 1e-12);   // period-2 wrap
  EXPECT_NEAR(reflect_unit(-1.7), 0.3, 1e-12);
}

TEST(ReflectUnitTest, AlwaysLandsInUnit) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = reflect_unit(rng.uniform(-50.0, 50.0));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(GaussianMutationTest, RateZeroIsIdentity) {
  Rng rng(12);
  Genome g{0.1, 0.5, 0.9};
  const Genome before = g;
  gaussian_mutation(g, 0.0, 0.2, rng);
  EXPECT_EQ(g, before);
}

TEST(GaussianMutationTest, RateOneChangesMostGenes) {
  Rng rng(12);
  Genome g(64, 0.5);
  gaussian_mutation(g, 1.0, 0.2, rng);
  int changed = 0;
  for (double v : g) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    if (v != 0.5) ++changed;
  }
  EXPECT_GT(changed, 60);
}

TEST(GaussianMutationTest, RespectsRateStatistically) {
  Rng rng(13);
  int changed = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Genome g(10, 0.5);
    gaussian_mutation(g, 0.3, 0.5, rng);
    for (double v : g)
      if (v != 0.5) ++changed;
  }
  EXPECT_NEAR(changed / 2000.0, 0.3, 0.05);
}

TEST(MutationTest, RejectsBadRate) {
  Rng rng(1);
  Genome g{0.5};
  EXPECT_THROW(gaussian_mutation(g, 1.5, 0.1, rng), InvalidArgument);
  EXPECT_THROW(gaussian_mutation(g, -0.1, 0.1, rng), InvalidArgument);
  EXPECT_THROW(gaussian_mutation(g, 0.5, -1.0, rng), InvalidArgument);
}

}  // namespace
}  // namespace essns::ea
