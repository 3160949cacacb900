#include "ea/landscapes.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace essns::ea::landscapes {
namespace {

TEST(SphereTest, MaximumAtCenter) {
  EXPECT_DOUBLE_EQ(sphere(Genome{0.5, 0.5, 0.5}), 1.0);
}

TEST(SphereTest, ZeroAtCorners) {
  EXPECT_NEAR(sphere(Genome{0.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(sphere(Genome{1.0, 1.0}), 0.0, 1e-12);
}

TEST(SphereTest, MonotoneTowardCenter) {
  EXPECT_GT(sphere(Genome{0.6}), sphere(Genome{0.8}));
  EXPECT_GT(sphere(Genome{0.45}), sphere(Genome{0.2}));
}

TEST(RastriginTest, GlobalMaximumAtCenter) {
  const Genome center(4, 0.5);
  EXPECT_NEAR(rastrigin(center), 1.0, 1e-9);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    Genome g(4);
    for (double& x : g) x = rng.uniform();
    EXPECT_LE(rastrigin(g), 1.0 + 1e-12);
  }
}

TEST(RastriginTest, IsMultimodal) {
  // Local maxima exist away from the center: find a point better than its
  // surroundings but worse than global optimum.
  const Genome local{0.5 + 1.0 / 10.24};  // near z = 1 (a local peak)
  const Genome nearby{0.5 + 1.45 / 10.24};
  EXPECT_GT(rastrigin(local), rastrigin(nearby));
  EXPECT_LT(rastrigin(local), 1.0);
}

TEST(DeceptiveTrapTest, GlobalOptimumAtAllOnes) {
  EXPECT_DOUBLE_EQ(deceptive_trap(Genome{1.0, 1.0, 1.0}), 1.0);
}

TEST(DeceptiveTrapTest, DeceptiveAttractorAtZero) {
  EXPECT_NEAR(deceptive_trap(Genome{0.0}), 0.8, 1e-12);
}

TEST(DeceptiveTrapTest, GradientPointsAwayFromOptimumBelowThreshold) {
  // Moving from 0.3 to 0.5 (toward the global optimum!) lowers fitness.
  EXPECT_GT(deceptive_trap(Genome{0.3}), deceptive_trap(Genome{0.5}));
  // And moving toward zero raises it.
  EXPECT_GT(deceptive_trap(Genome{0.1}), deceptive_trap(Genome{0.3}));
}

TEST(DeceptiveTrapTest, ValleyAtThreshold) {
  EXPECT_NEAR(deceptive_trap(Genome{0.8}), 0.0, 1e-12);
}

TEST(TwoPeaksTest, NarrowGlobalWideLocal) {
  EXPECT_DOUBLE_EQ(two_peaks(Genome{0.95}), 1.0);
  EXPECT_NEAR(two_peaks(Genome{0.2}), 0.7, 1e-12);
  EXPECT_LT(two_peaks(Genome{0.5}), 0.2);
}

TEST(TwoPeaksTest, OnlyFirstGeneMatters) {
  EXPECT_DOUBLE_EQ(two_peaks(Genome{0.95, 0.1, 0.9}),
                   two_peaks(Genome{0.95, 0.7, 0.3}));
}

TEST(LandscapesTest, EmptyGenomeThrows) {
  EXPECT_THROW(sphere(Genome{}), InvalidArgument);
  EXPECT_THROW(rastrigin(Genome{}), InvalidArgument);
  EXPECT_THROW(deceptive_trap(Genome{}), InvalidArgument);
  EXPECT_THROW(two_peaks(Genome{}), InvalidArgument);
}

TEST(BatchTest, MapsAllGenomes) {
  const auto evaluator = batch(sphere);
  const auto out = evaluator({Genome{0.5}, Genome{0.0}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_NEAR(out[1], 0.0, 1e-12);
}

TEST(CountingBatchTest, CountsEvaluations) {
  std::size_t counter = 0;
  const auto evaluator = counting_batch(sphere, &counter);
  evaluator({Genome{0.5}, Genome{0.2}, Genome{0.9}});
  evaluator({Genome{0.1}});
  EXPECT_EQ(counter, 4u);
}

struct Landscape {
  const char* name;
  double (*fn)(const Genome&);
};

// gtest prints the parameter into the test name ctest registers; print the
// landscape's name, not its function address, which moves from run to run.
void PrintTo(const Landscape& l, std::ostream* os) { *os << l.name; }

class LandscapeBounds : public ::testing::TestWithParam<Landscape> {};

TEST_P(LandscapeBounds, ValuesStayInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Genome g(6);
    for (double& x : g) x = rng.uniform();
    const double v = GetParam().fn(g);
    EXPECT_GE(v, 0.0 - 1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLandscapes, LandscapeBounds,
                         ::testing::Values(Landscape{"sphere", &sphere},
                                           Landscape{"rastrigin", &rastrigin},
                                           Landscape{"deceptive_trap",
                                                     &deceptive_trap},
                                           Landscape{"two_peaks", &two_peaks}));

}  // namespace
}  // namespace essns::ea::landscapes
