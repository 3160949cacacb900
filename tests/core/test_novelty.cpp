#include "core/novelty.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/novelty_oracle.hpp"

namespace essns::core {
namespace {

ea::Individual make(double fitness, ea::Genome genome = {0.5}) {
  ea::Individual ind;
  ind.genome = std::move(genome);
  ind.fitness = fitness;
  return ind;
}

/// Eq. (1) for one individual through evaluate_novelty, checked bit for bit
/// against the generic k-NN oracle.
double novelty_score(const ea::Individual& x,
                     const std::vector<ea::Individual>& reference, int k) {
  std::vector<ea::Individual> pop{x};
  evaluate_novelty(pop, reference, k);
  EXPECT_EQ(pop[0].novelty, oracle::novelty_score(x, reference, k));
  return pop[0].novelty;
}

TEST(FitnessDistanceTest, AbsoluteDifference) {
  EXPECT_DOUBLE_EQ(fitness_distance(make(0.3), make(0.8)), 0.5);
  EXPECT_DOUBLE_EQ(fitness_distance(make(0.8), make(0.3)), 0.5);  // symmetric
  EXPECT_DOUBLE_EQ(fitness_distance(make(0.4), make(0.4)), 0.0);
}

TEST(FitnessDistanceTest, RequiresEvaluated) {
  ea::Individual unevaluated;
  unevaluated.genome = {0.5};
  EXPECT_THROW(fitness_distance(make(0.5), unevaluated), InvalidArgument);
}

TEST(NoveltyScoreTest, MeanOfKNearestFitnessDistances) {
  // Eq. (1) hand-computed: x fitness 0.5, refs at 0.1/0.4/0.45/0.9.
  // Distances: 0.4, 0.1, 0.05, 0.4 -> 2 nearest are 0.05, 0.1 -> mean 0.075.
  const auto x = make(0.5, {0.9});
  std::vector<ea::Individual> refs{make(0.1, {0.1}), make(0.4, {0.2}),
                                   make(0.45, {0.3}), make(0.9, {0.4})};
  EXPECT_NEAR(novelty_score(x, refs, 2), 0.075, 1e-12);
}

TEST(NoveltyScoreTest, KLargerThanSetUsesAll) {
  const auto x = make(0.5, {0.9});
  std::vector<ea::Individual> refs{make(0.3, {0.1}), make(0.7, {0.2})};
  // Distances 0.2, 0.2 -> mean 0.2 regardless of k >= 2.
  EXPECT_NEAR(novelty_score(x, refs, 10), 0.2, 1e-12);
}

TEST(NoveltyScoreTest, KNonPositiveUsesWholeSet) {
  // The §II-C "entire population" variant.
  const auto x = make(0.5, {0.9});
  std::vector<ea::Individual> refs{make(0.1, {0.1}), make(0.4, {0.2}),
                                   make(0.9, {0.3})};
  // Distances 0.4, 0.1, 0.4 -> mean 0.3.
  EXPECT_NEAR(novelty_score(x, refs, 0), 0.3, 1e-12);
  EXPECT_NEAR(novelty_score(x, refs, -5), 0.3, 1e-12);
}

TEST(NoveltyScoreTest, SkipsExactlyOneSelfCopy) {
  // x appears in the reference set (as Algorithm 1 builds noveltySet);
  // its self-distance of 0 must not consume a neighbour slot.
  const auto x = make(0.5, {0.9});
  std::vector<ea::Individual> refs{x, make(0.2, {0.1}), make(0.7, {0.2})};
  // Without self: distances 0.3, 0.2 -> k=2 mean 0.25.
  EXPECT_NEAR(novelty_score(x, refs, 2), 0.25, 1e-12);
}

TEST(NoveltyScoreTest, TrueDuplicateIndividualsStillCount) {
  // Two *other* individuals with identical behaviour both count; only one
  // self copy is skipped.
  const auto x = make(0.5, {0.9});
  std::vector<ea::Individual> refs{x, x, make(0.7, {0.2})};
  // One x skipped; remaining distances: 0.0 (the duplicate) and 0.2.
  EXPECT_NEAR(novelty_score(x, refs, 2), 0.1, 1e-12);
}

TEST(NoveltyScoreTest, EmptyReferenceScoresZero) {
  const auto x = make(0.5);
  EXPECT_DOUBLE_EQ(novelty_score(x, {}, 3), 0.0);
  std::vector<ea::Individual> only_self{x};
  EXPECT_DOUBLE_EQ(novelty_score(x, only_self, 3), 0.0);
}

TEST(NoveltyScoreTest, OutlierScoresHigherThanClusterMember) {
  std::vector<ea::Individual> cluster;
  for (int i = 0; i < 10; ++i)
    cluster.push_back(make(0.5 + 0.001 * i, {0.1 * i}));
  const auto member = make(0.5005, {0.95});
  const auto outlier = make(0.95, {0.96});
  EXPECT_GT(novelty_score(outlier, cluster, 5),
            novelty_score(member, cluster, 5));
}

TEST(EvaluateNoveltyTest, ScoresWholePopulationInPlace) {
  std::vector<ea::Individual> pop{make(0.1, {0.1}), make(0.5, {0.5}),
                                  make(0.9, {0.9})};
  std::vector<ea::Individual> reference = pop;
  evaluate_novelty(pop, reference, 1);
  // Nearest neighbours by fitness: 0.1->0.5 (0.4), 0.5->0.1 or 0.9 (0.4),
  // 0.9->0.5 (0.4).
  for (const auto& ind : pop) EXPECT_NEAR(ind.novelty, 0.4, 1e-12);
}

// The sorted 1-D window (sorted fitnesses + two-pointer k-window) must
// reproduce the generic k-NN oracle bit for bit: same multiset of neighbour
// distances, same ascending accumulation order, same self-skip semantics.
TEST(EvaluateNoveltyTest, FastPathMatchesGenericBitwise) {
  Rng rng(314);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t pop_size = 1 + rng.uniform_int(0, 19);
    const std::size_t extra = rng.uniform_int(0, 29);
    std::vector<ea::Individual> pop;
    for (std::size_t i = 0; i < pop_size; ++i) {
      // Coarse fitness quantization forces plenty of exact ties, the hard
      // case for the self-skip and window logic.
      const double fitness =
          rng.bernoulli(0.5) ? rng.uniform(0.0, 1.0)
                             : std::floor(rng.uniform(0.0, 5.0)) / 4.0;
      pop.push_back(make(fitness, {rng.uniform(0.0, 1.0)}));
    }
    // Reference = copy of pop (value self-skip applies) plus extras, as
    // Algorithm 1 builds noveltySet.
    std::vector<ea::Individual> reference = pop;
    for (std::size_t i = 0; i < extra; ++i) {
      const double fitness = rng.bernoulli(0.5)
                                 ? rng.uniform(0.0, 1.0)
                                 : std::floor(rng.uniform(0.0, 5.0)) / 4.0;
      reference.push_back(make(fitness, {rng.uniform(0.0, 1.0)}));
    }
    const int k = static_cast<int>(rng.uniform_int(-1, 12));

    std::vector<ea::Individual> fast = pop;
    std::vector<ea::Individual> slow = pop;
    evaluate_novelty(fast, reference, k);
    oracle::evaluate_novelty(slow, reference, k);
    for (std::size_t i = 0; i < pop.size(); ++i)
      ASSERT_EQ(fast[i].novelty, slow[i].novelty)
          << "trial " << trial << " individual " << i << " k " << k;
  }
}

TEST(EvaluateNoveltyTest, FastPathHandlesPopAliasingReference) {
  // When the caller passes the same storage as pop and reference, the
  // address-based self-skip must engage in the library and the oracle.
  std::vector<ea::Individual> pop{make(0.1, {0.1}), make(0.5, {0.5}),
                                  make(0.5, {0.6}), make(0.9, {0.9})};
  std::vector<ea::Individual> slow = pop;
  const std::vector<ea::Individual> slow_ref = slow;
  evaluate_novelty(pop, {pop.data(), pop.size()}, 2);
  oracle::evaluate_novelty(slow, slow_ref, 2);
  for (std::size_t i = 0; i < pop.size(); ++i)
    EXPECT_EQ(pop[i].novelty, slow[i].novelty) << i;
}

TEST(EvaluateNoveltyTest, FastPathFallsBackOnUnevaluated) {
  // An unevaluated reference individual has no Eq. (2) distance: it must
  // raise, not be silently skipped by the sorted window.
  std::vector<ea::Individual> pop{make(0.5, {0.5})};
  std::vector<ea::Individual> reference{make(0.2, {0.2})};
  reference.push_back({});  // unevaluated
  reference.back().genome = {0.1};
  EXPECT_THROW(evaluate_novelty(pop, reference, 2), InvalidArgument);
}

TEST(EvaluateNoveltyTest, MiddleIndividualLeastNovel) {
  std::vector<ea::Individual> pop{make(0.0, {0.0}), make(0.5, {0.5}),
                                  make(0.55, {0.6}), make(1.0, {1.0})};
  std::vector<ea::Individual> reference = pop;
  evaluate_novelty(pop, reference, 2);
  // The 0.5/0.55 pair is crowded; endpoints are more novel.
  EXPECT_GT(pop[0].novelty, pop[1].novelty);
  EXPECT_GT(pop[3].novelty, pop[2].novelty);
}

}  // namespace
}  // namespace essns::core
