#include "core/ns_ga.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ea/landscapes.hpp"
#include "metrics/diversity.hpp"

namespace essns::core {
namespace {

namespace landscapes = ea::landscapes;

TEST(NsGaTest, ReturnsNonEmptyBestSet) {
  Rng rng(1);
  NsGaConfig cfg;
  const NsGaResult r = run_ns_ga(cfg, 4, landscapes::batch(landscapes::sphere),
                                 {10, 2.0}, rng);
  EXPECT_FALSE(r.best_set.empty());
  EXPECT_LE(r.best_set.size(), cfg.best_set_capacity);
  EXPECT_EQ(r.generations, 10);
}

TEST(NsGaTest, BestSetSortedAndEvaluated) {
  Rng rng(2);
  NsGaConfig cfg;
  const NsGaResult r = run_ns_ga(cfg, 4, landscapes::batch(landscapes::sphere),
                                 {15, 2.0}, rng);
  for (std::size_t i = 0; i < r.best_set.size(); ++i) {
    EXPECT_TRUE(r.best_set[i].evaluated());
    if (i) {
      EXPECT_GE(r.best_set[i - 1].fitness, r.best_set[i].fitness);
    }
  }
  EXPECT_DOUBLE_EQ(r.max_fitness, r.best_set.front().fitness);
}

TEST(NsGaTest, FitnessThresholdStops) {
  Rng rng(3);
  NsGaConfig cfg;
  const NsGaResult r = run_ns_ga(cfg, 3, landscapes::batch(landscapes::sphere),
                                 {500, 0.5}, rng);
  EXPECT_LT(r.generations, 500);
  EXPECT_GE(r.max_fitness, 0.5);
}

TEST(NsGaTest, DeterministicForSameSeed) {
  NsGaConfig cfg;
  Rng a(11), b(11);
  const auto ra = run_ns_ga(cfg, 4, landscapes::batch(landscapes::rastrigin),
                            {12, 2.0}, a);
  const auto rb = run_ns_ga(cfg, 4, landscapes::batch(landscapes::rastrigin),
                            {12, 2.0}, b);
  ASSERT_EQ(ra.best_set.size(), rb.best_set.size());
  for (std::size_t i = 0; i < ra.best_set.size(); ++i)
    EXPECT_EQ(ra.best_set[i].genome, rb.best_set[i].genome);
}

TEST(NsGaTest, MaxFitnessMonotoneOverGenerations) {
  // bestSet only accumulates, so its max fitness never decreases.
  Rng rng(4);
  NsGaConfig cfg;
  const NsGaResult r = run_ns_ga(
      cfg, 4, landscapes::batch(landscapes::rastrigin), {20, 2.0}, rng);
  EXPECT_GE(r.max_fitness, 0.0);
}

TEST(NsGaTest, PopulationStaysDiverse) {
  // The defining contrast with the GA: after many generations the NS
  // population has NOT collapsed genotypically.
  Rng rng(5);
  NsGaConfig cfg;
  cfg.population_size = 24;
  cfg.offspring_count = 24;
  const NsGaResult r = run_ns_ga(
      cfg, 2, landscapes::batch(landscapes::sphere), {80, 2.0}, rng);
  ea::Population pop = r.population;
  EXPECT_GT(metrics::genotypic_diversity(pop), 0.1);
}

TEST(NsGaTest, ArchiveRespectsCapacity) {
  Rng rng(6);
  NsGaConfig cfg;
  cfg.archive.capacity = 10;
  const NsGaResult r = run_ns_ga(cfg, 3, landscapes::batch(landscapes::sphere),
                                 {30, 2.0}, rng);
  EXPECT_LE(r.archive.size(), 10u);
  EXPECT_FALSE(r.archive.empty());
}

TEST(NsGaTest, ObserverCalledPerGeneration) {
  Rng rng(7);
  NsGaConfig cfg;
  int calls = 0;
  run_ns_ga(cfg, 3, landscapes::batch(landscapes::sphere), {5, 2.0}, rng,
            [&](int gen, const ea::Population&) { EXPECT_EQ(gen, calls++); });
  EXPECT_EQ(calls, 6);  // generations 0..5
}

TEST(NsGaTest, EvaluationAccounting) {
  Rng rng(8);
  NsGaConfig cfg;
  cfg.population_size = 10;
  cfg.offspring_count = 14;
  std::size_t calls = 0;
  const auto r =
      run_ns_ga(cfg, 3, landscapes::counting_batch(landscapes::sphere, &calls),
                {6, 2.0}, rng);
  EXPECT_EQ(r.evaluations, 10u + 6u * 14u);
  EXPECT_EQ(calls, r.evaluations);
}

TEST(NsGaTest, RejectsBadConfig) {
  Rng rng(1);
  NsGaConfig tiny;
  tiny.population_size = 1;
  EXPECT_THROW(run_ns_ga(tiny, 2, landscapes::batch(landscapes::sphere),
                         {1, 1.0}, rng),
               InvalidArgument);
}

TEST(NsGaTest, PopulationSizeStableAcrossGenerations) {
  Rng rng(12);
  NsGaConfig cfg;
  cfg.population_size = 9;
  cfg.offspring_count = 5;
  run_ns_ga(cfg, 3, landscapes::batch(landscapes::sphere), {8, 2.0}, rng,
            [&](int, const ea::Population& pop) {
              EXPECT_EQ(pop.size(), 9u);
            });
}

TEST(NsGaTest, BestSetRemembersTransientHighFitness) {
  // Feed a fitness function that rewards a region the novelty-driven
  // population will pass through and leave; the bestSet must retain it.
  Rng rng(13);
  NsGaConfig cfg;
  cfg.population_size = 16;
  cfg.offspring_count = 16;
  cfg.best_set_capacity = 8;
  const auto r = run_ns_ga(cfg, 1, landscapes::batch(landscapes::two_peaks),
                           {60, 2.0}, rng);
  // The wide local peak at 0.2 (fitness 0.7) is found essentially always;
  // check the bestSet retained something at least that good even though the
  // final population has wandered elsewhere.
  EXPECT_GE(r.max_fitness, 0.69);
}

}  // namespace
}  // namespace essns::core
