#include "ea/de.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "ea/landscapes.hpp"

namespace essns::ea {
namespace {

TEST(DeTest, SolvesSphere) {
  Rng rng(1);
  DeConfig cfg;
  cfg.population_size = 24;
  const DeResult r = run_de(cfg, 5, landscapes::batch(landscapes::sphere),
                            {80, 0.999}, rng);
  EXPECT_GE(r.best.fitness, 0.99);
}

TEST(DeTest, GreedyReplacementNeverRegresses) {
  Rng rng(3);
  DeConfig cfg;
  std::vector<double> bests;
  run_de(cfg, 4, landscapes::batch(landscapes::rastrigin), {30, 2.0}, rng,
         [&](int, const Population& pop) { bests.push_back(max_fitness(pop)); });
  for (std::size_t i = 1; i < bests.size(); ++i)
    EXPECT_GE(bests[i], bests[i - 1] - 1e-12);
}

TEST(DeTest, DeterministicForSameSeed) {
  DeConfig cfg;
  Rng a(7), b(7);
  const auto ra =
      run_de(cfg, 4, landscapes::batch(landscapes::rastrigin), {15, 2.0}, a);
  const auto rb =
      run_de(cfg, 4, landscapes::batch(landscapes::rastrigin), {15, 2.0}, b);
  EXPECT_EQ(ra.best.genome, rb.best.genome);
}

TEST(DeTest, PopulationStaysInUnitBox) {
  Rng rng(4);
  DeConfig cfg;
  cfg.differential_weight = 1.9;  // aggressive steps force reflection
  const auto r =
      run_de(cfg, 6, landscapes::batch(landscapes::sphere), {20, 2.0}, rng);
  for (const auto& ind : r.population)
    for (double g : ind.genome) {
      EXPECT_GE(g, 0.0);
      EXPECT_LE(g, 1.0);
    }
}

TEST(DeTest, EvaluationBudgetAccounting) {
  Rng rng(5);
  DeConfig cfg;
  cfg.population_size = 12;
  std::size_t calls = 0;
  const auto r = run_de(cfg, 3,
                        landscapes::counting_batch(landscapes::sphere, &calls),
                        {8, 2.0}, rng);
  EXPECT_EQ(r.evaluations, 12u + 8u * 12u);
  EXPECT_EQ(calls, r.evaluations);
}

TEST(DeTest, TuningHookInvokedAndCounted) {
  Rng rng(6);
  DeConfig cfg;
  int invocations = 0;
  const auto r = run_de(
      cfg, 3, landscapes::batch(landscapes::sphere), {10, 2.0}, rng, nullptr,
      [&](int gen, Population&) {
        ++invocations;
        return gen == 5;  // pretend we intervened once
      });
  EXPECT_EQ(invocations, 10);
  EXPECT_EQ(r.tuning_events, 1);
}

TEST(DeTest, TuningMayInjectUnevaluatedIndividuals) {
  Rng rng(7);
  DeConfig cfg;
  cfg.population_size = 8;
  const auto r = run_de(
      cfg, 3, landscapes::batch(landscapes::sphere), {6, 2.0}, rng, nullptr,
      [&](int, Population& pop) {
        // Invalidate half the population, as a restart operator would.
        for (std::size_t i = 0; i < 4; ++i) {
          pop[i].genome = Genome{0.1, 0.1, 0.1};
          pop[i].fitness = std::numeric_limits<double>::quiet_NaN();
        }
        return true;
      });
  for (const auto& ind : r.population) EXPECT_TRUE(ind.evaluated());
}

TEST(DeTest, SeededInitialPopulation) {
  Rng rng(8);
  DeConfig cfg;
  cfg.population_size = 6;
  Population seed(6);
  for (auto& ind : seed) ind.genome = Genome{0.9, 0.9};
  const auto r = run_de(cfg, 2, landscapes::batch(landscapes::sphere), {0, 2.0},
                        rng, nullptr, nullptr, &seed);
  // Zero generations: the seeded population comes back evaluated, unchanged.
  ASSERT_EQ(r.population.size(), 6u);
  for (const auto& ind : r.population) {
    EXPECT_EQ(ind.genome, (Genome{0.9, 0.9}));
    EXPECT_TRUE(ind.evaluated());
  }
}

TEST(DeTest, RejectsBadConfig) {
  Rng rng(1);
  DeConfig small;
  small.population_size = 3;
  EXPECT_THROW(
      run_de(small, 2, landscapes::batch(landscapes::sphere), {1, 1.0}, rng),
      InvalidArgument);
  DeConfig bad_f;
  bad_f.differential_weight = 0.0;
  EXPECT_THROW(
      run_de(bad_f, 2, landscapes::batch(landscapes::sphere), {1, 1.0}, rng),
      InvalidArgument);
  DeConfig bad_cr;
  bad_cr.crossover_rate = 1.5;
  EXPECT_THROW(
      run_de(bad_cr, 2, landscapes::batch(landscapes::sphere), {1, 1.0}, rng),
      InvalidArgument);
}

TEST(DeTest, StagnatesOnDeceptiveTrap) {
  // The motivating failure: on a deceptive landscape DE converges to the
  // deceptive attractor (fitness 0.8) and rarely reaches the global optimum.
  int successes = 0;
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 100);
    DeConfig cfg;
    cfg.population_size = 20;
    const auto r = run_de(cfg, 8, landscapes::batch(landscapes::deceptive_trap),
                          {60, 0.97}, rng);
    if (r.best.fitness >= 0.97) ++successes;
  }
  EXPECT_LE(successes, 3);
}

}  // namespace
}  // namespace essns::ea
