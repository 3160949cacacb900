#include "core/map_elites.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "ea/landscapes.hpp"

namespace essns::core {
namespace {

namespace landscapes = ea::landscapes;

// Descriptor: the first two genes — a transparent behaviour space.
std::vector<double> first_two_genes(const ea::Genome& g) {
  return {g[0], g.size() > 1 ? g[1] : 0.0};
}

MapElitesConfig small_config() {
  MapElitesConfig cfg;
  cfg.grid_dims = {5, 5};
  cfg.bounds = {{0.0, 1.0}, {0.0, 1.0}};
  cfg.initial_samples = 50;
  cfg.batch_size = 25;
  return cfg;
}

TEST(MapElitesTest, ElitesLandInDistinctCells) {
  Rng rng(1);
  const auto r = run_map_elites(small_config(), 4,
                                landscapes::batch(landscapes::sphere),
                                &first_two_genes, {20, 2.0}, rng);
  EXPECT_FALSE(r.elites.empty());
  EXPECT_LE(r.elites.size(), 25u);
  // Each elite must map to a distinct cell.
  std::set<std::pair<int, int>> cells;
  for (const auto& e : r.elites) {
    const int c0 = std::min(4, static_cast<int>(e.descriptor[0] * 5));
    const int c1 = std::min(4, static_cast<int>(e.descriptor[1] * 5));
    EXPECT_TRUE(cells.insert({c0, c1}).second)
        << "duplicate cell " << c0 << "," << c1;
  }
}

TEST(MapElitesTest, CoverageGrowsWithBudget) {
  Rng a(2), b(2);
  const auto quick = run_map_elites(small_config(), 4,
                                    landscapes::batch(landscapes::sphere),
                                    &first_two_genes, {2, 2.0}, a);
  const auto longer = run_map_elites(small_config(), 4,
                                     landscapes::batch(landscapes::sphere),
                                     &first_two_genes, {60, 2.0}, b);
  EXPECT_GE(longer.coverage, quick.coverage);
  EXPECT_GT(longer.coverage, 0.5);  // 5x5 grid over uniform genes fills up
}

TEST(MapElitesTest, ElitesSortedByFitnessAndMaxMatches) {
  Rng rng(3);
  const auto r = run_map_elites(small_config(), 3,
                                landscapes::batch(landscapes::rastrigin),
                                &first_two_genes, {30, 2.0}, rng);
  for (std::size_t i = 1; i < r.elites.size(); ++i)
    EXPECT_GE(r.elites[i - 1].fitness, r.elites[i].fitness);
  EXPECT_DOUBLE_EQ(r.max_fitness, r.elites.front().fitness);
}

TEST(MapElitesTest, FitnessThresholdStops) {
  Rng rng(4);
  const auto r = run_map_elites(small_config(), 3,
                                landscapes::batch(landscapes::sphere),
                                &first_two_genes, {10000, 0.9}, rng);
  EXPECT_LT(r.iterations, 10000);
  EXPECT_GE(r.max_fitness, 0.9);
}

TEST(MapElitesTest, CellEliteOnlyImproves) {
  // Run twice with nested budgets and the same seed: per-cell fitness in the
  // longer run must be >= the shorter run's (cells only ever improve).
  auto run_with = [&](int iterations) {
    Rng rng(5);
    return run_map_elites(small_config(), 3,
                          landscapes::batch(landscapes::sphere),
                          &first_two_genes, {iterations, 2.0}, rng);
  };
  const auto short_run = run_with(5);
  const auto long_run = run_with(40);
  auto cell_key = [](const ea::Individual& e) {
    return std::make_pair(std::min(4, static_cast<int>(e.descriptor[0] * 5)),
                          std::min(4, static_cast<int>(e.descriptor[1] * 5)));
  };
  std::map<std::pair<int, int>, double> short_cells;
  for (const auto& e : short_run.elites) short_cells[cell_key(e)] = e.fitness;
  for (const auto& e : long_run.elites) {
    auto it = short_cells.find(cell_key(e));
    if (it != short_cells.end()) {
      EXPECT_GE(e.fitness, it->second - 1e-12);
    }
  }
}

TEST(MapElitesTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  const auto r1 = run_map_elites(small_config(), 3,
                                 landscapes::batch(landscapes::sphere),
                                 &first_two_genes, {10, 2.0}, a);
  const auto r2 = run_map_elites(small_config(), 3,
                                 landscapes::batch(landscapes::sphere),
                                 &first_two_genes, {10, 2.0}, b);
  ASSERT_EQ(r1.elites.size(), r2.elites.size());
  for (std::size_t i = 0; i < r1.elites.size(); ++i)
    EXPECT_EQ(r1.elites[i].genome, r2.elites[i].genome);
}

TEST(MapElitesTest, RejectsBadConfig) {
  Rng rng(1);
  const auto evaluate = landscapes::batch(landscapes::sphere);
  MapElitesConfig no_grid;
  no_grid.grid_dims = {};
  no_grid.bounds = {};
  EXPECT_THROW(run_map_elites(no_grid, 3, evaluate, &first_two_genes,
                              {1, 2.0}, rng),
               InvalidArgument);
  MapElitesConfig mismatched = small_config();
  mismatched.bounds.pop_back();
  EXPECT_THROW(run_map_elites(mismatched, 3, evaluate, &first_two_genes,
                              {1, 2.0}, rng),
               InvalidArgument);
  EXPECT_THROW(run_map_elites(small_config(), 3, evaluate, nullptr, {1, 2.0},
                              rng),
               InvalidArgument);
  MapElitesConfig wrong_dim = small_config();
  wrong_dim.grid_dims = {5, 5, 5};
  wrong_dim.bounds = {{0, 1}, {0, 1}, {0, 1}};
  EXPECT_THROW(run_map_elites(wrong_dim, 3, evaluate, &first_two_genes,
                              {1, 2.0}, rng),
               InvalidArgument);
}

}  // namespace
}  // namespace essns::core
