#include "ea/operators.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/error.hpp"

namespace essns::ea {

std::size_t roulette_select(std::span<const double> scores, Rng& rng) {
  ESSNS_REQUIRE(!scores.empty(), "selection over empty score set");
  const double lo = *std::min_element(scores.begin(), scores.end());
  const double shift = lo < 0.0 ? -lo : 0.0;
  double total = 0.0;
  for (double s : scores) total += s + shift;
  if (total <= 0.0) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(scores.size()) - 1));
  }
  const double draw = rng.uniform(0.0, total);
  double acc = 0.0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    acc += scores[i] + shift;
    if (draw < acc) return i;
  }
  return scores.size() - 1;  // numeric edge: draw == total
}

std::pair<Genome, Genome> uniform_crossover(const Genome& a, const Genome& b,
                                            Rng& rng) {
  ESSNS_REQUIRE(a.size() == b.size(), "parents must share genome length");
  Genome c1 = a, c2 = b;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (rng.bernoulli(0.5)) std::swap(c1[i], c2[i]);
  return {std::move(c1), std::move(c2)};
}

double reflect_unit(double value) {
  if (value >= 0.0 && value <= 1.0) return value;
  // Reflect around [0,1]: pattern repeats with period 2.
  double v = std::fmod(std::fabs(value), 2.0);
  return v <= 1.0 ? v : 2.0 - v;
}

void gaussian_mutation(Genome& genome, double rate, double sigma, Rng& rng) {
  ESSNS_REQUIRE(rate >= 0.0 && rate <= 1.0, "mutation rate in [0,1]");
  ESSNS_REQUIRE(sigma >= 0.0, "mutation sigma non-negative");
  for (double& g : genome)
    if (rng.bernoulli(rate)) g = reflect_unit(g + rng.normal(0.0, sigma));
}

Population generate_offspring(const Population& parents,
                              std::span<const double> scores,
                              std::size_t count, double crossover_rate,
                              double mutation_rate, double mutation_sigma,
                              Rng& rng) {
  Population offspring;
  offspring.reserve(count);
  while (offspring.size() < count) {
    const std::size_t ia = roulette_select(scores, rng);
    const std::size_t ib = roulette_select(scores, rng);
    Genome c1 = parents[ia].genome;
    Genome c2 = parents[ib].genome;
    if (rng.bernoulli(crossover_rate))
      std::tie(c1, c2) = uniform_crossover(c1, c2, rng);
    gaussian_mutation(c1, mutation_rate, mutation_sigma, rng);
    gaussian_mutation(c2, mutation_rate, mutation_sigma, rng);
    Individual child1, child2;
    child1.genome = std::move(c1);
    child2.genome = std::move(c2);
    offspring.push_back(std::move(child1));
    if (offspring.size() < count) offspring.push_back(std::move(child2));
  }
  return offspring;
}

}  // namespace essns::ea
