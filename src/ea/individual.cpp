#include "ea/individual.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace essns::ea {

Population random_population(std::size_t size, std::size_t dim, Rng& rng) {
  ESSNS_REQUIRE(size > 0 && dim > 0, "population and genome sizes positive");
  Population pop(size);
  for (Individual& ind : pop) {
    ind.genome.resize(dim);
    for (double& g : ind.genome) g = rng.uniform();
  }
  return pop;
}

std::size_t evaluate_pending(Population& pop, const BatchEvaluator& evaluate) {
  std::vector<Genome> genomes;
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    if (!pop[i].evaluated()) {
      genomes.push_back(pop[i].genome);
      indices.push_back(i);
    }
  }
  if (genomes.empty()) return 0;
  const std::vector<double> fitness = evaluate(genomes);
  ESSNS_REQUIRE(fitness.size() == genomes.size(),
                "evaluator must return one fitness per genome");
  for (std::size_t j = 0; j < indices.size(); ++j)
    pop[indices[j]].fitness = fitness[j];
  return genomes.size();
}

double genome_distance(const Genome& a, const Genome& b) {
  ESSNS_REQUIRE(a.size() == b.size(), "genome dimensions must match");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double max_fitness(const Population& pop) {
  double best = -std::numeric_limits<double>::infinity();
  for (const Individual& ind : pop)
    if (ind.evaluated()) best = std::max(best, ind.fitness);
  return best;
}

std::size_t argmax_fitness(const Population& pop) {
  ESSNS_REQUIRE(!pop.empty(), "argmax of empty population");
  std::size_t best = 0;
  for (std::size_t i = 1; i < pop.size(); ++i)
    if (pop[i].fitness > pop[best].fitness) best = i;
  return best;
}

}  // namespace essns::ea
