#include "ea/ga.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ea/operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace essns::ea {
namespace {

std::vector<double> fitnesses_of(const Population& pop) {
  std::vector<double> out(pop.size());
  for (std::size_t i = 0; i < pop.size(); ++i) out[i] = pop[i].fitness;
  return out;
}

}  // namespace

void validate(const GaConfig& config) {
  ESSNS_REQUIRE(config.population_size >= 2, "GA population >= 2");
  ESSNS_REQUIRE(config.offspring_count >= kGaMinOffspring,
                "GA offspring >= 2");
  ESSNS_REQUIRE(config.elite_count < config.population_size,
                "elite count must be below population size");
}

GaResult run_ga(const GaConfig& config, std::size_t dim,
                const BatchEvaluator& evaluate, const StopCondition& stop,
                Rng& rng, const GenerationObserver& observer,
                const Population* initial) {
  validate(config);
  ESSNS_REQUIRE(!initial || initial->size() == config.population_size,
                "initial population size must match config");

  GaResult result;
  Population pop =
      initial ? *initial : random_population(config.population_size, dim, rng);
  result.evaluations += evaluate_pending(pop, evaluate);
  result.best = pop[argmax_fitness(pop)];

  int generation = 0;
  if (observer) observer(generation, pop);

  while (!stop.done(generation, result.best.fitness)) {
    ESSNS_TRACE_SPAN("os.generation");
    obs::add_counter("os.generations", 1);
    // --- Selection + reproduction (generateOffspring). ---
    Population offspring = generate_offspring(
        pop, fitnesses_of(pop), config.offspring_count, config.crossover_rate,
        config.mutation_rate, config.mutation_sigma, rng);
    result.evaluations += evaluate_pending(offspring, evaluate);

    // --- Elitist generational replacement: keep the elite parents, fill the
    // rest with the best offspring. ---
    std::sort(pop.begin(), pop.end(), [](const auto& a, const auto& b) {
      return a.fitness > b.fitness;
    });
    std::sort(offspring.begin(), offspring.end(),
              [](const auto& a, const auto& b) { return a.fitness > b.fitness; });
    Population next;
    next.reserve(config.population_size);
    for (std::size_t i = 0; i < config.elite_count; ++i) next.push_back(pop[i]);
    for (std::size_t i = 0;
         i < offspring.size() && next.size() < config.population_size; ++i)
      next.push_back(offspring[i]);
    // Degenerate configs (few offspring): pad with best remaining parents.
    for (std::size_t i = config.elite_count;
         next.size() < config.population_size && i < pop.size(); ++i)
      next.push_back(pop[i]);
    pop = std::move(next);

    const Individual& gen_best = pop[argmax_fitness(pop)];
    if (!result.best.evaluated() || gen_best.fitness > result.best.fitness)
      result.best = gen_best;

    ++generation;
    if (observer) observer(generation, pop);
  }

  result.population = std::move(pop);
  result.generations = generation;
  return result;
}

}  // namespace essns::ea
