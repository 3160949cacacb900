#include "ea/de.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ea/operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace essns::ea {

void validate(const DeConfig& config) {
  ESSNS_REQUIRE(config.population_size >= kDeMinPopulation,
                "DE needs at least 4 individuals (target + 3 donors)");
  ESSNS_REQUIRE(config.differential_weight > 0.0 &&
                    config.differential_weight <= 2.0,
                "DE weight F in (0,2]");
  ESSNS_REQUIRE(config.crossover_rate >= 0.0 && config.crossover_rate <= 1.0,
                "DE crossover rate in [0,1]");
}

DeResult run_de(const DeConfig& config, std::size_t dim,
                const BatchEvaluator& evaluate, const StopCondition& stop,
                Rng& rng, const GenerationObserver& observer,
                const TuningHook& tuning, const Population* initial) {
  validate(config);
  ESSNS_REQUIRE(!initial || initial->size() == config.population_size,
                "initial population size must match config");

  DeResult result;
  Population pop =
      initial ? *initial : random_population(config.population_size, dim, rng);
  result.evaluations += evaluate_pending(pop, evaluate);
  result.best = pop[argmax_fitness(pop)];

  int generation = 0;
  if (observer) observer(generation, pop);

  const auto n = static_cast<std::int64_t>(config.population_size);
  while (!stop.done(generation, result.best.fitness)) {
    ESSNS_TRACE_SPAN("os.generation");
    obs::add_counter("os.generations", 1);
    // --- Build one trial vector per target. ---
    std::vector<Genome> trials(config.population_size);
    for (std::size_t i = 0; i < config.population_size; ++i) {
      // Three distinct donors, all different from the target.
      std::size_t r1, r2, r3;
      do { r1 = static_cast<std::size_t>(rng.uniform_int(0, n - 1)); }
      while (r1 == i);
      do { r2 = static_cast<std::size_t>(rng.uniform_int(0, n - 1)); }
      while (r2 == i || r2 == r1);
      do { r3 = static_cast<std::size_t>(rng.uniform_int(0, n - 1)); }
      while (r3 == i || r3 == r1 || r3 == r2);

      const Genome& base = pop[r1].genome;
      Genome trial = pop[i].genome;
      const std::size_t forced =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(dim) - 1));
      for (std::size_t j = 0; j < dim; ++j) {
        if (j == forced || rng.bernoulli(config.crossover_rate)) {
          const double v = base[j] + config.differential_weight *
                                         (pop[r2].genome[j] - pop[r3].genome[j]);
          trial[j] = reflect_unit(v);
        }
      }
      trials[i] = std::move(trial);
    }

    const std::vector<double> trial_fitness = evaluate(trials);
    ESSNS_REQUIRE(trial_fitness.size() == trials.size(),
                  "evaluator must return one fitness per genome");
    result.evaluations += trials.size();

    // --- Greedy one-to-one replacement. ---
    for (std::size_t i = 0; i < config.population_size; ++i) {
      if (trial_fitness[i] >= pop[i].fitness) {
        pop[i].genome = std::move(trials[i]);
        pop[i].fitness = trial_fitness[i];
      }
    }

    const Individual& gen_best = pop[argmax_fitness(pop)];
    if (gen_best.fitness > result.best.fitness) result.best = gen_best;

    ++generation;
    if (tuning && tuning(generation, pop)) {
      ++result.tuning_events;
      // Tuning may have injected unevaluated individuals; evaluate them.
      result.evaluations += evaluate_pending(pop, evaluate);
    }
    if (observer) observer(generation, pop);
  }

  result.population = std::move(pop);
  result.generations = generation;
  return result;
}

}  // namespace essns::ea
