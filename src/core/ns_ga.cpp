#include "core/ns_ga.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/novelty.hpp"
#include "ea/operators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace essns::core {
void validate(const NsGaConfig& config) {
  ESSNS_REQUIRE(config.population_size >= 2, "NS-GA population >= 2");
  ESSNS_REQUIRE(config.offspring_count >= 1, "NS-GA offspring >= 1");
}

NsGaResult run_ns_ga(const NsGaConfig& config, std::size_t dim,
                     const ea::BatchEvaluator& evaluate,
                     const ea::StopCondition& stop, Rng& rng,
                     const ea::GenerationObserver& observer) {
  validate(config);

  NsGaResult result;
  // Lines 1-5: initialization.
  ea::Population population =
      ea::random_population(config.population_size, dim, rng);
  NoveltyArchive archive(config.archive, rng.split(0x5eed)());
  BestSet best_set(config.best_set_capacity);

  result.evaluations += ea::evaluate_pending(population, evaluate);
  best_set.update(population);  // seed bestSet so maxFitness is defined

  int generations = 0;
  if (observer) observer(generations, population);

  // Line 6: two stopping conditions (generations, fitness threshold).
  while (!stop.done(generations, best_set.max_fitness())) {
    ESSNS_TRACE_SPAN("os.generation");
    obs::add_counter("os.generations", 1);
    // Line 7: generateOffspring — roulette selection on novelty (0 for
    // everyone in generation 0, i.e. uniform), crossover cR, per-gene
    // mutation mR.
    std::vector<double> scores(population.size());
    for (std::size_t i = 0; i < population.size(); ++i)
      scores[i] = population[i].novelty;
    ea::Population offspring = ea::generate_offspring(
        population, scores, config.offspring_count, config.crossover_rate,
        config.mutation_rate, config.mutation_sigma, rng);

    // Lines 8-10: fitness of population ∪ offspring (population is already
    // evaluated; the batch evaluator call is the parallelized simulation).
    result.evaluations += ea::evaluate_pending(offspring, evaluate);

    // Line 11: noveltySet <- population ∪ offspring ∪ archive.
    std::vector<ea::Individual> novelty_set;
    novelty_set.reserve(population.size() + offspring.size() + archive.size());
    novelty_set.insert(novelty_set.end(), population.begin(), population.end());
    novelty_set.insert(novelty_set.end(), offspring.begin(), offspring.end());
    novelty_set.insert(novelty_set.end(), archive.items().begin(),
                       archive.items().end());

    // Lines 12-14: novelty of every individual in population ∪ offspring.
    evaluate_novelty(population, novelty_set, config.novelty_k);
    evaluate_novelty(offspring, novelty_set, config.novelty_k);

    // Line 15: archive update with the most novel offspring.
    archive.update(offspring);

    // Line 17: bestSet <- updateBest(bestSet, offspring). Done before the
    // replacement step so high-fitness offspring are recorded even when
    // their novelty is too low to survive into the next population — the
    // property §III-A calls the main advantage of NS for this application.
    best_set.update(offspring);

    // Line 16: replaceByNovelty — elitist selection over the whole
    // population ∪ offspring pool, ranked by novelty.
    ea::Population pool;
    pool.reserve(population.size() + offspring.size());
    pool.insert(pool.end(), std::make_move_iterator(population.begin()),
                std::make_move_iterator(population.end()));
    pool.insert(pool.end(), std::make_move_iterator(offspring.begin()),
                std::make_move_iterator(offspring.end()));
    std::sort(pool.begin(), pool.end(), [](const auto& a, const auto& b) {
      return a.novelty > b.novelty;
    });
    pool.resize(config.population_size);
    population = std::move(pool);

    // Line 19 (line 18's getMaxFitness is read via best_set.max_fitness()).
    ++generations;
    if (observer) observer(generations, population);
  }

  result.best_set = best_set.items();
  result.population = std::move(population);
  result.archive = archive.items();
  result.max_fitness = best_set.max_fitness();
  result.generations = generations;
  return result;
}

}  // namespace essns::core
