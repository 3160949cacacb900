// Classic generational genetic algorithm: the Optimization Stage metaheuristic
// of the original ESS system (Goldberg-style GA with roulette selection),
// which this repository uses as the fitness-driven baseline that ESS-NS is
// compared against.
#pragma once

#include "ea/individual.hpp"

namespace essns::ea {

struct GaConfig {
  std::size_t population_size = 32;
  std::size_t offspring_count = 32;
  double crossover_rate = 0.9;     ///< probability a selected pair recombines
  double mutation_rate = 0.1;      ///< per-gene mutation probability
  double mutation_sigma = 0.1;     ///< gaussian mutation step (genome units)
  std::size_t elite_count = 2;     ///< parents surviving unconditionally
};

struct GaResult {
  Population population;      ///< final evolved population (ESS's output)
  Individual best;            ///< best individual seen over the whole run
  int generations = 0;
  std::size_t evaluations = 0;
};

/// The GA breeds in pairs.
inline constexpr std::size_t kGaMinOffspring = 2;

/// Throw InvalidArgument unless `config` can run (population >= 2,
/// offspring >= kGaMinOffspring, elite_count < population).
void validate(const GaConfig& config);

/// Run the GA: maximize `evaluate` over [0,1]^dim.
///
/// The observer, when provided, is called after every generation with the
/// current population (used by the diversity experiment EXP-D).
///
/// When `initial` is non-null it seeds the population instead of random
/// initialization (used by the ESSIM island model to resume evolution
/// between migration rounds); its size must equal config.population_size.
GaResult run_ga(const GaConfig& config, std::size_t dim,
                const BatchEvaluator& evaluate, const StopCondition& stop,
                Rng& rng, const GenerationObserver& observer = nullptr,
                const Population* initial = nullptr);

}  // namespace essns::ea
