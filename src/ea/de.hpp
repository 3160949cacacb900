// Differential Evolution: the Optimization Stage metaheuristic of ESSIM-DE
// (Tardivo et al.). Implements DE/rand/1/bin with the diversity-preserving
// result selection the ESSIM-DE papers describe (a fraction of the returned
// set is taken regardless of fitness), plus hooks for the automatic/dynamic
// tuning operators in ea/tuning.hpp.
#pragma once

#include "ea/individual.hpp"

namespace essns::ea {

struct DeConfig {
  std::size_t population_size = 32;
  double differential_weight = 0.7;  ///< F
  double crossover_rate = 0.5;       ///< CR
};

/// Tuning callback: invoked after each generation with (generation,
/// population); may mutate the population (e.g. restart). Returns true when
/// it intervened, so callers can count tuning events.
using TuningHook = std::function<bool(int, Population&)>;

struct DeResult {
  Population population;
  Individual best;
  int generations = 0;
  std::size_t evaluations = 0;
  int tuning_events = 0;
};

/// A target plus three donors.
inline constexpr std::size_t kDeMinPopulation = 4;

/// Throw InvalidArgument unless `config` can run (population >=
/// kDeMinPopulation; F in (0,2]; CR in [0,1]).
void validate(const DeConfig& config);

/// Run DE: maximize `evaluate` over [0,1]^dim. Out-of-range trial vectors are
/// reflected back into the unit box.
/// `initial`, when non-null, seeds the population (size must match config);
/// used by the ESSIM island model between migration rounds.
DeResult run_de(const DeConfig& config, std::size_t dim,
                const BatchEvaluator& evaluate, const StopCondition& stop,
                Rng& rng, const GenerationObserver& observer = nullptr,
                const TuningHook& tuning = nullptr,
                const Population* initial = nullptr);

}  // namespace essns::ea
