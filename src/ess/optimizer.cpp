#include "ess/optimizer.hpp"

#include <algorithm>

#include "ea/tuning.hpp"

namespace essns::ess {

GaOptimizer::GaOptimizer(ea::GaConfig config) : config_(config) {
  ea::validate(config_);
}

OptimizationOutcome GaOptimizer::optimize(std::size_t dim,
                                          const ea::BatchEvaluator& evaluate,
                                          const ea::StopCondition& stop,
                                          Rng& rng) {
  ea::GaResult result = ea::run_ga(config_, dim, evaluate, stop, rng);
  OptimizationOutcome out;
  out.solutions = std::move(result.population);
  out.best = std::move(result.best);
  out.generations = result.generations;
  out.evaluations = result.evaluations;
  return out;
}

DeOptimizer::DeOptimizer() : DeOptimizer(Options{}) {}

DeOptimizer::DeOptimizer(Options options) : options_(options) {
  ea::validate(options_.de);
}

OptimizationOutcome DeOptimizer::optimize(std::size_t dim,
                                          const ea::BatchEvaluator& evaluate,
                                          const ea::StopCondition& stop,
                                          Rng& rng) {
  ea::TuningHook tuning;
  if (options_.with_tuning) {
    tuning = ea::make_essim_de_tuning(
        options_.stagnation_window, options_.stagnation_epsilon,
        options_.iqr_threshold, options_.restart_keep, rng);
  }
  ea::DeResult result = ea::run_de(options_.de, dim, evaluate, stop, rng,
                                   nullptr, tuning);

  OptimizationOutcome out;
  out.best = result.best;
  out.generations = result.generations;
  out.evaluations = result.evaluations;

  // ESSIM-DE result selection: the top (1 - diversity_fraction) share of the
  // population by fitness, plus a uniformly drawn share taken regardless of
  // fitness — "a part of the results are incorporated in the prediction
  // process regardless of their fitness" (§II-B).
  ea::Population pop = std::move(result.population);
  std::sort(pop.begin(), pop.end(), [](const auto& a, const auto& b) {
    return a.fitness > b.fitness;
  });
  const std::size_t n = pop.size();
  const auto random_share =
      static_cast<std::size_t>(options_.diversity_fraction *
                               static_cast<double>(n));
  const std::size_t elite_share = n - random_share;
  out.solutions.assign(pop.begin(),
                       pop.begin() + static_cast<std::ptrdiff_t>(elite_share));
  // Remaining slots: uniform draws without replacement from the non-elite
  // tail, removing each drawn element by swap-and-pop (O(1) per draw).
  std::vector<ea::Individual> tail(
      pop.begin() + static_cast<std::ptrdiff_t>(elite_share), pop.end());
  while (!tail.empty() && out.solutions.size() < n) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(tail.size()) - 1));
    out.solutions.push_back(std::move(tail[pick]));
    if (pick + 1 != tail.size()) tail[pick] = std::move(tail.back());
    tail.pop_back();
  }
  return out;
}

NsGaOptimizer::NsGaOptimizer(core::NsGaConfig config) : config_(config) {
  core::validate(config_);
}

OptimizationOutcome NsGaOptimizer::optimize(std::size_t dim,
                                            const ea::BatchEvaluator& evaluate,
                                            const ea::StopCondition& stop,
                                            Rng& rng) {
  core::NsGaResult result =
      core::run_ns_ga(config_, dim, evaluate, stop, rng);
  OptimizationOutcome out;
  out.solutions = std::move(result.best_set);
  if (!out.solutions.empty()) out.best = out.solutions.front();
  out.generations = result.generations;
  out.evaluations = result.evaluations;
  return out;
}

}  // namespace essns::ess
