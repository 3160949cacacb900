// Optimizer: the pluggable Optimization Stage strategy.
//
// The paper frames ESS-NS as "replace the metaheuristic in the OS" while the
// rest of the pipeline is unchanged (Fig. 1 vs Fig. 3). This interface is
// that replaceable block. Four implementations cover the systems compared in
// the paper: ESS (classic GA), ESSIM-EA (island GA), ESSIM-DE (differential
// evolution, with and without tuning) and ESS-NS (the NS-GA of Algorithm 1).
//
// Each constructor checks its metaheuristic's config (ea::validate,
// core::validate), so a setting the search can never run with is refused
// when the optimizer is built, not when its first prediction starts.
//
// An optimizer returns its *solution set* — the scenarios the Statistical
// Stage aggregates. What that set is differs per system and is exactly the
// design point the paper argues about:
//   ESS / ESSIM-EA : the final evolved population;
//   ESSIM-DE       : the final population, partly chosen regardless of
//                    fitness (the diversity-preserving modification);
//   ESS-NS         : the bestSet accumulated over the whole search.
#pragma once

#include <memory>
#include <string>

#include "core/ns_ga.hpp"
#include "ea/de.hpp"
#include "ea/ga.hpp"
#include "ea/individual.hpp"

namespace essns::ess {

struct OptimizationOutcome {
  std::vector<ea::Individual> solutions;  ///< set handed to the SS
  ea::Individual best;                    ///< best-fitness individual found
  int generations = 0;
  std::size_t evaluations = 0;
};

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  virtual std::string name() const = 0;
  virtual OptimizationOutcome optimize(std::size_t dim,
                                       const ea::BatchEvaluator& evaluate,
                                       const ea::StopCondition& stop,
                                       Rng& rng) = 0;
};

/// ESS: classic fitness-driven GA; solution set = final population.
class GaOptimizer final : public Optimizer {
 public:
  explicit GaOptimizer(ea::GaConfig config = {});
  std::string name() const override { return "ESS-GA"; }
  OptimizationOutcome optimize(std::size_t dim,
                               const ea::BatchEvaluator& evaluate,
                               const ea::StopCondition& stop,
                               Rng& rng) override;

 private:
  ea::GaConfig config_;
};

/// ESSIM-DE: differential evolution. `diversity_fraction` of the returned
/// set is drawn uniformly from the population regardless of fitness (the
/// modification §II-B describes); `with_tuning` enables the restart + IQR
/// dynamic tuning operators.
class DeOptimizer final : public Optimizer {
 public:
  struct Options {
    ea::DeConfig de;
    double diversity_fraction = 0.3;
    bool with_tuning = false;
    int stagnation_window = 8;
    double stagnation_epsilon = 1e-4;
    double iqr_threshold = 1e-3;
    std::size_t restart_keep = 4;
  };
  DeOptimizer();
  explicit DeOptimizer(Options options);
  std::string name() const override {
    return options_.with_tuning ? "ESSIM-DE+tuning" : "ESSIM-DE";
  }
  OptimizationOutcome optimize(std::size_t dim,
                               const ea::BatchEvaluator& evaluate,
                               const ea::StopCondition& stop,
                               Rng& rng) override;

 private:
  Options options_;
};

/// ESS-NS: the paper's Algorithm 1; solution set = bestSet.
class NsGaOptimizer final : public Optimizer {
 public:
  explicit NsGaOptimizer(core::NsGaConfig config = {});
  std::string name() const override { return "ESS-NS"; }
  OptimizationOutcome optimize(std::size_t dim,
                               const ea::BatchEvaluator& evaluate,
                               const ea::StopCondition& stop,
                               Rng& rng) override;

 private:
  core::NsGaConfig config_;
};

}  // namespace essns::ess
