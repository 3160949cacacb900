// Individuals and populations shared by every metaheuristic in the system.
//
// All optimizers work on normalized genomes in [0,1]^d. For the wildfire
// problem d = 9 and firelib::ScenarioSpace provides the bijection to Table I
// scenarios; for the toy landscapes the genome is used directly. Keeping the
// genome normalized lets the GA/DE/NS operators be written once.
#pragma once

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace essns::ea {

using Genome = std::vector<double>;

struct Individual {
  Genome genome;
  double fitness = std::numeric_limits<double>::quiet_NaN();
  double novelty = 0.0;

  bool evaluated() const { return !std::isnan(fitness); }
};

using Population = std::vector<Individual>;

/// Batch fitness evaluation: genomes in, one fitness per genome out.
/// This is the seam where the Master/Worker parallelism plugs in — the paper
/// parallelizes exactly this call ("parallelism ... in the evaluation of the
/// scenarios", §III-B).
using BatchEvaluator =
    std::function<std::vector<double>(const std::vector<Genome>&)>;

/// Per-generation observer used by the diversity/convergence experiments.
using GenerationObserver =
    std::function<void(int generation, const Population&)>;

/// The two stopping conditions of Algorithm 1 (also used by GA and DE):
/// generation budget and fitness threshold.
struct StopCondition {
  int max_generations = 50;
  double fitness_threshold = std::numeric_limits<double>::infinity();

  bool done(int generation, double max_fitness) const {
    return generation >= max_generations || max_fitness >= fitness_threshold;
  }
};

/// Uniform random population in [0,1]^d.
Population random_population(std::size_t size, std::size_t dim, Rng& rng);

/// Evaluate every unevaluated individual of `pop` in one `evaluate` call
/// (lines 8-10 of Algorithm 1); returns how many were evaluated.
std::size_t evaluate_pending(Population& pop, const BatchEvaluator& evaluate);

/// Euclidean distance between genomes (genotypic diversity metrics).
double genome_distance(const Genome& a, const Genome& b);

/// Highest fitness in the population; -inf when empty or unevaluated.
double max_fitness(const Population& pop);

/// Index of the best individual; requires non-empty evaluated population.
std::size_t argmax_fitness(const Population& pop);

}  // namespace essns::ea
