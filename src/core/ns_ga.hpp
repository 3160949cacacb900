// NS-GA: the paper's Algorithm 1, "Novelty-based Genetic Algorithm with
// Multiple Solutions" — the primary contribution of the reproduced paper.
//
// Line-by-line mapping (Algorithm 1 -> this implementation):
//   1  population <- initializePopulation(N)      ea::random_population
//   2  archive <- {}                              NoveltyArchive
//   3  bestSet <- {}                              BestSet
//   4  generations <- 0
//   5  maxFitness <- 0
//   6  while gen < maxGen and maxFitness < fThreshold   StopCondition
//   7    offspring <- generateOffspring(pop,m,mR,cR)    roulette on novelty +
//                                                        crossover + mutation
//   8-10 evaluate fitness of population+offspring       BatchEvaluator (the
//                                                        parallelized call)
//  11    noveltySet <- pop ∪ offspring ∪ archive
//  12-14 evaluate novelty against noveltySet            core::evaluate_novelty
//  15    archive <- updateArchive(archive, offspring)   NoveltyArchive::update
//  16    population <- replaceByNovelty(pop,off,N)      elitist on novelty
//  17    bestSet <- updateBest(bestSet, offspring)      BestSet::update
//  18    maxFitness <- getMaxFitness(bestSet)
//  19    generations++
//  21  return bestSet
//
// Differences from a fitness GA are exactly the ones the paper highlights:
// selection and replacement read Individual::novelty, never fitness; fitness
// is only recorded into bestSet, which is the algorithm's output. Novelty is
// Eq. (1) over the fitness distance of Eq. (2) (core/novelty.hpp), the only
// behaviour characterization the paper evaluates.
#pragma once

#include "core/archive.hpp"
#include "ea/individual.hpp"

namespace essns::core {

struct NsGaConfig {
  std::size_t population_size = 32;   ///< N
  std::size_t offspring_count = 32;   ///< m
  double crossover_rate = 0.9;        ///< cR
  double mutation_rate = 0.1;         ///< mR (per gene)
  double mutation_sigma = 0.1;        ///< gaussian step in genome units
  int novelty_k = 10;                 ///< k of Eq. (1); <= 0 = whole set
  ArchiveConfig archive;              ///< archive policy (paper: novelty-ranked)
  std::size_t best_set_capacity = 32; ///< |bestSet|
};

struct NsGaResult {
  std::vector<ea::Individual> best_set;  ///< Algorithm 1's return value
  ea::Population population;             ///< final population (diagnostics)
  std::vector<ea::Individual> archive;   ///< final archive (diagnostics)
  double max_fitness = 0.0;
  int generations = 0;
  std::size_t evaluations = 0;
};

/// Throw InvalidArgument unless `config` can run (N >= 2, m >= 1).
void validate(const NsGaConfig& config);

/// Run Algorithm 1, maximizing `evaluate` over [0,1]^dim.
NsGaResult run_ns_ga(const NsGaConfig& config, std::size_t dim,
                     const ea::BatchEvaluator& evaluate,
                     const ea::StopCondition& stop, Rng& rng,
                     const ea::GenerationObserver& observer = nullptr);

}  // namespace essns::core
